package telemetry

import "time"

// Span measures one timed region and, on End, feeds its duration into a
// histogram. Spans are plain values: starting one costs a clock read and
// no allocation, and a span started without a histogram is inert — it
// never reads the clock and End is free.
//
// Nesting is by construction: a region that contains another simply
// starts an inner span (an interpreter run that itself spans heap
// allocations, say). Each level observes into its own histogram, so the
// registry ends up with a latency distribution per region kind rather
// than a single conflated timer.
type Span struct {
	hist  *Histogram
	start time.Time
}

// StartSpan begins a span recording into h; a nil h gives an inert span.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{hist: h, start: time.Now()}
}

// End closes the span, observing the elapsed nanoseconds into the
// histogram. It returns the measured duration (zero for an inert span).
// Ending the same span value twice records the region twice; don't.
func (s Span) End() time.Duration {
	if s.hist == nil {
		return 0
	}
	d := time.Since(s.start)
	s.hist.Observe(uint64(d))
	return d
}
