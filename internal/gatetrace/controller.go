package gatetrace

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// SamplerControl is the knob the adaptive controller turns — implemented
// by profstore.Sampler. The interface lives here so the controller need
// not import profstore (gatetrace sits below it in the import graph).
type SamplerControl interface {
	// Interval returns the current sampling interval (sample every Nth
	// crossing; <= 1 samples all).
	Interval() int
	// SetInterval replaces the interval; implementations clamp to >= 1.
	SetInterval(n int)
}

// Controller retunes a crossing sampler's interval from the live gate
// latency p99, merged over every series of GateLatencyMetric — the
// ROADMAP's "adaptive sampling interval" item. The control law is
// deliberately coarse (multiplicative increase / decrease with
// hysteresis): when the gates run hot the profiler backs off to stop
// compounding the tail, and when they run well under target it leans back
// in for attribution coverage. Coarse is correct here — the histogram is
// log2-bucketed, so finer steps would be tuning inside the measurement
// error.
type Controller struct {
	// Sampler is the knob (required).
	Sampler SamplerControl
	// Registry is read for the gate-latency family (required).
	Registry *telemetry.Registry
	// Target is the gate-latency p99 the controller steers around
	// (required, > 0).
	Target time.Duration

	mu        sync.Mutex
	lastCount uint64
}

// Retuning describes one Retune decision, for logs and tests.
type Retuning struct {
	P99     time.Duration
	Count   uint64
	Old     int
	New     int
	Changed bool
}

// The interval stays within [minInterval, maxInterval], and the
// controller holds until the watched family has minSamples observations:
// below that its p99 means nothing.
const (
	minInterval = 1
	maxInterval = 1 << 16
	minSamples  = 16
)

// Retune reads the current merged p99 of the watched family and adjusts
// the sampler: p99 above target doubles the interval (sample less, shed
// profiling overhead from an already-hot gate path); p99 below half the
// target halves it (the gates have headroom — buy attribution). In the
// hysteresis band between, it holds. A window with no new observations
// since the previous call never acts: a stale p99 is yesterday's weather.
func (c *Controller) Retune() Retuning {
	r := Retuning{Old: c.Sampler.Interval(), New: c.Sampler.Interval()}
	vals, count, ok := c.Registry.HistogramQuantiles(GateLatencyMetric, 0.99)
	if !ok || len(vals) == 0 {
		return r
	}
	r.P99, r.Count = time.Duration(vals[0]), count
	c.mu.Lock()
	fresh := count > c.lastCount
	c.lastCount = count
	c.mu.Unlock()
	if !fresh || count < minSamples || c.Target <= 0 {
		return r
	}
	switch {
	case r.P99 > c.Target:
		r.New = r.Old * 2
	case r.P99 < c.Target/2:
		r.New = r.Old / 2
	default:
		return r
	}
	r.New = min(max(r.New, minInterval), maxInterval)
	if r.New != r.Old {
		c.Sampler.SetInterval(r.New)
		r.Changed = true
	}
	return r
}

// Run retunes every period until stop closes, reporting each change to
// onChange (which may be nil). It is the long-running form pkru-servo
// launches next to its request loops.
func (c *Controller) Run(stop <-chan struct{}, period time.Duration, onChange func(Retuning)) {
	if period <= 0 {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if r := c.Retune(); r.Changed && onChange != nil {
				onChange(r)
			}
		}
	}
}
