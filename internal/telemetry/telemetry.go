// Package telemetry is the PKRU-Safe runtime's observability layer: a
// dependency-free metrics registry of atomic counters, gauges and
// log-scaled histograms, organized into labeled families, plus a span API
// for timing nested runtime regions (gate enter→exit, profiler
// record→resume, heap alloc/free, interpreter dispatch).
//
// The paper's evaluation (§6) hinges on per-operation accounting at the
// T/U boundary — gate traversals, PKU faults, alloc→ualloc rewrites and
// their cost. This package is where those numbers accumulate; the
// exporters (Prometheus text exposition and a JSON snapshot, see
// export.go) are how a run's behaviour leaves the process.
//
// Every handle type is nil-safe: methods on a nil *Registry return nil
// metric handles, and methods on nil handles are no-ops. Code therefore
// instruments unconditionally and pays nothing — not even an allocation —
// when telemetry is disabled.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value (possibly sampled via a func).
	KindGauge
	// KindHistogram is a log2-bucketed value distribution.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Counter is a monotone counter: what Add has added plus, read at export
// time, the counts of every owner attached with Func. The nil counter is
// a no-op.
type Counter struct {
	v   atomic.Uint64
	fns atomic.Pointer[[]func() uint64] // copied on attach, read lock-free
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Func attaches a count its owner already keeps; Value reads it on every
// export, so the owner's hot path pushes nothing into the registry. fn
// must be monotone and safe to call concurrently with the owner. Several
// owners may attach to one counter (every thread of a runtime, every
// runtime on one registry); the counter reports their sum. An owner
// attaches once: a second Func with the same count adds it twice.
func (c *Counter) Func(fn func() uint64) {
	if c == nil {
		return
	}
	for {
		old := c.fns.Load()
		var next []func() uint64
		if old != nil {
			next = append(make([]func() uint64, 0, len(*old)+1), *old...)
		}
		next = append(next, fn)
		if c.fns.CompareAndSwap(old, &next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	n := c.v.Load()
	if fns := c.fns.Load(); fns != nil {
		for _, fn := range *fns {
			n += fn()
		}
	}
	return n
}

// Gauge is an instantaneous float64 value. A gauge may instead be backed
// by a sampling function (see GaugeVec.WithFunc / Registry.GaugeFunc), in
// which case Set and Add are ignored. The nil gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil && g.fn == nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d to the current value.
func (g *Gauge) Add(d float64) {
	if g == nil || g.fn != nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value, sampling the backing function if one
// is attached.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// series is one labeled instance within a family.
type series struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family is one named metric with a fixed label schema.
type family struct {
	name   string
	help   string
	unit   string
	kind   Kind
	labels []string

	mu     sync.RWMutex
	series map[string]*series
}

// seriesKey joins label values into a map key. Label values never contain
// NUL in this codebase; the separator keeps ("a","bc") distinct from
// ("ab","c").
func seriesKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0)
		}
		b = append(b, v...)
	}
	return string(b)
}

// with returns (creating on first use) the series for the given label
// values.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q expects %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{values: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		s.counter = new(Counter)
	case KindGauge:
		s.gauge = new(Gauge)
	case KindHistogram:
		s.hist = new(Histogram)
	}
	f.series[key] = s
	return s
}

// sortedSeries returns the family's series ordered by label values.
func (f *family) sortedSeries() []*series {
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	return out
}

// CounterVec is a labeled counter family. The nil vec yields nil counters.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.with(values).counter
}

// GaugeVec is a labeled gauge family. The nil vec yields nil gauges.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.with(values).gauge
}

// WithFunc binds the series for the given label values to a sampling
// function evaluated at export time — the cheap way to publish values
// another subsystem already maintains (allocator stats, resident pages).
func (v *GaugeVec) WithFunc(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	v.fam.with(values).gauge.fn = fn
}

// HistogramVec is a labeled histogram family. The nil vec yields nil
// histograms.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.with(values).hist
}

// Registry holds metric families. The zero value is unusable; construct
// with NewRegistry. A nil *Registry is the disabled state: every
// registration method returns a nil handle.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // registration order, for stable export
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (creating on first registration) the named family.
// Re-registering an existing name with a different kind or label schema is
// a programming error and panics.
func (r *Registry) family(name, help, unit string, kind Kind, labels []string) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{
				name:   name,
				help:   help,
				unit:   unit,
				kind:   kind,
				labels: append([]string(nil), labels...),
				series: make(map[string]*series),
			}
			r.families[name] = f
			r.order = append(r.order, name)
		}
		r.mu.Unlock()
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v with %d label(s) (was %v with %d)",
			name, kind, len(labels), f.kind, len(f.labels)))
	}
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, "", KindCounter, nil).with(nil).counter
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.family(name, help, "", KindCounter, labels)}
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, "", KindGauge, nil).with(nil).gauge
}

// GaugeFunc registers an unlabeled gauge backed by a sampling function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.family(name, help, "", KindGauge, nil).with(nil).gauge.fn = fn
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.family(name, help, "", KindGauge, labels)}
}

// Histogram registers (or returns) an unlabeled histogram. Unit names the
// observed quantity ("ns", "bytes") and is carried into exports.
func (r *Registry) Histogram(name, help, unit string) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, help, unit, KindHistogram, nil).with(nil).hist
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help, unit string, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{fam: r.family(name, help, unit, KindHistogram, labels)}
}

// sortedFamilies returns families in registration order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.families[name])
	}
	return out
}

// CounterValue sums a counter family's series; ok reports whether the
// family exists and is a counter.
func (r *Registry) CounterValue(name string) (total float64, ok bool) {
	if r == nil {
		return 0, false
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.kind != KindCounter {
		return 0, false
	}
	for _, s := range f.sortedSeries() {
		total += float64(s.counter.Value())
	}
	return total, true
}

// HistogramQuantiles merges a histogram family's series and returns the
// requested quantiles over the merged distribution plus the total
// observation count; ok reports whether the family exists and is a
// histogram.
func (r *Registry) HistogramQuantiles(name string, qs ...float64) (vals []float64, count uint64, ok bool) {
	if r == nil {
		return nil, 0, false
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.kind != KindHistogram {
		return nil, 0, false
	}
	var merged [numBuckets]uint64
	for _, s := range f.sortedSeries() {
		b, c, _ := s.hist.snapshot()
		count += c
		for i := range b {
			merged[i] += b[i]
		}
	}
	vals = make([]float64, len(qs))
	for i, q := range qs {
		vals[i] = quantileFromBuckets(merged[:], count, q)
	}
	return vals, count, true
}
