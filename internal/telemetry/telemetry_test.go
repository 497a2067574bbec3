package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Re-registration returns the same underlying counter.
	if again := r.Counter("test_total", "help"); again.Value() != 42 {
		t.Fatalf("re-registered counter = %d, want 42", again.Value())
	}
}

func TestCounterVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ops_total", "help", "kind")
	v.With("read").Add(3)
	v.With("write").Add(4)
	v.With("read").Inc()
	if got := v.With("read").Value(); got != 4 {
		t.Fatalf("read = %d, want 4", got)
	}
	total, ok := r.CounterValue("ops_total")
	if !ok || total != 8 {
		t.Fatalf("CounterValue = %v,%v, want 8,true", total, ok)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "help")
	g.Set(2.5)
	g.Add(1.5)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
	r.GaugeFunc("sampled", "help", func() float64 { return 7 })
	snap := r.Snapshot()
	var found bool
	for _, m := range snap.Metrics {
		if m.Name == "sampled" {
			found = true
			if m.Series[0].Value != 7 {
				t.Fatalf("sampled gauge = %v, want 7", m.Series[0].Value)
			}
		}
	}
	if !found {
		t.Fatal("sampled gauge missing from snapshot")
	}
}

func TestLabelCountMismatchPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("labeled_total", "help", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong label count")
		}
	}()
	v.With("only-one")
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("dual", "help")
}

func TestSeriesKeyDistinct(t *testing.T) {
	if seriesKey([]string{"a", "bc"}) == seriesKey([]string{"ab", "c"}) {
		t.Fatal(`seriesKey("a","bc") must differ from seriesKey("ab","c")`)
	}
}

// TestNilRegistryNoOps: the disabled path must not panic anywhere.
func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.CounterVec("b", "", "l").With("x").Add(5)
	r.Gauge("c", "").Set(1)
	r.GaugeFunc("d", "", func() float64 { return 1 })
	r.GaugeVec("e", "", "l").With("x").Add(1)
	r.GaugeVec("e2", "", "l").WithFunc(func() float64 { return 1 }, "x")
	r.Histogram("f", "", "ns").Observe(9)
	r.HistogramVec("g", "", "ns", "l").With("x").Observe(9)
	if _, ok := r.CounterValue("a"); ok {
		t.Fatal("nil registry CounterValue ok=true")
	}
	if _, _, ok := r.HistogramQuantiles("f", 0.5); ok {
		t.Fatal("nil registry HistogramQuantiles ok=true")
	}
	snap := r.Snapshot()
	if snap.Schema != SnapshotSchema || len(snap.Metrics) != 0 {
		t.Fatalf("nil registry snapshot = %+v", snap)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry WritePrometheus wrote %q, err %v", sb.String(), err)
	}
	if StartSpan(nil).End() != 0 {
		t.Fatal("span with no histogram must be inert")
	}
}

// TestConcurrentEmit hammers one registry from many goroutines; run with
// -race to verify the lock-free hot paths and locked registration paths
// are data-race free.
func TestConcurrentEmit(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	labels := []string{"alpha", "beta", "gamma", "delta"}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("conc_total", "")
			v := r.CounterVec("conc_labeled_total", "", "l")
			h := r.HistogramVec("conc_ns", "", "ns", "l")
			gauge := r.Gauge("conc_gauge", "")
			for i := 0; i < iters; i++ {
				c.Inc()
				lbl := labels[(g+i)%len(labels)]
				v.With(lbl).Inc()
				h.With(lbl).Observe(uint64(i))
				gauge.Add(1)
				if i%64 == 0 {
					// Concurrent export must coexist with writes.
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("conc_total", "").Value(); got != goroutines*iters {
		t.Fatalf("conc_total = %d, want %d", got, goroutines*iters)
	}
	total, ok := r.CounterValue("conc_labeled_total")
	if !ok || total != goroutines*iters {
		t.Fatalf("conc_labeled_total = %v, want %d", total, goroutines*iters)
	}
	_, count, ok := r.HistogramQuantiles("conc_ns", 0.5)
	if !ok || count != goroutines*iters {
		t.Fatalf("conc_ns count = %d, want %d", count, goroutines*iters)
	}
	if got := r.Gauge("conc_gauge", "").Value(); got != goroutines*iters {
		t.Fatalf("conc_gauge = %v, want %d", got, goroutines*iters)
	}
}

// referenceQuantile is the exact quantile on the raw sample (nearest-rank
// with the same rank convention as the histogram's walk).
func referenceQuantile(sorted []uint64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// TestHistogramQuantileVsReference checks the log2-bucketed estimate
// stays within the documented 2x relative error of an exact reference
// computation over the same samples.
func TestHistogramQuantileVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	distributions := map[string]func() uint64{
		"uniform": func() uint64 { return uint64(rng.Intn(1_000_000)) },
		"exp":     func() uint64 { return uint64(rng.ExpFloat64() * 50_000) },
		"bimodal": func() uint64 {
			if rng.Intn(2) == 0 {
				return uint64(100 + rng.Intn(50))
			}
			return uint64(1_000_000 + rng.Intn(500_000))
		},
	}
	for name, gen := range distributions {
		h := new(Histogram)
		samples := make([]uint64, 0, 10_000)
		for i := 0; i < 10_000; i++ {
			v := gen()
			h.Observe(v)
			samples = append(samples, v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			want := referenceQuantile(samples, q)
			got := h.Quantile(q)
			if want == 0 {
				if got > 1 {
					t.Errorf("%s q%.2f: got %v, want ~0", name, q, got)
				}
				continue
			}
			if ratio := got / want; ratio < 0.5 || ratio > 2.0 {
				t.Errorf("%s q%.2f: got %v, reference %v (ratio %.3f outside [0.5, 2])", name, q, got, want, ratio)
			}
		}
		if h.Count() != 10_000 {
			t.Errorf("%s count = %d", name, h.Count())
		}
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := new(Histogram)
	// 0 and 1 land in dedicated single-value buckets, so their quantiles
	// are exact.
	for i := 0; i < 10; i++ {
		h.Observe(0)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1)
	}
	if got := h.Quantile(0.25); got != 0 {
		t.Fatalf("q25 = %v, want 0", got)
	}
	if got := h.Quantile(0.99); got != 1 {
		t.Fatalf("q99 = %v, want 1", got)
	}
	if h.Sum() != 10 {
		t.Fatalf("sum = %d, want 10", h.Sum())
	}
}

func TestBucketBounds(t *testing.T) {
	for i := 0; i < numBuckets; i++ {
		lo, hi := bucketLower(i), bucketUpper(i)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if bucketIndex(lo) != i {
			t.Fatalf("bucketIndex(lower(%d)) = %d", i, bucketIndex(lo))
		}
		if bucketIndex(hi) != i {
			t.Fatalf("bucketIndex(upper(%d)) = %d", i, bucketIndex(hi))
		}
	}
}

func TestSpanFeedsHistogram(t *testing.T) {
	h := new(Histogram)
	d := StartSpan(h).End()
	if d < 0 {
		t.Fatalf("duration %v < 0", d)
	}
	if h.Count() != 1 || h.Sum() != uint64(d) {
		t.Fatalf("histogram count %d sum %d, want 1 and %d", h.Count(), h.Sum(), d)
	}
}

func TestHistogramQuantilesMergesSeries(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("lat_ns", "", "ns", "lib")
	v.With("libA").Observe(10)
	v.With("libB").Observe(1000)
	vals, count, ok := r.HistogramQuantiles("lat_ns", 0, 1)
	if !ok || count != 2 {
		t.Fatalf("count = %d ok = %v", count, ok)
	}
	if vals[0] > 20 || vals[1] < 500 {
		t.Fatalf("merged quantiles = %v", vals)
	}
}
