package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestObserveExStoresExemplar checks the basic contract: an ObserveEx with
// a trace ID publishes a per-bucket exemplar, a plain Observe (or an empty
// trace ID) leaves existing exemplars alone, and exemplars land in the
// bucket of their own value.
func TestObserveExStoresExemplar(t *testing.T) {
	h := new(Histogram)
	h.ObserveEx(100, "t1") // bucket 7 (64..127)
	h.ObserveEx(5000, "t2")
	h.Observe(100)       // no exemplar change
	h.ObserveEx(100, "") // empty ID: no exemplar change
	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("exemplars = %+v, want 2", ex)
	}
	if ex[0].TraceID != "t1" || ex[0].Value != 100 || ex[0].Bucket != bucketIndex(100) {
		t.Errorf("first exemplar = %+v", ex[0])
	}
	if ex[1].TraceID != "t2" || ex[1].Value != 5000 || ex[1].Bucket != bucketIndex(5000) {
		t.Errorf("second exemplar = %+v", ex[1])
	}
	// Last writer wins within a bucket, rewriting the bucket's exemplar
	// in place.
	h.ObserveEx(101, "t3")
	ex = h.Exemplars()
	if ex[0].TraceID != "t3" || ex[0].Value != 101 {
		t.Errorf("exemplar not overwritten: %+v", ex[0])
	}
	if n := testing.AllocsPerRun(100, func() { h.ObserveEx(102, "t4") }); n != 0 {
		t.Errorf("ObserveEx into a bucket with an exemplar: %v allocations, want 0", n)
	}
	// Nil histogram: all no-ops.
	var nilH *Histogram
	nilH.ObserveEx(1, "x")
	if nilH.Exemplars() != nil {
		t.Error("nil histogram returned exemplars")
	}
}

// TestHistogramVecExemplarConcurrent hammers one HistogramVec series from
// many goroutines mixing Observe and ObserveEx (run under -race in CI).
// Afterwards the counts must be exact and every surviving exemplar must be
// one observation's: racing writers on one bucket may overwrite each
// other but can never pair one writer's trace ID with another's value.
func TestHistogramVecExemplarConcurrent(t *testing.T) {
	r := NewRegistry()
	vec := r.HistogramVec("gate_latency_test_ns", "", "ns", "domain")
	const goroutines, each = 8, 1000
	ids := make([]string, 1024) // ids[v-1024] names the observation of v
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", 1024+i)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := vec.With("tenant-a")
			for i := 0; i < each; i++ {
				// Every writer shares bucket 11 ([1024, 2048)) but writes
				// its own values there; a few other buckets see traffic too.
				j := (g*each + i) % 1024
				switch {
				case i%2 == 0:
					h.ObserveEx(uint64(1024+j), ids[j])
				case i%3 == 0:
					h.ObserveEx(uint64(1+g), ids[j])
				default:
					h.Observe(uint64(1024 + j))
				}
			}
		}(g)
	}
	wg.Wait()

	h := vec.With("tenant-a")
	if got := h.Count(); got != goroutines*each {
		t.Fatalf("count = %d, want %d", got, goroutines*each)
	}
	ex := h.Exemplars()
	if len(ex) == 0 {
		t.Fatal("no exemplars survived")
	}
	for _, e := range ex {
		if e.TraceID == "" {
			t.Errorf("exemplar in bucket %d has empty trace ID", e.Bucket)
		}
		if bucketIndex(e.Value) != e.Bucket {
			t.Errorf("exemplar %+v: value belongs to bucket %d", e, bucketIndex(e.Value))
		}
		if e.Bucket == bucketIndex(1024) && e.TraceID != fmt.Sprintf("t%d", e.Value) {
			t.Errorf("torn exemplar %+v: trace ID of another observation", e)
		}
	}
}

// TestHistogramExemplarExposition checks the rendered formats: the
// Prometheus _bucket line carries an OpenMetrics-style exemplar suffix
// after the value, the in-repo parser still reads the bucket count
// (the value precedes the '#'), and the JSON snapshot carries the same
// exemplars.
func TestHistogramExemplarExposition(t *testing.T) {
	r := NewRegistry()
	vec := r.HistogramVec("gate_latency_ns", "Gate latency.", "ns", "domain")
	vec.With("libu").ObserveEx(100, "trace-42")
	vec.With("libu").Observe(3)

	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	wantLine := `gate_latency_ns_bucket{domain="libu",le="127"} 2 # {trace_id="trace-42"} 100`
	if !strings.Contains(out.String(), wantLine) {
		t.Errorf("exposition missing exemplar line %q; got:\n%s", wantLine, out.String())
	}

	// The suffix must not confuse the parser: bucket values still parse.
	var cum float64
	for _, s := range parsePrometheus(t, out.String()) {
		if s.name == "gate_latency_ns_bucket" && s.labels["le"] == "127" {
			cum = s.value
		}
	}
	if cum != 2 {
		t.Errorf("cumulative bucket through 127 parsed as %v, want 2", cum)
	}

	snap := r.Snapshot()
	var found bool
	for _, m := range snap.Metrics {
		if m.Name != "gate_latency_ns" {
			continue
		}
		for _, s := range m.Series {
			for _, e := range s.Exemplars {
				if e.TraceID == "trace-42" && e.Value == 100 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("snapshot missing exemplar trace-42")
	}
}

// TestHistogramVecHostileTenantLabels round-trips histogram label values
// containing every escaped character through the exposition format —
// tenant names arrive from the outside world, so a tenant called
// `evil"} 9` must not be able to forge samples or break parsing — and
// checks exemplar trace IDs are escaped by the same rules.
func TestHistogramVecHostileTenantLabels(t *testing.T) {
	hostile := []string{
		`tenant"quoted`,
		`tenant\slashed`,
		"tenant\nnewline",
		`evil"} 9`,
		`le="999"} 1 # forged`,
	}
	r := NewRegistry()
	vec := r.HistogramVec("req_latency_ns", "", "ns", "tenant")
	for i, tenant := range hostile {
		vec.With(tenant).ObserveEx(uint64(10*(i+1)), `trace"with\hostile`+"\n"+`chars`)
	}

	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "req_latency_ns") {
			t.Errorf("hostile label broke a sample across lines: %q", line)
		}
	}

	seen := map[string]bool{}
	for _, s := range parsePrometheus(t, out.String()) {
		if s.name == "req_latency_ns_count" {
			seen[s.labels["tenant"]] = s.value == 1
		}
	}
	for _, tenant := range hostile {
		if !seen[tenant] {
			t.Errorf("tenant %q did not round-trip (parsed tenants: %v)", tenant, seen)
		}
	}
}
