package bench

import (
	"strings"
	"testing"
)

// TestRunProfiling smoke-runs the crossing-sampler benchmark and checks
// the report plumbing: both workloads measured, the sampler really
// attributed the site-tracked buffer, and every printed quantity through
// the record round trip.
func TestRunProfiling(t *testing.T) {
	rs, stats, err := RunProfiling(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d results, want 2", len(rs))
	}
	for _, r := range rs {
		if r.Unsampled <= 0 || r.Sampled <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.Name, r)
		}
		if r.Factor <= 0 {
			t.Errorf("%s: factor = %v", r.Name, r.Factor)
		}
	}
	if stats.Crossings == 0 {
		t.Error("sampler observed no crossings")
	}
	if len(stats.Sites) != 1 || stats.Sites[0] != "micro::shared@0.0" {
		t.Errorf("attributed sites = %v, want [micro::shared@0.0]", stats.Sites)
	}
	text := FormatProfiling(rs, stats)
	for _, want := range []string{"empty", "read_one", "sampled", "micro::shared@0.0"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted report missing %q:\n%s", want, text)
		}
	}

	rec := roundTrip(t, ProfilingRecord(200, rs, stats))
	if rec.Experiment != "profiling" || rec.Config["iters"] != "200" || rec.Config["sites"] != "micro::shared@0.0" {
		t.Errorf("record header = %q, config %v", rec.Experiment, rec.Config)
	}
	for _, r := range rs {
		wantRow(t, rec, r.Name, "unsampled_s", r.Unsampled.Seconds())
		wantRow(t, rec, r.Name, "sampled_s", r.Sampled.Seconds())
		wantRow(t, rec, r.Name, "factor", r.Factor)
	}
	wantRow(t, rec, "profiling", "crossings", float64(stats.Crossings))
}
