package bench

import (
	"strings"
	"testing"
)

// TestRunRecovery smoke-runs the fault-free supervision benchmark and
// checks the report plumbing: all three workloads measured, sane
// factors, and every printed quantity through the record round trip.
func TestRunRecovery(t *testing.T) {
	rs, err := RunRecovery(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results, want 3", len(rs))
	}
	for _, r := range rs {
		if r.Unsupervised <= 0 || r.Supervised <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.Name, r)
		}
		if r.Factor <= 0 {
			t.Errorf("%s: factor = %v", r.Name, r.Factor)
		}
	}
	text := FormatRecovery(rs)
	for _, want := range []string{"empty", "read_one", "callback", "fault-free"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted report missing %q:\n%s", want, text)
		}
	}

	rec := roundTrip(t, RecoveryRecord(200, rs))
	if rec.Experiment != "recovery" || rec.Config["iters"] != "200" {
		t.Errorf("record header = %q, config %v", rec.Experiment, rec.Config)
	}
	for _, r := range rs {
		wantRow(t, rec, r.Name, "unsupervised_s", r.Unsupervised.Seconds())
		wantRow(t, rec, r.Name, "supervised_s", r.Supervised.Seconds())
		wantRow(t, rec, r.Name, "factor", r.Factor)
	}
}
