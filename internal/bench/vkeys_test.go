package bench

import (
	"strings"
	"testing"
)

// TestRunVKeys smoke-runs the virtual-key benchmark: the resident
// scenario stays on its slots, the thrash scenario misses on every
// entry, and every printed quantity survives the record round trip.
func TestRunVKeys(t *testing.T) {
	const iters = 200
	rs, err := RunVKeys(iters)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Name != "resident" || rs[1].Name != "thrash" {
		t.Fatalf("scenarios = %+v", rs)
	}
	if rs[0].Evictions != 0 || rs[1].Evictions == 0 {
		t.Errorf("evictions: resident %d, thrash %d", rs[0].Evictions, rs[1].Evictions)
	}
	if !strings.Contains(FormatVKeys(rs), "slot-miss factor") {
		t.Errorf("format:\n%s", FormatVKeys(rs))
	}
	rec := roundTrip(t, VKeysRecord(iters, rs))
	for _, r := range rs {
		wantRow(t, rec, r.Name, "domains", float64(r.Domains))
		wantRow(t, rec, r.Name, "per_cycle_ns", float64(r.PerCycle))
		wantRow(t, rec, r.Name, "total_s", r.Total.Seconds())
		wantRow(t, rec, r.Name, "misses", float64(r.Misses))
		wantRow(t, rec, r.Name, "evictions", float64(r.Evictions))
	}
	wantRow(t, rec, "vkeys", "slot_miss_factor", VKeyMissFactor(rs))
}
