package conformance

import "testing"

// TestDrillVKeys is the virtual-key drill pkru-conform -vkeys runs: the
// N-tenant sweep must replay divergence-free while actually
// multiplexing — more tenants than slots, evictions, a recycled slot —
// and the planted stale-slot-after-eviction bug must be caught.
func TestDrillVKeys(t *testing.T) {
	tr := VKeySweep(VKeySlots + 3)
	res := Run(tr, Options{})
	for _, d := range res.Divergences {
		t.Errorf("divergence: %v", d)
	}
	if res.Skipped != 0 {
		t.Errorf("Skipped = %d, want 0 (the sweep is fully live)", res.Skipped)
	}
	if st := res.VKeyStats; st.Evictions == 0 || st.Recycled == 0 {
		t.Errorf("no multiplexing evidence: %+v", st)
	}
	if n := len(Run(tr, Options{Inject: InjectStaleSlot}).Divergences); n == 0 {
		t.Error("planted stale-slot-eviction not detected")
	}
}

func TestVKeyDrillScalesPastSlots(t *testing.T) {
	res := Run(VKeySweep(40), Options{})
	if len(res.Divergences) != 0 {
		t.Fatalf("divergences at 40 tenants: %v", res.Divergences[0])
	}
	if st := res.VKeyStats; st.Evictions == 0 || st.SlotMisses == 0 || st.Recycled == 0 {
		t.Fatalf("no multiplexing activity: %+v", st)
	}
	// 40 tenants each probe 39 neighbours, the MU and MT allocations and
	// their own page, twice.
	if got, want := res.Trace.Count(OpLoad), 2*40*(39+3); got != want {
		t.Errorf("probes = %d, want %d", got, want)
	}
}
