package profstore

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestRolloutAssignDeterministicSplit(t *testing.T) {
	store := New()
	r := NewRollout(store, 0.5, nil)
	r.SetCandidate(store.Commit(deltaOf(site("a", 0, 0)), "heal").Seq)
	got := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		got = append(got, r.Assign())
	}
	want := []string{ArmControl, ArmShadow, ArmControl, ArmShadow}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignment = %v, want %v", got, want)
		}
	}
}

func TestRolloutAssignIdleIsControl(t *testing.T) {
	r := NewRollout(New(), 1.0, nil)
	if arm := r.Assign(); arm != ArmControl {
		t.Fatalf("idle rollout assigned %q", arm)
	}
}

func TestRolloutFractionClamp(t *testing.T) {
	if f := NewRollout(New(), -2, nil).frac; f != 0 {
		t.Fatalf("fraction = %v, want clamp to 0", f)
	}
	if f := NewRollout(New(), 7, nil).frac; f != 1 {
		t.Fatalf("fraction = %v, want clamp to 1", f)
	}
}

func TestRolloutPromotes(t *testing.T) {
	store := New()
	reg := telemetry.NewRegistry()
	store.SetTelemetry(reg)
	r := NewRollout(store, 0.5, reg)
	cand := store.Commit(deltaOf(site("a", 0, 0)), "heal")
	r.SetCandidate(cand.Seq)

	// Control faults once (the pre-heal profile crashing), shadow is clean.
	r.Record(r.Assign(), true)
	r.Record(r.Assign(), false)
	r.Record(r.Assign(), false)
	r.Record(r.Assign(), false)

	dec, err := r.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Promote || dec.Candidate != cand.Seq {
		t.Fatalf("decision = %+v, want promote of %d", dec, cand.Seq)
	}
	if dec.Control.Requests != 2 || dec.Control.Faults != 1 || dec.Shadow.Requests != 2 || dec.Shadow.Faults != 0 {
		t.Fatalf("arm stats = control %+v shadow %+v", dec.Control, dec.Shadow)
	}
	if store.ActiveSeq() != cand.Seq {
		t.Fatalf("store active = %d after promotion, want %d", store.ActiveSeq(), cand.Seq)
	}
	st := r.Status()
	if st.Schema != RolloutSchema || st.State != StatePromoted || st.Active != cand.Seq {
		t.Fatalf("status = %+v", st)
	}
	snap := reg.Snapshot()
	var buf strings.Builder
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pkrusafe_profile_shadow_requests_total") {
		t.Fatal("snapshot missing shadow request counters")
	}
}

func TestRolloutRollsBackOnRegression(t *testing.T) {
	store := New()
	r := NewRollout(store, 0.5, nil)
	cand := store.Commit(deltaOf(site("a", 0, 0)), "heal")
	r.SetCandidate(cand.Seq)

	r.Record(ArmControl, false)
	r.Record(ArmShadow, true) // candidate makes things worse

	dec, err := r.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Promote {
		t.Fatalf("regressing candidate promoted: %+v", dec)
	}
	if store.ActiveSeq() != 0 {
		t.Fatalf("store active = %d after rollback, want 0", store.ActiveSeq())
	}
	if st := r.Status(); st.State != StateRolledBack {
		t.Fatalf("state = %q, want %q", st.State, StateRolledBack)
	}
}

func TestRolloutNoShadowTrafficHolds(t *testing.T) {
	store := New()
	r := NewRollout(store, 0.5, nil)
	r.SetCandidate(store.Commit(deltaOf(site("a", 0, 0)), "heal").Seq)
	r.Record(ArmControl, false)
	dec, err := r.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Promote {
		t.Fatal("promoted with zero shadow requests")
	}
}

func TestRolloutDecideRequiresShadowing(t *testing.T) {
	r := NewRollout(New(), 0.5, nil)
	if _, err := r.Decide(); err == nil {
		t.Fatal("Decide succeeded in idle state")
	}
}

func TestRolloutArmFaultRate(t *testing.T) {
	if got := (ArmStats{}).FaultRate(); got != 0 {
		t.Fatalf("empty arm fault rate = %v", got)
	}
	if got := (ArmStats{Requests: 4, Faults: 1}).FaultRate(); got != 0.25 {
		t.Fatalf("fault rate = %v, want 0.25", got)
	}
}
