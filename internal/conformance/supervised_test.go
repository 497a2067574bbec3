package conformance

import (
	"reflect"
	"testing"

	"repro/internal/mpk"
	"repro/internal/supervise"
)

// TestSupervisedGateDrill is the drill pkru-conform -supervised runs: the
// directed trace's supervised calls recover under every policy (a
// recovered retry, a heal, a quarantine) with the model and the real
// stack agreeing on PKRU, gate depth, the recovery record and the page
// key map, and the planted recovery that skips the PKRU restore is
// caught.
func TestSupervisedGateDrill(t *testing.T) {
	tr := DirectedTrace()
	res := Run(tr, Options{})
	for _, d := range res.Divergences {
		t.Errorf("divergence: %v", d)
	}
	if res.Recovered[supervise.Retry] == 0 || res.Recovered[supervise.Heal] == 0 || res.Recovery["quarantine"] == 0 {
		t.Errorf("recovery not exercised: recovered %v, actions %v", res.Recovered, res.Recovery)
	}
	if len(Run(tr, Options{Inject: InjectSkipRecoveryRestore}).Divergences) == 0 {
		t.Error("planted skip-recovery-restore not detected")
	}
}

// TestSupervisedGatePerPolicy makes one supervised store from U into an
// MT object per policy and pins what each recovery did; the attempt
// counts and action lists are diffed against the model on the way.
func TestSupervisedGatePerPolicy(t *testing.T) {
	cases := []struct {
		policy    supervise.Policy
		flags     uint8
		kind      OutcomeKind
		recovery  map[string]int
		recovered int
	}{
		{supervise.Abort, 0, FaultPKU, map[string]int{}, 0},
		{supervise.Retry, FlagFlaky, OK, map[string]int{"retry": 1}, 1},
		{supervise.Retry, 0, FaultPKU, map[string]int{"retry": supervise.MaxRetries}, 0},
		{supervise.Quarantine, 0, FaultPKU, map[string]int{"quarantine": 1}, 0},
		{supervise.Heal, 0, OK, map[string]int{"heal": 1}, 1},
	}
	for _, c := range cases {
		res := Run(Trace{Ops: []Op{
			{Kind: OpAlloc, Size: 4096},
			{Kind: OpAlloc, Slot: 1, Size: 64, Flags: FlagUntrusted},
			{Kind: OpSupervisedCall, Size: 8, Flags: FlagWrite | c.flags, Key: mpk.Key(c.policy)},
			{Kind: OpLoad, Slot: 1, Size: 8}, // skipped once MU is quarantined
		}}, Options{})
		for _, d := range res.Divergences {
			t.Errorf("%v: divergence: %v", c.policy, d)
		}
		if res.Counts[c.kind] == 0 {
			t.Errorf("%v: no %v outcome: %v", c.policy, c.kind, res.Counts)
		}
		if !reflect.DeepEqual(res.Recovery, c.recovery) || res.Recovered[c.policy] != c.recovered {
			t.Errorf("%v: actions %v recovered %d, want %v and %d", c.policy, res.Recovery, res.Recovered[c.policy], c.recovery, c.recovered)
		}
		if quarantined := res.Skipped == 1; quarantined != (c.policy == supervise.Quarantine) {
			t.Errorf("%v: MU slot dropped = %v", c.policy, quarantined)
		}
	}
}

// TestSupervisedGatePlantedBugCaught: a recovery that resumes trusted
// code without restoring PKRU is flagged on the very supervised call
// that recovered, as a register divergence.
func TestSupervisedGatePlantedBugCaught(t *testing.T) {
	tr := Trace{Ops: []Op{
		{Kind: OpAlloc, Size: 64},
		{Kind: OpSupervisedCall, Size: 8, Flags: FlagFlaky, Key: mpk.Key(supervise.Retry)},
	}}
	res := Run(tr, Options{Inject: InjectSkipRecoveryRestore})
	if len(res.Divergences) == 0 {
		t.Fatal("planted skip-recovery-restore not detected")
	}
	if d := res.Divergences[0]; d.Index != 1 || d.What != "pkru" {
		t.Errorf("first divergence %v, want a pkru divergence at op 1", d)
	}
}
