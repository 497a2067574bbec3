package attack

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mpk"
	"repro/internal/sig"
	"repro/internal/vm"
)

// TestDrillMatrix is the corpus's core contract: every scenario breaches
// with its defense down and dies with exactly the expected fault with the
// defense up.
func TestDrillMatrix(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name+"/red", func(t *testing.T) {
			r := RunDrill(s, false)
			if r.Err != "" {
				t.Fatalf("harness error: %s", r.Err)
			}
			if !r.Breached {
				t.Fatalf("red drill did not breach — the scenario no longer exercises the attack: %s (%s)", r.Verdict(), r.Detail)
			}
			if !r.Pass {
				t.Fatalf("red drill failed: %s (%s)", r.Verdict(), r.Detail)
			}
		})
		t.Run(s.Name+"/green", func(t *testing.T) {
			r := RunDrill(s, true)
			if r.Err != "" {
				t.Fatalf("harness error: %s", r.Err)
			}
			if r.Breached {
				t.Fatalf("attack breached with the defense on: %s (%s)", r.Verdict(), r.Detail)
			}
			if r.Fault != s.ExpectFault {
				t.Fatalf("attack died with %q, want %q — something other than the defense under test stopped it: %s",
					r.Fault, s.ExpectFault, r.Detail)
			}
			if !r.Pass {
				t.Fatalf("green drill failed: %s (%s)", r.Verdict(), r.Detail)
			}
		})
	}
}

// TestRosterCoversRequiredClasses pins the attack classes the corpus must
// keep exercising; removing one is a silent coverage regression.
func TestRosterCoversRequiredClasses(t *testing.T) {
	required := []string{
		"rogue-wrpkru", "sigframe-tamper", "stale-pkru",
		"retag-race", "gate-bypass", "confused-deputy",
	}
	have := make(map[string]bool)
	for _, s := range Scenarios() {
		have[s.Class] = true
	}
	for _, c := range required {
		if !have[c] {
			t.Errorf("attack class %q missing from the roster", c)
		}
	}
}

// TestRunAllShape: RunAll emits exactly red-then-green per scenario, in
// roster order — the contract the CLI golden test builds on.
func TestRunAllShape(t *testing.T) {
	rs := RunAll()
	ss := Scenarios()
	if len(rs) != 2*len(ss) {
		t.Fatalf("RunAll returned %d results, want %d", len(rs), 2*len(ss))
	}
	for i, s := range ss {
		red, green := rs[2*i], rs[2*i+1]
		if red.Scenario != s.Name || red.Drill != "red" || red.DefenseOn {
			t.Errorf("result %d: want red drill of %s, got %+v", 2*i, s.Name, red)
		}
		if green.Scenario != s.Name || green.Drill != "green" || !green.DefenseOn {
			t.Errorf("result %d: want green drill of %s, got %+v", 2*i+1, s.Name, green)
		}
	}
	if n := failures(rs); n != 0 {
		t.Errorf("Failures = %d, want 0", n)
	}
}

func TestVerdictLine(t *testing.T) {
	r := DrillResult{
		Scenario: "rogue-wrpkru", Class: "rogue-wrpkru", Defense: "wrpkru-guard",
		Drill: "green", DefenseOn: true, Breached: false, Fault: FaultPKU, Pass: true,
	}
	want := "ATTACK class=rogue-wrpkru scenario=rogue-wrpkru defense=wrpkru-guard drill=green defense-mode=on breached=no fault=pkuerr verdict=PASS"
	if got := r.Verdict(); got != want {
		t.Fatalf("Verdict() = %q, want %q", got, want)
	}
	r.Pass, r.DefenseOn, r.Drill, r.Breached, r.Fault = false, false, "red", true, FaultNone
	line := r.Verdict()
	for _, frag := range []string{"drill=red", "defense-mode=off", "breached=yes", "fault=none", "verdict=FAIL"} {
		if !strings.Contains(line, frag) {
			t.Errorf("Verdict() = %q, missing %q", line, frag)
		}
	}
}

// TestHarnessDetectsBrokenDrills is the self-check: a drill harness that
// cannot flag a dud red drill or a leaking green drill proves nothing.
func TestHarnessDetectsBrokenDrills(t *testing.T) {
	mk := func(out Outcome, err error) Scenario {
		return Scenario{Name: "stub", Class: "stub", Defense: "stub", ExpectFault: FaultPKU,
			Run: func(bool) (Outcome, error) { return out, err }}
	}
	// A red drill whose attack fizzled (no breach) must FAIL.
	if r := RunDrill(mk(Outcome{Fault: FaultPKU}, nil), false); r.Pass {
		t.Error("red drill passed without observing a breach")
	}
	// A green drill that still breached must FAIL, whatever the fault says.
	if r := RunDrill(mk(Outcome{Breached: true, Fault: FaultPKU}, nil), true); r.Pass {
		t.Error("green drill passed despite a breach")
	}
	// A green drill stopped by the wrong mechanism must FAIL.
	if r := RunDrill(mk(Outcome{Fault: FaultMap}, nil), true); r.Pass {
		t.Error("green drill passed with the wrong fault")
	}
	// A harness malfunction must FAIL both drills.
	boom := errors.New("setup exploded")
	if r := RunDrill(mk(Outcome{Breached: true}, boom), false); r.Pass || r.Err == "" {
		t.Error("red drill swallowed a harness error")
	}
	if r := RunDrill(mk(Outcome{Fault: FaultPKU}, boom), true); r.Pass || r.Err == "" {
		t.Error("green drill swallowed a harness error")
	}
	if n := failures([]DrillResult{{Pass: true}, {Pass: false}, {Pass: false}}); n != 2 {
		t.Errorf("Failures = %d, want 2", n)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, FaultNone},
		{&vm.Fault{Info: sig.Info{Sig: sig.SIGSEGV, Code: sig.CodePKUErr}}, FaultPKU},
		{fmt.Errorf("wrapped: %w", &vm.Fault{Info: sig.Info{Sig: sig.SIGSEGV, Code: sig.CodeMapErr}}), FaultMap},
		{errors.New("mystery"), FaultError},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// sigWorld builds the bare-VM fixture the sigframe variants share: one
// trusted page holding a secret, a thread confined to key 0, and hostile
// SIGSEGV/SIGTRAP handlers that widen rights and (optionally) arm the
// single-step trap to mimic the profiler's grant.
func sigWorld(t *testing.T, armTrap bool) (*vm.Thread, vm.Addr, mpk.PKRU) {
	t.Helper()
	space := vm.NewSpace()
	const secretAddr vm.Addr = 0x4000_0000
	if _, err := space.Reserve("mt", secretAddr, vm.PageSize, 1); err != nil {
		t.Fatal(err)
	}
	sigs := new(sig.Table)
	th := vm.NewThread(space, sigs)
	if err := th.Store64(secretAddr, 77); err != nil {
		t.Fatal(err)
	}
	untrusted := mpk.DenyAllExcept(0)
	th.SetRights(untrusted)
	sigs.Register(sig.SIGSEGV, sig.HandlerFunc(func(info *sig.Info, ctx sig.Context) sig.Action {
		ctx.SetPKRU(uint32(mpk.PermitAll))
		if armTrap {
			ctx.SetTrapFlag(true)
		}
		return sig.Handled
	}))
	sigs.Register(sig.SIGTRAP, sig.HandlerFunc(func(info *sig.Info, ctx sig.Context) sig.Action {
		// A covenant-honoring profiler would restore the pre-grant rights
		// here; the attacker keeps the widened PKRU and hopes it sticks.
		ctx.SetTrapFlag(false)
		return sig.Handled
	}))
	return th, secretAddr, untrusted
}

// TestSigProfilingGrantClampsAtRetirement: the trap-evasion variant.
// Under SigProfiling an attacker may mimic the profiler — widen AND arm
// the trap — and the covenant grants exactly one stepped access; what it
// must never yield is a persistent escalation: at trap retirement the
// rights are audited against the pre-grant baseline and clamped.
func TestSigProfilingGrantClampsAtRetirement(t *testing.T) {
	th, secretAddr, untrusted := sigWorld(t, true)
	th.SetSigPolicy(vm.SigProfiling)
	v, err := th.Load64(secretAddr)
	if err != nil || v != 77 {
		t.Fatalf("covenant grant should permit the single stepped access: v=%d err=%v", v, err)
	}
	if got := th.Rights(); got != untrusted {
		t.Fatalf("escalation survived trap retirement: rights=%v, want %v", got, untrusted)
	}
	st := th.Stats()
	if st.SigClamped != 1 {
		t.Errorf("SigClamped = %d, want 1 (the retirement clamp)", st.SigClamped)
	}
	if st.Traps != 1 {
		t.Errorf("Traps = %d, want 1", st.Traps)
	}
}

// TestSigStrictClampsTrapArmedGrant: under SigStrict even the profiler
// pattern is refused — every handler escalation is clamped, the retried
// access keeps faulting, and the access dies a terminal PKUERR.
func TestSigStrictClampsTrapArmedGrant(t *testing.T) {
	th, secretAddr, untrusted := sigWorld(t, true)
	th.SetSigPolicy(vm.SigStrict)
	_, err := th.Load64(secretAddr)
	var f *vm.Fault
	if !errors.As(err, &f) || f.Info.Code != sig.CodePKUErr {
		t.Fatalf("want terminal PKUERR, got %v", err)
	}
	if got := th.Rights(); got != untrusted {
		t.Fatalf("rights drifted under SigStrict: %v", got)
	}
	if st := th.Stats(); st.SigClamped != vm.MaxFaultRetries {
		t.Errorf("SigClamped = %d, want %d (one per retried repair)", st.SigClamped, vm.MaxFaultRetries)
	}
}

// TestSigOpenPreservesHistoricalBehavior pins the default: with no policy
// set, a handler-widened PKRU stands and the retried access succeeds —
// exactly the semantics every pre-existing repair-handler test relies on.
func TestSigOpenPreservesHistoricalBehavior(t *testing.T) {
	th, secretAddr, _ := sigWorld(t, false)
	if p := th.SigPolicyValue(); p != vm.SigOpen {
		t.Fatalf("default policy = %v, want %v", p, vm.SigOpen)
	}
	v, err := th.Load64(secretAddr)
	if err != nil || v != 77 {
		t.Fatalf("SigOpen should honor the handler's PKRU: v=%d err=%v", v, err)
	}
	if st := th.Stats(); st.SigClamped != 0 {
		t.Errorf("SigClamped = %d, want 0 under SigOpen", st.SigClamped)
	}
}

// failures counts the drills in rs that did not pass.
func failures(rs []DrillResult) int {
	n := 0
	for _, r := range rs {
		if !r.Pass {
			n++
		}
	}
	return n
}
