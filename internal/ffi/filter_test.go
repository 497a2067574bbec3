package ffi

import (
	"errors"
	"testing"

	"repro/internal/mpk"
)

// filterWorld assembles a runtime with a trusted "sys" library (one
// sensitive and one benign entry point) and an untrusted "evil" caller.
func filterWorld(t *testing.T) (*Runtime, *Registry, *Thread) {
	t.Helper()
	rt, reg := world(t, GatesOn)
	rt.SetGateCost(0)
	sys := reg.MustLibrary("sys", Trusted)
	sys.Define("getpid", func(*Thread, []uint64) ([]uint64, error) { return []uint64{42}, nil })
	sys.Define("chmod", func(*Thread, []uint64) ([]uint64, error) { return nil, nil })
	evil := reg.MustLibrary("evil", Untrusted)
	evil.Define("probe", func(th *Thread, args []uint64) ([]uint64, error) {
		return th.Call("sys", "chmod")
	})
	evil.Define("benign", func(th *Thread, args []uint64) ([]uint64, error) {
		return th.Call("sys", "getpid")
	})
	return rt, reg, rt.NewThread()
}

func TestCallFilterBlocksUnlistedReverseGateCalls(t *testing.T) {
	_, reg, th := filterWorld(t)
	reg.SetCallFilter(true)
	reg.Allow("evil", "sys", "getpid")

	if res, err := th.Call("evil", "benign"); err != nil || len(res) != 1 || res[0] != 42 {
		t.Fatalf("allow-listed call: res=%v err=%v", res, err)
	}
	if _, err := th.Call("evil", "probe"); !errors.Is(err, ErrCallFiltered) {
		t.Fatalf("unlisted call: err=%v, want ErrCallFiltered", err)
	}
	// A filtered call must leave no gate state behind: the thread is back
	// at depth 0 with full rights and the runtime is still alive.
	if th.Depth() != 0 {
		t.Errorf("Depth = %d after filtered call, want 0", th.Depth())
	}
	if th.rt.Aborted() {
		t.Error("runtime aborted by a filtered call")
	}
	if got := th.VM.Rights(); got != mpk.PermitAll {
		t.Errorf("rights = %v after filtered call, want PermitAll", got)
	}
}

func TestCallFilterScope(t *testing.T) {
	rt, reg, th := filterWorld(t)
	reg.SetCallFilter(true)
	// No allow-list entry at all: every untrusted→trusted call is refused.
	if _, err := th.Call("evil", "benign"); !errors.Is(err, ErrCallFiltered) {
		t.Fatalf("unlisted caller: err=%v, want ErrCallFiltered", err)
	}
	// Trusted code is never filtered.
	if res, err := th.Call("sys", "getpid"); err != nil || res[0] != 42 {
		t.Fatalf("trusted caller filtered: res=%v err=%v", res, err)
	}
	// Untrusted→untrusted stays unfiltered: the filter guards trusted
	// entry points only, like seccomp guards the syscall boundary only.
	evil2 := reg.MustLibrary("evil2", Untrusted)
	evil2.Define("noop", func(*Thread, []uint64) ([]uint64, error) { return nil, nil })
	evil := reg.libs["evil"]
	evil.Define("peer", func(th *Thread, _ []uint64) ([]uint64, error) {
		return th.Call("evil2", "noop")
	})
	if _, err := th.Call("evil", "peer"); err != nil {
		t.Fatalf("untrusted→untrusted filtered: %v", err)
	}
	// Disarming restores open calling.
	reg.SetCallFilter(false)
	if reg.filterOn {
		t.Error("call filter still armed")
	}
	if _, err := th.Call("evil", "probe"); err != nil {
		t.Fatalf("call refused with filter off: %v", err)
	}
	_ = rt
}

func TestExitAuditAbortsEscalatedGateExit(t *testing.T) {
	rt, reg, th := filterWorld(t)
	rt.SetExitAudit(true)
	evil := reg.libs["evil"]
	evil.Define("widen", func(th *Thread, _ []uint64) ([]uint64, error) {
		th.VM.SetPKRU(uint32(mpk.PermitAll))
		return []uint64{7}, nil
	})
	_, err := th.Call("evil", "widen")
	if !errors.Is(err, ErrGateTampered) {
		t.Fatalf("err = %v, want ErrGateTampered", err)
	}
	if !rt.Aborted() {
		t.Error("runtime not aborted after exit-audit failure")
	}
	// The audit error must not mask a real callee error.
	rt2, reg2, th2 := filterWorld(t)
	rt2.SetExitAudit(true)
	reg2.libs["evil"].Define("widenfail", func(th *Thread, _ []uint64) ([]uint64, error) {
		th.VM.SetPKRU(uint32(mpk.PermitAll))
		return nil, errors.New("callee exploded")
	})
	if _, err := th2.Call("evil", "widenfail"); err == nil || errors.Is(err, ErrGateTampered) {
		t.Errorf("audit masked the callee error: %v", err)
	} else if !rt2.Aborted() {
		t.Error("runtime not aborted when audit trips alongside a callee error")
	}
}

func TestExitAuditPermitsNarrowingCallee(t *testing.T) {
	rt, reg, th := filterWorld(t)
	rt.SetExitAudit(true)
	evil := reg.libs["evil"]
	evil.Define("narrow", func(th *Thread, _ []uint64) ([]uint64, error) {
		// Dropping one's own rights is not an escalation; the gate restores
		// the caller's rights as usual.
		th.VM.SetRights(mpk.DenyAllExcept())
		return []uint64{1}, nil
	})
	if res, err := th.Call("evil", "narrow"); err != nil || res[0] != 1 {
		t.Fatalf("narrowing callee refused: res=%v err=%v", res, err)
	}
	if rt.Aborted() {
		t.Error("runtime aborted by a narrowing callee")
	}
	if got := th.VM.Rights(); got != mpk.PermitAll {
		t.Errorf("caller rights not restored: %v", got)
	}
	// Default-off: a widening callee is silently restored when the audit
	// is disarmed, the historical behavior.
	rt2, reg2, th2 := filterWorld(t)
	reg2.libs["evil"].Define("widen", func(th *Thread, _ []uint64) ([]uint64, error) {
		th.VM.SetPKRU(uint32(mpk.PermitAll))
		return []uint64{7}, nil
	})
	if _, err := th2.Call("evil", "widen"); err != nil {
		t.Fatalf("audit-off widening callee refused: %v", err)
	}
	if rt2.Aborted() {
		t.Error("audit-off runtime aborted")
	}
}
