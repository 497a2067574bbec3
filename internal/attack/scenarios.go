package attack

import (
	"fmt"

	"repro/internal/ffi"
	"repro/internal/mpk"
	"repro/internal/pkalloc"
	"repro/internal/sig"
	"repro/internal/vkey"
	"repro/internal/vm"
)

// Scenarios returns the attack roster in canonical order. Every entry is
// built fresh on each Run, so drills are independent and deterministic.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "rogue-wrpkru",
			Class:       "rogue-wrpkru",
			Defense:     "wrpkru-guard",
			ExpectFault: FaultPKU,
			Run:         rogueWRPKRU,
		},
		{
			Name:        "exit-exfil",
			Class:       "rogue-wrpkru",
			Defense:     "gate-exit-audit",
			ExpectFault: FaultGateTampered,
			Run:         exitExfil,
		},
		{
			Name:        "sigframe-tamper",
			Class:       "sigframe-tamper",
			Defense:     "sigframe-sanitizer",
			ExpectFault: FaultPKU,
			Run:         sigframeTamper,
		},
		{
			Name:        "migration-stale-pkru",
			Class:       "stale-pkru",
			Defense:     "migration-revalidation",
			ExpectFault: FaultPKU,
			Run:         migrationStalePKRU,
		},
		{
			Name:        "evict-retag-race",
			Class:       "retag-race",
			Defense:     "atomic-evict-retag",
			ExpectFault: FaultPKU,
			Run:         evictRetagRace,
		},
		{
			Name:        "slot-reuse",
			Class:       "retag-race",
			Defense:     "free-park-revoke",
			ExpectFault: FaultPKU,
			Run:         slotReuse,
		},
		{
			Name:        "gate-exit-skip",
			Class:       "gate-bypass",
			Defense:     "gate-instrumentation",
			ExpectFault: FaultPKU,
			Run:         gateExitSkip,
		},
		{
			Name:        "confused-deputy",
			Class:       "confused-deputy",
			Defense:     "call-filter",
			ExpectFault: FaultFiltered,
			Run:         confusedDeputy,
		},
	}
}

// secretValue is the word every scenario plants in trusted memory; an
// attack that reads or clobbers it has breached the compartment model.
const secretValue uint64 = 0x5ec2e7

// ffiWorld is the standard two-compartment program the FFI scenarios
// attack: a trusted heap holding one secret word, a registry, a runtime,
// and one thread, freshly assembled per drill.
type ffiWorld struct {
	space  *vm.Space
	alloc  *pkalloc.Allocator
	sigs   *sig.Table
	reg    *ffi.Registry
	rt     *ffi.Runtime
	th     *ffi.Thread
	secret vm.Addr
}

func newFFIWorld(mode ffi.GateMode) (*ffiWorld, error) {
	space := vm.NewSpace()
	alloc, err := pkalloc.New(pkalloc.Config{Space: space})
	if err != nil {
		return nil, err
	}
	sigs := new(sig.Table)
	reg := ffi.NewRegistry()
	rt := ffi.NewRuntime(reg, alloc, sigs, mode)
	rt.SetGateCost(0)
	th := rt.NewThread()
	secret, err := alloc.Alloc(8)
	if err != nil {
		return nil, err
	}
	if err := th.VM.Store64(secret, secretValue); err != nil {
		return nil, err
	}
	return &ffiWorld{space: space, alloc: alloc, sigs: sigs, reg: reg, rt: rt, th: th, secret: secret}, nil
}

// rogueWRPKRU: untrusted native code executes its own WRPKRU with a
// permissive operand — no gate, no vulnerability needed, just the fact
// that WRPKRU is an unprivileged instruction — then reads the trusted
// secret. Defense: the thread's WRPKRU guard, which suppresses rights-
// widening writes outside a gate's privileged bracket.
func rogueWRPKRU(defenseOn bool) (Outcome, error) {
	w, err := newFFIWorld(ffi.GatesOn)
	if err != nil {
		return Outcome{}, err
	}
	evil := w.reg.MustLibrary("evil", ffi.Untrusted)
	evil.Define("smash", func(t *ffi.Thread, _ []uint64) ([]uint64, error) {
		t.VM.SetPKRU(uint32(mpk.PermitAll))
		v, err := t.Load64(w.secret)
		if err != nil {
			return nil, err
		}
		return []uint64{v}, nil
	})
	if defenseOn {
		w.th.VM.SetPKRUGuard(true)
	}
	res, err := w.th.Call("evil", "smash")
	if err == nil && len(res) == 1 && res[0] == secretValue {
		return Outcome{Breached: true, Fault: FaultNone,
			Detail: "untrusted code widened its own PKRU and read the MT secret"}, nil
	}
	return Outcome{Fault: classify(err),
		Detail: fmt.Sprintf("rogue WRPKRUs suppressed=%d", w.th.VM.Stats().RoguePKRU)}, nil
}

// exitExfil: the callee widens its PKRU, copies the secret into an MU
// mailbox both compartments can read, and returns — counting on the gate
// exit to silently restore the caller's rights and erase the evidence. A
// second call collects the loot from the mailbox. Defense: the gate-exit
// audit, which checks the rights the callee left behind against the
// rights the gate installed and aborts on escalation, before the loot can
// be consumed.
func exitExfil(defenseOn bool) (Outcome, error) {
	w, err := newFFIWorld(ffi.GatesOn)
	if err != nil {
		return Outcome{}, err
	}
	mailbox, err := w.alloc.UntrustedAlloc(8)
	if err != nil {
		return Outcome{}, err
	}
	evil := w.reg.MustLibrary("evil", ffi.Untrusted)
	evil.Define("exfil", func(t *ffi.Thread, _ []uint64) ([]uint64, error) {
		t.VM.SetPKRU(uint32(mpk.PermitAll))
		v, err := t.Load64(w.secret)
		if err != nil {
			return nil, err
		}
		return nil, t.Store64(mailbox, v)
	})
	evil.Define("consume", func(t *ffi.Thread, _ []uint64) ([]uint64, error) {
		v, err := t.Load64(mailbox)
		if err != nil {
			return nil, err
		}
		return []uint64{v}, nil
	})
	if defenseOn {
		w.rt.SetExitAudit(true)
	}
	_, xerr := w.th.Call("evil", "exfil")
	res, cerr := w.th.Call("evil", "consume")
	if cerr == nil && len(res) == 1 && res[0] == secretValue {
		return Outcome{Breached: true, Fault: classify(xerr),
			Detail: "secret exfiltrated through the MU mailbox and consumed"}, nil
	}
	fault := classify(xerr)
	if fault == FaultNone {
		fault = classify(cerr)
	}
	return Outcome{Fault: fault,
		Detail: fmt.Sprintf("exfil: %v; consume: %v", xerr, cerr)}, nil
}

// sigframeTamper: a hostile SIGSEGV handler rewrites the saved PKRU in
// the signal frame to all-permissive and returns — the kernel's sigreturn
// installs attacker-controlled uc_mcontext bytes, so the faulting access
// retries with full rights. Defense: the signal-frame sanitizer under the
// profiling policy, which clamps any escalation a handler "restores"
// unless it follows the profiler's grant-step-restore covenant.
func sigframeTamper(defenseOn bool) (Outcome, error) {
	w, err := newFFIWorld(ffi.GatesOn)
	if err != nil {
		return Outcome{}, err
	}
	w.sigs.Register(sig.SIGSEGV, sig.HandlerFunc(func(info *sig.Info, ctx sig.Context) sig.Action {
		if info.Code != sig.CodePKUErr {
			return sig.Unhandled
		}
		ctx.SetPKRU(uint32(mpk.PermitAll))
		return sig.Handled
	}))
	evil := w.reg.MustLibrary("evil", ffi.Untrusted)
	evil.Define("reader", func(t *ffi.Thread, _ []uint64) ([]uint64, error) {
		v, err := t.Load64(w.secret)
		if err != nil {
			return nil, err
		}
		return []uint64{v}, nil
	})
	if defenseOn {
		w.th.VM.SetSigPolicy(vm.SigProfiling)
	}
	res, err := w.th.Call("evil", "reader")
	if err == nil && len(res) == 1 && res[0] == secretValue {
		return Outcome{Breached: true, Fault: FaultNone,
			Detail: "handler-widened PKRU survived sigreturn; retried access read the secret"}, nil
	}
	return Outcome{Fault: classify(err),
		Detail: fmt.Sprintf("sigframe escalations clamped=%d", w.th.VM.Stats().SigClamped)}, nil
}

// gateExitSkip: untrusted code jumps directly to a trusted function that
// was never instrumented with a gate, so the callee runs on the caller's
// PKRU. The red drill models the uninstrumented build (gates off — every
// compartment already runs with full rights); the defense is the gate
// instrumentation itself: with gates on, the uninstrumented callee
// inherits untrusted rights and faults the moment it touches MT.
func gateExitSkip(defenseOn bool) (Outcome, error) {
	mode := ffi.GatesOff
	if defenseOn {
		mode = ffi.GatesOn
	}
	w, err := newFFIWorld(mode)
	if err != nil {
		return Outcome{}, err
	}
	sys := w.reg.MustLibrary("sys", ffi.Trusted)
	sys.Define("peek", func(t *ffi.Thread, _ []uint64) ([]uint64, error) {
		v, err := t.Load64(w.secret)
		if err != nil {
			return nil, err
		}
		return []uint64{v}, nil
	})
	evil := w.reg.MustLibrary("evil", ffi.Untrusted)
	evil.Define("jump", func(t *ffi.Thread, _ []uint64) ([]uint64, error) {
		return t.CallNoGate("sys", "peek")
	})
	res, err := w.th.Call("evil", "jump")
	if err == nil && len(res) == 1 && res[0] == secretValue {
		return Outcome{Breached: true, Fault: FaultNone,
			Detail: "uninstrumented trusted callee read the secret on the caller's rights"}, nil
	}
	return Outcome{Fault: classify(err), Detail: fmt.Sprintf("jump: %v", err)}, nil
}

// confusedDeputy: untrusted code never touches MT itself — it asks a
// legitimate trusted entry point to clobber the secret on its behalf,
// through the fully instrumented reverse gate. Rights enforcement cannot
// stop this; the defense is the registry's call filter, the seccomp
// analogue: an allow-list over untrusted→trusted reverse-gate calls.
func confusedDeputy(defenseOn bool) (Outcome, error) {
	w, err := newFFIWorld(ffi.GatesOn)
	if err != nil {
		return Outcome{}, err
	}
	sys := w.reg.MustLibrary("sys", ffi.Trusted)
	sys.Define("write_secret", func(t *ffi.Thread, args []uint64) ([]uint64, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("write_secret: want 1 arg, got %d", len(args))
		}
		return nil, t.Store64(w.secret, args[0])
	})
	sys.Define("getpid", func(t *ffi.Thread, _ []uint64) ([]uint64, error) {
		return []uint64{42}, nil
	})
	evil := w.reg.MustLibrary("evil", ffi.Untrusted)
	evil.Define("deputy", func(t *ffi.Thread, _ []uint64) ([]uint64, error) {
		// The benign call first: an allow-listed entry point must keep
		// working with the filter armed, or the filter is just an off switch.
		if _, err := t.Call("sys", "getpid"); err != nil {
			return nil, fmt.Errorf("allow-listed call refused: %w", err)
		}
		_, err := t.Call("sys", "write_secret", 0xbad)
		return nil, err
	})
	if defenseOn {
		w.reg.SetCallFilter(true)
		w.reg.Allow("evil", "sys", "getpid")
	}
	_, derr := w.th.Call("evil", "deputy")
	v, rerr := w.th.VM.Load64(w.secret)
	if rerr != nil {
		return Outcome{}, fmt.Errorf("reading secret back: %w", rerr)
	}
	if v != secretValue {
		return Outcome{Breached: true, Fault: classify(derr),
			Detail: fmt.Sprintf("trusted deputy clobbered the secret (now %#x)", v)}, nil
	}
	return Outcome{Fault: classify(derr), Detail: fmt.Sprintf("deputy: %v", derr)}, nil
}

// --- virtual-key scenarios -------------------------------------------------

// tenantBase is where the vkey scenarios reserve per-tenant pages; the
// range is far from both pkalloc pools.
const tenantBase vm.Addr = 0x1900_0000_0000

func tenantSecret(i int) uint64 { return 0xa0_0000 + uint64(i) }

// vkeyWorld is the multi-tenant world the virtualization scenarios
// attack: a vkey table with key 1 reserved (13 multiplexable slots,
// 2..14), n one-page tenants each holding a distinct word, one thread.
type vkeyWorld struct {
	space *vm.Space
	table *vkey.Table
	th    *vm.Thread
	ids   []vkey.ID
	pages []vm.Addr
}

// vkeyMuxSlots is the slot count the scenarios are built around: 16 keys
// minus key 0 (shared), key 1 (reserved) and key 15 (inactive parking).
const vkeyMuxSlots = 13

func newVKeyWorld(tenants int) (*vkeyWorld, error) {
	space := vm.NewSpace()
	table, err := vkey.NewTable(space, vkey.Config{Reserved: []mpk.Key{1}})
	if err != nil {
		return nil, err
	}
	w := &vkeyWorld{space: space, table: table, th: vm.NewThread(space, nil)}
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant%d", i)
		base := tenantBase + vm.Addr(i)*vm.PageSize
		if _, err := space.Reserve(name, base, vm.PageSize, 0); err != nil {
			return nil, err
		}
		id := table.Alloc(name)
		if err := table.Attach(id, base, vm.PageSize); err != nil {
			return nil, err
		}
		if err := w.th.Store64(base, tenantSecret(i)); err != nil {
			return nil, err
		}
		w.ids = append(w.ids, id)
		w.pages = append(w.pages, base)
	}
	return w, nil
}

// migrationStalePKRU: the scheduler saves a thread's context while it is
// inside tenant A's compartment, the thread leaves, slot pressure evicts
// A and rebinds its hardware slot to another tenant — and then the saved
// context is restored on a "new CPU". The stale PKRU still grants the
// slot, which now tags the victim's pages. Defense: migration
// revalidation — the restore hook re-derives rights from the table's
// current bindings and strips every multiplexed slot grant the saved
// value can no longer justify.
func migrationStalePKRU(defenseOn bool) (Outcome, error) {
	w, err := newVKeyWorld(vkeyMuxSlots + 1)
	if err != nil {
		return Outcome{}, err
	}
	if _, _, err := w.table.Enter(w.th, w.ids[0]); err != nil {
		return Outcome{}, err
	}
	saved := w.th.SaveContext()
	if _, err := w.table.Leave(w.th, w.ids[0], vkey.Trusted, mpk.PermitAll); err != nil {
		return Outcome{}, err
	}
	// Churn through the other tenants: the first 12 fill the remaining
	// slots, the last has no free slot and evicts tenant 0 (the LRU),
	// rebinding its slot immediately.
	for _, id := range w.ids[1:] {
		if _, _, err := w.table.Enter(w.th, id); err != nil {
			return Outcome{}, err
		}
		if _, err := w.table.Leave(w.th, id, vkey.Trusted, mpk.PermitAll); err != nil {
			return Outcome{}, err
		}
	}
	victim := len(w.ids) - 1
	if hw0, ok := w.table.HardwareKey(w.ids[0]); ok && hw0 != vkey.InactiveKey {
		return Outcome{}, fmt.Errorf("setup: tenant 0 still bound to slot %v, eviction did not happen", hw0)
	}
	if defenseOn {
		w.table.BindMigration(w.th)
	}
	if err := w.th.RestoreContext(saved); err != nil {
		return Outcome{}, err
	}
	v, rerr := w.th.Load64(w.pages[victim])
	if rerr == nil && v == tenantSecret(victim) {
		return Outcome{Breached: true, Fault: FaultNone,
			Detail: "restored stale PKRU read the slot's new tenant"}, nil
	}
	return Outcome{Fault: classify(rerr),
		Detail: fmt.Sprintf("post-migration read: %v", rerr)}, nil
}

// evictRetagRace: an eviction must park the victim's pages on the
// inactive key *before* its slot is rebound; if the new tenant's
// activation wins the race, the old tenant's pages are still tagged with
// a slot the new tenant's PKRU grants. The red drill injects the lost
// race (InjectStaleEviction); the defense is the table's actual ordering —
// retag-then-rebind under one lock — represented by the clean path.
func evictRetagRace(defenseOn bool) (Outcome, error) {
	w, err := newVKeyWorld(vkeyMuxSlots + 1)
	if err != nil {
		return Outcome{}, err
	}
	if !defenseOn {
		w.table.InjectStaleEviction(true)
	}
	// Bind tenant 0 first, fill the remaining slots, then enter the last
	// tenant: its activation evicts tenant 0 and takes over its slot.
	for _, id := range w.ids[:vkeyMuxSlots] {
		if _, _, err := w.table.Activate(id); err != nil {
			return Outcome{}, err
		}
	}
	if _, _, err := w.table.Enter(w.th, w.ids[vkeyMuxSlots]); err != nil {
		return Outcome{}, err
	}
	v, rerr := w.th.Load64(w.pages[0])
	if _, lerr := w.table.Leave(w.th, w.ids[vkeyMuxSlots], vkey.Trusted, mpk.PermitAll); lerr != nil {
		return Outcome{}, lerr
	}
	if rerr == nil && v == tenantSecret(0) {
		return Outcome{Breached: true, Fault: FaultNone,
			Detail: "evicted tenant's pages still tagged with the rebound slot"}, nil
	}
	return Outcome{Fault: classify(rerr),
		Detail: fmt.Sprintf("cross-tenant read: %v", rerr)}, nil
}

// slotReuse: Free recycles a tenant's hardware slot into the free pool;
// its pages must be parked on the inactive key first, or the next tenant
// handed the slot can read the dead tenant's memory through its own
// legitimate rights. The red drill injects the skipped retag; the defense
// is Free's park-then-recycle ordering.
func slotReuse(defenseOn bool) (Outcome, error) {
	w, err := newVKeyWorld(2)
	if err != nil {
		return Outcome{}, err
	}
	dying, successor := w.ids[0], w.ids[1]
	if !defenseOn {
		w.table.InjectStaleEviction(true)
	}
	if _, _, err := w.table.Activate(dying); err != nil {
		return Outcome{}, err
	}
	if err := w.table.Free(dying); err != nil {
		return Outcome{}, err
	}
	// The successor pops the recycled slot off the free list.
	if _, _, err := w.table.Enter(w.th, successor); err != nil {
		return Outcome{}, err
	}
	v, rerr := w.th.Load64(w.pages[0])
	if _, lerr := w.table.Leave(w.th, successor, vkey.Trusted, mpk.PermitAll); lerr != nil {
		return Outcome{}, lerr
	}
	if rerr == nil && v == tenantSecret(0) {
		return Outcome{Breached: true, Fault: FaultNone,
			Detail: "freed tenant's pages readable by the slot's next owner"}, nil
	}
	return Outcome{Fault: classify(rerr),
		Detail: fmt.Sprintf("reused-slot read: %v", rerr)}, nil
}
