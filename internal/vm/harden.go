package vm

import (
	"fmt"

	"repro/internal/mpk"
	"repro/internal/sig"
)

// This file holds the thread-level Garmr defenses: the WRPKRU guard
// (rejecting rights widening outside a gate), the signal-frame PKRU
// sanitizer (clamping what a handler "restores" to the rights the
// interrupted compartment actually held), and scheduler-migration context
// save/restore with PKRU revalidation. All three default off — the
// simulator's baseline semantics are unchanged until a defense is armed —
// so the attack drills can run each scenario both ways.

// SigPolicy selects how a thread treats the PKRU value left behind by a
// signal handler when the handler returns (the simulated sigreturn).
type SigPolicy int32

const (
	// SigOpen trusts handlers completely: whatever PKRU the handler wrote
	// stands. This is the historical (and kernel-default) behavior —
	// sigreturn restores attacker-controllable uc_mcontext bytes — and the
	// red-drill configuration for the sigframe-tampering attack.
	SigOpen SigPolicy = iota

	// SigProfiling clamps any escalation over the dispatch-time rights
	// unless the handler also armed the single-step trap flag — the
	// profiler's grant-step-restore covenant (§4.3.2): a widened PKRU is
	// tolerated for exactly one access, and at SIGTRAP retirement the
	// rights are audited (and clamped) against the pre-grant baseline.
	SigProfiling

	// SigStrict clamps every escalation, profiling grants included. Under
	// this policy a signal handler can only ever narrow rights.
	SigStrict
)

func (p SigPolicy) String() string {
	switch p {
	case SigOpen:
		return "open"
	case SigProfiling:
		return "profiling"
	case SigStrict:
		return "strict"
	}
	return fmt.Sprintf("SigPolicy(%d)", int32(p))
}

// SetSigPolicy selects the signal-frame PKRU sanitizer policy. The default
// is SigOpen (no sanitization).
func (t *Thread) SetSigPolicy(p SigPolicy) { t.sigPolicy.Store(int32(p)) }

// SigPolicyValue returns the active sanitizer policy.
func (t *Thread) SigPolicyValue() SigPolicy { return SigPolicy(t.sigPolicy.Load()) }

// sigreturn audits the PKRU a handler left behind, after a dispatch that
// returned sig.Handled. entry is the rights register at delivery time;
// fromTrap marks SIGTRAP (single-step retirement) deliveries. It runs on
// the faulting thread itself — the dispatched sig.Context stays the
// thread, so observers keying state on the context identity are unaware.
func (t *Thread) sigreturn(entry mpk.PKRU, fromTrap bool) {
	policy := SigPolicy(t.sigPolicy.Load())
	if policy == SigOpen {
		return
	}
	if fromTrap && t.grantArmed {
		// Retirement of an earlier profiling grant: the covenant's audit
		// baseline is the rights held before the grant, not the widened
		// window the trap handler was delivered under.
		t.grantArmed = false
		entry = mpk.PKRU(t.grantBase)
	}
	// The grant-step-restore covenant: under SigProfiling a SEGV handler
	// may widen rights only with the single-step trap armed; the widening
	// is then audited at trap retirement against the pre-grant baseline.
	allowEscalation := policy == SigProfiling && !fromTrap && t.trap.Load()
	value, clamped := sig.SanitizePKRU(uint32(entry), t.pkru.Load(), allowEscalation)
	if !clamped {
		if allowEscalation && mpk.PKRU(value).Escalates(entry) {
			t.grantArmed = true
			t.grantBase = uint32(entry)
		}
		return
	}
	// Clamp through the raw register, not SetPKRU: sanitization is not a
	// WRPKRU the program performed, and must not trip the guard.
	t.pkru.Store(value)
	t.sigClamped.Add(1)
	if m := t.metrics; m != nil {
		m.SigClamped.Inc()
	}
}

// SetPKRUGuard arms (or disarms) the WRPKRU guard: while armed, a SetPKRU
// that widens rights is honored only inside a privileged bracket (every
// mpk.InstallAudited gate transition opens one); any other widening write
// is suppressed and counted in Stats.RoguePKRU. Narrowing writes always
// pass — dropping one's own rights is never an escape.
func (t *Thread) SetPKRUGuard(on bool) { t.guard.Store(on) }

// BeginPrivilegedPKRU opens a privileged PKRU-write bracket and returns
// the closer (one shared closure per thread — the bracket must not
// allocate). Gate code on a Thread doesn't need it: mpk.InstallAudited
// writes through InstallGateRights instead. The bracket remains for code
// that performs raw SetPKRU sequences it wants recognized as gate writes.
func (t *Thread) BeginPrivilegedPKRU() func() {
	t.privileged.Add(1)
	return t.endPrivileged
}

// InstallGateRights writes the rights register as a gate transition,
// implementing mpk.GateRegister. A gate install is a legitimate writer by
// definition, so the rogue-WRPKRU guard does not apply — and the gate hot
// path pays no guard synchronization per transition.
func (t *Thread) InstallGateRights(p mpk.PKRU) {
	t.pkru.Store(uint32(p))
	t.wrpkru.Add(1)
	if m := t.metrics; m != nil {
		m.WRPKRU.Inc()
	}
}

// CPUContext is the slice of thread state a scheduler saves when
// descheduling: the PKRU register and the single-step trap flag — exactly
// the state the XSAVE area carries across a real migration.
type CPUContext struct {
	PKRU uint32
	Trap bool
}

// SaveContext snapshots the migratable CPU state.
func (t *Thread) SaveContext() CPUContext {
	return CPUContext{PKRU: t.pkru.Load(), Trap: t.trap.Load()}
}

// SetMigrationRevalidator installs the PKRU revalidation hook RestoreContext
// runs before reinstalling a saved context. The hook receives the saved
// PKRU and returns the value actually safe to install — on a virtual-key
// system the saved bits may name hardware slots that were rebound to other
// tenants while the thread was off-CPU (the Garmr stale-PKRU-after-
// migration hazard), so the hook re-derives rights from current bindings.
// A nil hook restores the saved value verbatim. Call before handing the
// thread to its running goroutine; the field is not synchronized.
func (t *Thread) SetMigrationRevalidator(f func(saved mpk.PKRU) (mpk.PKRU, error)) {
	t.revalidate = f
}

// RestoreContext reinstalls a previously saved CPU context, as a scheduler
// does when the thread lands on a new CPU. With a migration revalidator
// installed the saved PKRU is audited (and possibly rewritten) first; an
// error leaves the current context untouched.
func (t *Thread) RestoreContext(c CPUContext) error {
	p := mpk.PKRU(c.PKRU)
	if t.revalidate != nil {
		var err error
		if p, err = t.revalidate(p); err != nil {
			return fmt.Errorf("vm: migration revalidation: %w", err)
		}
	}
	t.pkru.Store(uint32(p))
	t.trap.Store(c.Trap)
	t.migrations.Add(1)
	if m := t.metrics; m != nil {
		m.Migrations.Inc()
	}
	return nil
}
