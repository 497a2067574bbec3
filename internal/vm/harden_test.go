package vm

import (
	"errors"
	"testing"

	"repro/internal/mpk"
)

func TestPKRUGuardSuppressesRogueWidening(t *testing.T) {
	th := NewThread(NewSpace(), nil)
	th.SetRights(mpk.DenyAllExcept(0))
	th.SetPKRUGuard(true)
	if !th.guard.Load() {
		t.Fatal("guard not armed")
	}

	// A widening write outside any privileged bracket is a rogue WRPKRU:
	// suppressed, counted, rights unchanged.
	th.SetPKRU(uint32(mpk.PermitAll))
	if got := th.Rights(); got != mpk.DenyAllExcept(0) {
		t.Fatalf("rogue widening took effect: %v", got)
	}
	if st := th.Stats(); st.RoguePKRU != 1 {
		t.Errorf("RoguePKRU = %d, want 1", st.RoguePKRU)
	}

	// Narrowing is always allowed — dropping rights is never an escape.
	th.SetPKRU(uint32(mpk.DenyAllExcept()))
	if got := th.Rights(); got != mpk.DenyAllExcept() {
		t.Fatalf("narrowing write suppressed: %v", got)
	}

	// Inside a privileged bracket (a gate transition) widening is fine.
	end := th.BeginPrivilegedPKRU()
	th.SetPKRU(uint32(mpk.PermitAll))
	end()
	if got := th.Rights(); got != mpk.PermitAll {
		t.Fatalf("bracketed widening suppressed: %v", got)
	}

	// InstallAudited brackets itself via the PrivilegedRegister interface.
	th.SetRights(mpk.DenyAllExcept(0))
	if err := mpk.InstallAudited(th, mpk.PermitAll); err != nil {
		t.Fatalf("InstallAudited under guard: %v", err)
	}
	if st := th.Stats(); st.RoguePKRU != 1 {
		t.Errorf("RoguePKRU = %d after legitimate writes, want still 1", st.RoguePKRU)
	}

	// Disarmed: widening passes again.
	th.SetPKRUGuard(false)
	th.SetRights(mpk.DenyAllExcept(0))
	th.SetPKRU(uint32(mpk.PermitAll))
	if got := th.Rights(); got != mpk.PermitAll {
		t.Fatalf("widening suppressed with guard off: %v", got)
	}
}

func TestSaveRestoreContextRoundTrip(t *testing.T) {
	th := NewThread(NewSpace(), nil)
	th.SetRights(mpk.DenyAllExcept(0, 5))
	th.SetTrapFlag(true)
	saved := th.SaveContext()
	th.SetRights(mpk.PermitAll)
	th.SetTrapFlag(false)
	wrpkruBefore := th.Stats().WRPKRU
	if err := th.RestoreContext(saved); err != nil {
		t.Fatal(err)
	}
	if got := th.Rights(); got != mpk.DenyAllExcept(0, 5) {
		t.Errorf("rights = %v after restore", got)
	}
	if !th.TrapFlag() {
		t.Error("trap flag not restored")
	}
	if st := th.Stats(); st.Migrations != 1 {
		t.Errorf("Migrations = %d, want 1", st.Migrations)
	}
	// Restores do not count as program WRPKRUs.
	if st := th.Stats(); st.WRPKRU != wrpkruBefore {
		t.Errorf("WRPKRU = %d, want %d (restore must not count)", st.WRPKRU, wrpkruBefore)
	}
}

func TestRestoreContextRevalidator(t *testing.T) {
	th := NewThread(NewSpace(), nil)
	rewritten := mpk.DenyAllExcept(0)
	th.SetMigrationRevalidator(func(saved mpk.PKRU) (mpk.PKRU, error) {
		return rewritten, nil
	})
	if err := th.RestoreContext(CPUContext{PKRU: uint32(mpk.PermitAll)}); err != nil {
		t.Fatal(err)
	}
	if got := th.Rights(); got != rewritten {
		t.Errorf("rights = %v, want revalidator's %v", got, rewritten)
	}

	// A revalidation error must leave the current context untouched.
	boom := errors.New("stale context")
	th.SetMigrationRevalidator(func(mpk.PKRU) (mpk.PKRU, error) { return 0, boom })
	th.SetRights(mpk.DenyAllExcept(0, 7))
	th.SetTrapFlag(true)
	err := th.RestoreContext(CPUContext{PKRU: uint32(mpk.PermitAll), Trap: false})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped revalidator error", err)
	}
	if got := th.Rights(); got != mpk.DenyAllExcept(0, 7) {
		t.Errorf("rights changed on failed restore: %v", got)
	}
	if !th.TrapFlag() {
		t.Error("trap flag changed on failed restore")
	}
	if st := th.Stats(); st.Migrations != 1 {
		t.Errorf("Migrations = %d, want 1 (failed restore not counted)", st.Migrations)
	}
}

func TestSigPolicyString(t *testing.T) {
	for p, want := range map[SigPolicy]string{SigOpen: "open", SigProfiling: "profiling", SigStrict: "strict"} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}
