package vkey

import (
	"testing"

	"repro/internal/mpk"
	"repro/internal/vm"
)

// reg is a bare rights register for driving the table without a full thread.
type reg struct{ p mpk.PKRU }

func (r *reg) Rights() mpk.PKRU     { return r.p }
func (r *reg) SetRights(p mpk.PKRU) { r.p = p }

func revalidateWorld(t *testing.T) (*Table, *vm.Space, []ID) {
	t.Helper()
	space := vm.NewSpace()
	tbl, err := NewTable(space, Config{Reserved: []mpk.Key{1}})
	if err != nil {
		t.Fatal(err)
	}
	var ids []ID
	for i := 0; i < 3; i++ {
		ids = append(ids, tbl.Alloc("tenant"))
	}
	return tbl, space, ids
}

func TestRevalidateReDerivesFromLiveStack(t *testing.T) {
	tbl, _, ids := revalidateWorld(t)
	r := &reg{}
	rights, _, err := tbl.Enter(r, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	// Whatever PKRU the scheduler saved, a register inside a compartment
	// gets that compartment's rights re-derived.
	got, err := tbl.Revalidate(r, mpk.PermitAll)
	if err != nil {
		t.Fatal(err)
	}
	if got != rights {
		t.Fatalf("Revalidate = %v, want the compartment's rights %v", got, rights)
	}
	if _, err := tbl.Leave(r, ids[0], Trusted, mpk.PermitAll); err != nil {
		t.Fatal(err)
	}
}

func TestRevalidateStripsStaleMuxGrants(t *testing.T) {
	tbl, _, ids := revalidateWorld(t)
	r := &reg{}
	rights, _, err := tbl.Enter(r, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	hw, ok := tbl.HardwareKey(ids[0])
	if !ok {
		t.Fatal("tenant not bound")
	}
	if _, err := tbl.Leave(r, ids[0], Trusted, mpk.PermitAll); err != nil {
		t.Fatal(err)
	}
	before := tbl.Stats().Invalidations
	// Back in a static compartment: the saved compartment PKRU is stale
	// and every multiplexed slot grant must be stripped.
	got, err := tbl.Revalidate(r, rights)
	if err != nil {
		t.Fatal(err)
	}
	if got.CanRead(hw) {
		t.Fatalf("stale grant for slot %v survived revalidation: %v", hw, got)
	}
	if got.Rights(0) != rights.Rights(0) {
		t.Errorf("non-mux key 0 rights changed: %v", got)
	}
	if after := tbl.Stats().Invalidations; after <= before {
		t.Errorf("Invalidations did not advance: %d -> %d", before, after)
	}
}

func TestRevalidatePassesTrustedContextThrough(t *testing.T) {
	tbl, _, _ := revalidateWorld(t)
	r := &reg{}
	// A trusted (PermitAll) saved context carries no slot grants to go
	// stale; it is restored verbatim, mirroring revocation's trusted
	// exemption.
	got, err := tbl.Revalidate(r, mpk.PermitAll)
	if err != nil {
		t.Fatal(err)
	}
	if got != mpk.PermitAll {
		t.Fatalf("Revalidate(PermitAll) = %v", got)
	}
}

func TestBindMigrationRevalidatesThreadRestore(t *testing.T) {
	space := vm.NewSpace()
	tbl, err := NewTable(space, Config{Reserved: []mpk.Key{1}})
	if err != nil {
		t.Fatal(err)
	}
	const base vm.Addr = 0x1700_0000_0000
	if _, err := space.Reserve("tenant", base, vm.PageSize, 0); err != nil {
		t.Fatal(err)
	}
	id := tbl.Alloc("tenant")
	if err := tbl.Attach(id, base, vm.PageSize); err != nil {
		t.Fatal(err)
	}
	th := vm.NewThread(space, nil)
	if err := th.Store64(base, 99); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.Enter(th, id); err != nil {
		t.Fatal(err)
	}
	saved := th.SaveContext()
	if _, err := tbl.Leave(th, id, Trusted, mpk.PermitAll); err != nil {
		t.Fatal(err)
	}
	tbl.BindMigration(th)
	if err := th.RestoreContext(saved); err != nil {
		t.Fatal(err)
	}
	// The stale compartment grant is gone: the tenant page (still bound
	// to its slot) is unreadable from the restored context.
	if v, err := th.Load64(base); err == nil {
		t.Fatalf("stale restored context read tenant page: %d", v)
	}
}
