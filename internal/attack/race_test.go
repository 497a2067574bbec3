package attack

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/domains"
	"repro/internal/ffi"
	"repro/internal/mpk"
	"repro/internal/vkey"
	"repro/internal/vm"
)

// The concurrency drills: the single-goroutine scenarios prove the retag
// and migration defenses on a deterministic schedule; these two run the
// same invariants against genuine concurrency so `go test -race` can
// catch lock-ordering or torn-state regressions in the table itself.

// TestRaceRetagVsAccess churns slot evictions on one goroutine while
// another continuously enters compartments and reads. Invariant: a thread
// inside tenant X's compartment never successfully reads tenant Y's page
// — evictions must park, retag, and revoke atomically enough that no
// interleaving leaves a foreign page readable. Faults are fine; foreign
// data is not.
func TestRaceRetagVsAccess(t *testing.T) {
	const tenants = 20
	w, err := newVKeyWorld(tenants)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := w.table.Activate(w.ids[i%tenants]); err != nil {
				t.Errorf("churn Activate: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 400; i++ {
		self := i % tenants
		other := (i + 1) % tenants
		if _, _, err := w.table.Enter(w.th, w.ids[self]); err != nil {
			t.Fatalf("Enter: %v", err)
		}
		if v, err := w.th.Load64(w.pages[other]); err == nil && v == tenantSecret(other) {
			t.Fatalf("iteration %d: read tenant %d's page from tenant %d's compartment", i, other, self)
		}
		// The own-page read may fault (the compartment can be evicted
		// mid-access and its rights revoked) but must never read anything
		// other than the tenant's own value.
		if v, err := w.th.Load64(w.pages[self]); err == nil && v != tenantSecret(self) {
			t.Fatalf("iteration %d: own-page read returned %#x, want %#x", i, v, tenantSecret(self))
		}
		if _, err := w.table.Leave(w.th, w.ids[self], vkey.Trusted, mpk.PermitAll); err != nil {
			t.Fatalf("Leave: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRaceMigrationRevalidate saves a context inside a compartment,
// leaves, and restores it while another goroutine churns slot bindings.
// With the revalidator bound, a restore onto an empty compartment stack
// must strip every multiplexed slot grant — no interleaving of the churn
// may leave the restored thread able to read any tenant page.
func TestRaceMigrationRevalidate(t *testing.T) {
	const tenants = 20
	w, err := newVKeyWorld(tenants)
	if err != nil {
		t.Fatal(err)
	}
	w.table.BindMigration(w.th)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := w.table.Activate(w.ids[i%tenants]); err != nil {
				t.Errorf("churn Activate: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		id := w.ids[i%tenants]
		if _, _, err := w.table.Enter(w.th, id); err != nil {
			t.Fatalf("Enter: %v", err)
		}
		saved := w.th.SaveContext()
		if _, err := w.table.Leave(w.th, id, vkey.Trusted, mpk.PermitAll); err != nil {
			t.Fatalf("Leave: %v", err)
		}
		if err := w.th.RestoreContext(saved); err != nil {
			t.Fatalf("RestoreContext: %v", err)
		}
		for j := 0; j < tenants; j += 5 {
			if v, err := w.th.Load64(w.pages[j]); err == nil {
				t.Fatalf("iteration %d: post-migration read of tenant %d succeeded (%#x) despite revalidation", i, j, v)
			}
		}
		// Re-derive full rights for the next iteration's trusted writes.
		w.th.SetRights(mpk.PermitAll)
	}
	close(stop)
	wg.Wait()
}

// TestRaceNestedDomainsVsRemove runs workers through mixed nesting —
// tenant X calls back into trusted code, which calls on into tenant Y —
// while a churn goroutine removes and re-adds tenants. Invariants: a
// removal succeeds or answers ErrKeyBusy, never freeing a tenant some
// worker is inside (the worker's own pool stays usable for the whole
// call); a call fails only because its tenant was removed before it
// entered; the trusted callback always runs with full rights; and once
// the workers stop, no live-frame count is left behind, so every tenant
// can be removed.
func TestRaceNestedDomainsVsRemove(t *testing.T) {
	const tenants, workers, iters = 4, 2, 300
	m, err := domains.NewManager(vm.NewSpace())
	if err != nil {
		t.Fatal(err)
	}
	rt := ffi.NewRuntime(ffi.NewRegistry(), m.Allocator(), nil, ffi.GatesOn)
	rt.SetGateCost(0)
	secret, err := m.AllocTrusted(8)
	if err != nil {
		t.Fatal(err)
	}
	name := func(i int) string { return fmt.Sprintf("tenant%d", i) }
	add := func(i int) error {
		d, err := m.AddDomain(name(i))
		if err != nil {
			return err
		}
		m.BindLibrary(rt, name(i), d)
		return nil
	}
	// ownPool proves the caller's domain is still alive under it.
	ownPool := func(th *ffi.Thread) error {
		buf, err := th.Malloc(8)
		if err != nil {
			return fmt.Errorf("own pool gone mid-call: %w", err)
		}
		if err := th.Store64(buf, 7); err != nil {
			return err
		}
		if v, err := th.Load64(buf); err != nil || v != 7 {
			return fmt.Errorf("own pool read %v, %v", v, err)
		}
		return th.Free(buf)
	}
	rt.Registry.MustLibrary("svc", ffi.Trusted).Define("hop", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		if _, err := th.Load64(secret); err != nil {
			return nil, fmt.Errorf("trusted callback lost MT: %w", err)
		}
		return th.Call(name(int(args[0])), "leaf")
	})
	for i := 0; i < tenants; i++ {
		lib := rt.Registry.MustLibrary(name(i), ffi.Untrusted)
		next := uint64((i + 1) % tenants)
		lib.Define("work", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
			if err := ownPool(th); err != nil {
				return nil, err
			}
			if _, err := th.Call("svc", "hop", next); err != nil {
				return nil, err
			}
			return nil, ownPool(th)
		})
		lib.Define("leaf", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
			return nil, ownPool(th)
		})
		if err := add(i); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var removed, busy int
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := m.RemoveDomain(name(i % tenants))
			switch {
			case errors.Is(err, vkey.ErrKeyBusy):
				busy++
			case err == nil:
				removed++
				if err := add(i % tenants); err != nil {
					t.Errorf("re-add: %v", err)
					return
				}
			default:
				t.Errorf("RemoveDomain = %v, want nil or ErrKeyBusy", err)
				return
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			th := rt.NewThread()
			for i := 0; i < iters; i++ {
				_, err := th.Call(name((w+i)%tenants), "work")
				if err != nil && !errors.Is(err, vkey.ErrUnknownKey) {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				if th.VM.Rights() != mpk.PermitAll || th.Depth() != 0 {
					t.Errorf("worker %d after call %d: rights %v depth %d", w, i, th.VM.Rights(), th.Depth())
					return
				}
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	t.Logf("churn: %d removals, %d refused busy", removed, busy)
	if rt.Aborted() {
		t.Fatal("runtime aborted")
	}
	for i := 0; i < tenants; i++ {
		if err := m.RemoveDomain(name(i)); err != nil {
			t.Errorf("RemoveDomain(%s) after the workers stopped: %v", name(i), err)
		}
	}
}
