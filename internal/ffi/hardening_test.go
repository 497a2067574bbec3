package ffi

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/mpk"
	"repro/internal/pkalloc"
	"repro/internal/vkey"
	"repro/internal/vm"
)

func TestAbortKillsAllCalls(t *testing.T) {
	rt, reg := world(t, GatesOn)
	reg.MustLibrary("lib", Untrusted).Define("f", func(*Thread, []uint64) ([]uint64, error) {
		return nil, nil
	})
	th := rt.NewThread()
	if _, err := th.Call("lib", "f"); err != nil {
		t.Fatal(err)
	}
	rt.Abort()
	if !rt.Aborted() {
		t.Fatal("Aborted() false after Abort")
	}
	if _, err := th.Call("lib", "f"); !errors.Is(err, ErrAborted) {
		t.Errorf("call after abort = %v, want ErrAborted", err)
	}
	if _, err := th.CallNoGate("lib", "f"); !errors.Is(err, ErrAborted) {
		t.Errorf("CallNoGate after abort = %v, want ErrAborted", err)
	}
}

// TestPerThreadPKRUIsolation: PKRU is per-thread state. One thread parked
// inside the untrusted compartment must not affect another thread's full
// trusted rights — the property that makes PKRU-Safe sound for the
// multi-threaded Servo (§8 "multi-threaded mixed-language environments").
func TestPerThreadPKRUIsolation(t *testing.T) {
	rt, reg := world(t, GatesOn)
	secret, err := rt.Alloc.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	reg.MustLibrary("lib", Untrusted).Define("park", func(th *Thread, _ []uint64) ([]uint64, error) {
		close(entered)
		<-release
		// Still in U: MT must stay inaccessible.
		if _, err := th.Load64(secret); err == nil {
			t.Error("parked untrusted thread read MT")
		}
		return nil, nil
	})

	thA := rt.NewThread()
	done := make(chan error, 1)
	go func() {
		_, err := thA.Call("lib", "park")
		done <- err
	}()
	<-entered
	// Thread B, in T, accesses MT freely while A sits in U.
	thB := rt.NewThread()
	if err := thB.VM.Store64(secret, 99); err != nil {
		t.Errorf("trusted thread blocked by another thread's gate: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if thA.VM.Rights() != mpk.PermitAll {
		t.Error("thread A rights not restored")
	}
}

func TestConcurrentGatedCalls(t *testing.T) {
	rt, reg := world(t, GatesOn)
	reg.MustLibrary("lib", Untrusted).Define("alloc_and_touch", func(th *Thread, _ []uint64) ([]uint64, error) {
		a, err := th.Malloc(64)
		if err != nil {
			return nil, err
		}
		if err := th.Store64(a, 1); err != nil {
			return nil, err
		}
		return nil, th.Free(a)
	})
	const goroutines, calls = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for i := 0; i < calls; i++ {
				if _, err := th.Call("lib", "alloc_and_touch"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := rt.Transitions(); got != goroutines*calls {
		t.Errorf("transitions = %d, want %d", got, goroutines*calls)
	}
}

// TestOOMPropagates: exhausting a tiny trusted pool surfaces as an error,
// not a panic, through the FFI allocation path.
func TestOOMPropagates(t *testing.T) {
	space := vm.NewSpace()
	alloc, err := pkalloc.New(pkalloc.Config{
		Space:       space,
		TrustedSize: 4 * vm.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(NewRegistry(), alloc, nil, GatesOn)
	th := rt.NewThread()
	if _, err := th.Malloc(64 * vm.PageSize); err == nil {
		t.Error("oversized trusted allocation succeeded")
	}
	// The allocator remains usable after the failure.
	if _, err := th.Malloc(64); err != nil {
		t.Errorf("small allocation after OOM failed: %v", err)
	}
}

// TestPanicMidCallRestoresGateInvariants: an untrusted Func that panics
// must not leave the thread stuck in the untrusted compartment. The gates
// unwind themselves as the panic propagates, so Depth(), CurrentTrust()
// and the PKRU register are all back to their pre-call values by the time
// the panic reaches (and is recovered by) the trusted frame.
func TestPanicMidCallRestoresGateInvariants(t *testing.T) {
	rt, reg := world(t, GatesOn)
	reg.MustLibrary("lib", Untrusted).Define("boom", func(*Thread, []uint64) ([]uint64, error) {
		panic("untrusted library crashed")
	})
	// Nested variant: trusted callback panics two gates deep.
	reg.MustLibrary("trusted", Trusted).Define("cb_boom", func(*Thread, []uint64) ([]uint64, error) {
		panic("trusted callback crashed")
	})
	reg.MustLibrary("lib", Untrusted).Define("call_back", func(th *Thread, _ []uint64) ([]uint64, error) {
		return th.Call("trusted", "cb_boom")
	})

	th := rt.NewThread()
	for _, fn := range []string{"boom", "call_back"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: panic swallowed", fn)
				}
			}()
			_, _ = th.Call("lib", fn)
		}()
		if d := th.Depth(); d != 0 {
			t.Errorf("%s: Depth() after panic = %d, want 0", fn, d)
		}
		if tr := th.CurrentTrust(); tr != Trusted {
			t.Errorf("%s: CurrentTrust() after panic = %v, want Trusted", fn, tr)
		}
		if r := th.VM.Rights(); r != mpk.PermitAll {
			t.Errorf("%s: rights after panic = %v, want PermitAll", fn, r)
		}
	}
	// The thread is still usable: a subsequent gated call succeeds.
	reg.MustLibrary("lib", Untrusted).Define("ok", func(*Thread, []uint64) ([]uint64, error) {
		return nil, nil
	})
	if _, err := th.Call("lib", "ok"); err != nil {
		t.Errorf("call after recovered panic: %v", err)
	}
}

// TestCheckpointUnwind: the supervisor's recovery-point primitives restore
// depth, trust and rights, and refuse to unwind "forward" to a deeper
// frame.
func TestCheckpointUnwind(t *testing.T) {
	rt, reg := world(t, GatesOn)
	var inner Checkpoint
	reg.MustLibrary("lib", Untrusted).Define("snap", func(th *Thread, _ []uint64) ([]uint64, error) {
		inner = th.Checkpoint()
		return nil, nil
	})
	th := rt.NewThread()
	cp := th.Checkpoint()
	if _, err := th.Call("lib", "snap"); err != nil {
		t.Fatal(err)
	}
	// Unwinding to the (now-popped) inner frame is a caller bug.
	if err := th.Unwind(inner); err == nil {
		t.Error("unwind to deeper checkpoint accepted")
	}
	// Unwinding to the trusted frame verifies and is idempotent at depth 0.
	if err := th.Unwind(cp); err != nil {
		t.Errorf("Unwind: %v", err)
	}
	if th.Depth() != 0 || th.CurrentTrust() != Trusted || th.VM.Rights() != cp.Rights() {
		t.Errorf("state after unwind: depth=%d trust=%v rights=%v", th.Depth(), th.CurrentTrust(), th.VM.Rights())
	}
}

// domainWorld builds a runtime with two untrusted libraries, each bound
// to its own virtualized compartment: a private pkalloc domain pool and a
// vkey logical key whose activation supplies the gate's rights.
func domainWorld(t *testing.T) (*Runtime, *vkey.Table, map[string]vkey.ID) {
	t.Helper()
	space := vm.NewSpace()
	alloc, err := pkalloc.New(pkalloc.Config{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	table, err := vkey.NewTable(space, vkey.Config{Reserved: []mpk.Key{alloc.TrustedKey()}})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	rt := NewRuntime(reg, alloc, nil, GatesOn)
	ids := make(map[string]vkey.ID)
	for _, name := range []string{"tenantA", "tenantB"} {
		region, err := alloc.AddDomainPool(name, vkey.InactiveKey)
		if err != nil {
			t.Fatal(err)
		}
		id := table.Alloc(name)
		if err := table.Attach(id, region.Base, region.Size); err != nil {
			t.Fatal(err)
		}
		ids[name] = id
		rt.BindLibraryDomain(name, DomainBinding{Pool: name, Table: table, Key: id})
	}
	return rt, table, ids
}

// TestDomainBoundGatesIsolateTenants: calls into a domain-bound library
// pass through the audited gate with the domain's activated rights, its
// allocations land in the domain's private pool, and neither the trusted
// heap nor the sibling tenant's pool is reachable from inside.
func TestDomainBoundGatesIsolateTenants(t *testing.T) {
	rt, _, _ := domainWorld(t)
	reg := rt.Registry
	secret, err := rt.Alloc.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	var aBuf, bBuf vm.Addr
	reg.MustLibrary("tenantB", Untrusted).Define("init", func(th *Thread, _ []uint64) ([]uint64, error) {
		addr, err := th.Malloc(32)
		if err != nil {
			return nil, err
		}
		bBuf = addr
		return nil, th.Store64(addr, 0xb)
	})
	reg.MustLibrary("tenantA", Untrusted).Define("probe", func(th *Thread, _ []uint64) ([]uint64, error) {
		addr, err := th.Malloc(32)
		if err != nil {
			return nil, err
		}
		aBuf = addr
		if err := th.Store64(addr, 0xa); err != nil {
			return nil, err
		}
		if _, err := th.Load64(secret); err == nil {
			t.Error("tenantA read MT")
		}
		if _, err := th.Load64(bBuf); err == nil {
			t.Error("tenantA read tenantB's private pool")
		}
		return nil, nil
	})

	th := rt.NewThread()
	if _, err := th.Call("tenantB", "init"); err != nil {
		t.Fatal(err)
	}
	if rB, okB := rt.Alloc.DomainRegion("tenantB"); !okB || !rB.Contains(bBuf) {
		t.Errorf("tenantB allocation %v not in its domain pool", bBuf)
	}
	before := rt.Transitions()
	if _, err := th.Call("tenantA", "probe"); err != nil {
		t.Fatal(err)
	}
	if rt.Transitions() != before+1 {
		t.Errorf("domain-bound call did not gate: transitions %d -> %d", before, rt.Transitions())
	}
	if rA, okA := rt.Alloc.DomainRegion("tenantA"); !okA || !rA.Contains(aBuf) {
		t.Errorf("tenantA allocation %v not in its domain pool", aBuf)
	}
	if th.VM.Rights() != mpk.PermitAll {
		t.Errorf("rights after domain call = %v, want restored PermitAll", th.VM.Rights())
	}
	if rt.Aborted() {
		t.Error("runtime aborted during clean domain calls")
	}
}

// TestCrossDomainCallsGateEvenUntrustedToUntrusted: two untrusted
// libraries in different domains must still gate between each other — a
// U→U call with unchanged rights would merge the sandboxes.
func TestCrossDomainCallsGateEvenUntrustedToUntrusted(t *testing.T) {
	rt, _, _ := domainWorld(t)
	reg := rt.Registry
	var inB mpk.PKRU
	reg.MustLibrary("tenantB", Untrusted).Define("leaf", func(th *Thread, _ []uint64) ([]uint64, error) {
		inB = th.VM.Rights()
		return nil, nil
	})
	var inA, backInA mpk.PKRU
	reg.MustLibrary("tenantA", Untrusted).Define("nest", func(th *Thread, _ []uint64) ([]uint64, error) {
		inA = th.VM.Rights()
		if _, err := th.Call("tenantB", "leaf"); err != nil {
			return nil, err
		}
		backInA = th.VM.Rights()
		return nil, nil
	})
	th := rt.NewThread()
	before := rt.Transitions()
	if _, err := th.Call("tenantA", "nest"); err != nil {
		t.Fatal(err)
	}
	if got := rt.Transitions() - before; got != 2 {
		t.Errorf("nested cross-domain call made %d gated transitions, want 2", got)
	}
	if inA == inB {
		t.Error("tenantA and tenantB ran with identical rights — sandboxes merged")
	}
	if backInA != inA {
		t.Errorf("rights after inner call = %v, want %v restored", backInA, inA)
	}
}

// churnSlots floods the table with throwaway logical keys until every
// hardware slot has been rebound, evicting whatever was resident. Each
// key gets a page-backed range so retag-on-evict is exercised. It returns
// the buffer of the churn key that ended up bound to wantHW — the tenant
// that inherited the victim's slot, the memory a stale PKRU would reach.
func churnSlots(t *testing.T, rt *Runtime, table *vkey.Table, wantHW mpk.Key) vm.Addr {
	t.Helper()
	type churned struct {
		id  vkey.ID
		buf vm.Addr
	}
	var keys []churned
	for i := 0; i <= table.Slots(); i++ {
		id := table.Alloc(fmt.Sprintf("churn%d", i))
		buf := vm.Addr(0x6100_0000_0000 + uint64(i)<<20)
		if _, err := rt.Alloc.Space().Reserve(fmt.Sprintf("churn/%d", i), buf, uint64(vm.PageSize), 0); err != nil {
			t.Fatal(err)
		}
		if err := table.Attach(id, buf, uint64(vm.PageSize)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := table.Activate(id); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, churned{id, buf})
	}
	for _, c := range keys {
		if hw, ok := table.HardwareKey(c.id); ok && hw == wantHW {
			return c.buf
		}
	}
	t.Fatalf("no churn key inherited slot %v", wantHW)
	return 0
}

// TestDomainGateBindsThreadForRevocation: a thread that entered a domain
// through an ffi call gate — not through domains.Enter — must still lose
// its PKRU rights when its domain's slot is evicted and rebound. This is
// the eviction-time revalidation half of the Garmr defense: without the
// gate binding the register to the vkey table, the thread would keep
// reaching the new tenant's memory through the rebound slot.
func TestDomainGateBindsThreadForRevocation(t *testing.T) {
	rt, table, ids := domainWorld(t)
	reg := rt.Registry
	var ownBuf vm.Addr
	reg.MustLibrary("tenantA", Untrusted).Define("evicted_inside", func(th *Thread, _ []uint64) ([]uint64, error) {
		addr, err := th.Malloc(32)
		if err != nil {
			return nil, err
		}
		ownBuf = addr
		hwA, ok := table.HardwareKey(ids["tenantA"])
		if !ok {
			t.Fatal("entered domain holds no slot")
		}
		inheritedBuf := churnSlots(t, rt, table, hwA)
		if r := th.VM.Rights().Rights(hwA); r != mpk.DenyAll {
			t.Errorf("gated thread still holds %v for rebound slot %v — gate did not bind for revocation", r, hwA)
		}
		if _, err := th.Load64(inheritedBuf); err == nil {
			t.Error("gated thread read the tenant that inherited its evicted slot")
		}
		// Its own pool is gone too until re-entry — the pages are parked.
		if _, err := th.Load64(ownBuf); err == nil {
			t.Error("gated thread read its own pool through a revoked slot")
		}
		return nil, nil
	})
	th := rt.NewThread()
	if _, err := th.Call("tenantA", "evicted_inside"); err != nil {
		t.Fatal(err)
	}
	if st := table.Stats(); st.Invalidations == 0 {
		t.Error("eviction revoked no bound-thread rights")
	}
	if th.VM.Rights() != mpk.PermitAll {
		t.Errorf("rights after return = %v, want PermitAll", th.VM.Rights())
	}
}

// TestDomainGateExitReactivatesAfterEviction is the stale-PKRU regression
// for the gate's exit half: tenantA calls a trusted library; while the
// trusted callback runs, slot churn evicts tenantA and hands its hardware
// slot to another logical key. The reverse gate's exit must re-derive
// tenantA's rights (re-activating its key onto a fresh slot) — replaying
// the PKRU saved at gate entry would resurrect rights to the slot's new
// tenant.
func TestDomainGateExitReactivatesAfterEviction(t *testing.T) {
	evictDuringCallback(t, false)
}

// TestExitAuditAcceptsReactivationAfterEviction runs the same eviction
// with the gate-exit audit armed. tenantA returns holding the rights its
// re-derivation installed on a fresh slot, not the rights its gate
// installed at entry; the audit must accept them, because the runtime
// itself installed them for that frame, and must not abort the runtime.
func TestExitAuditAcceptsReactivationAfterEviction(t *testing.T) {
	evictDuringCallback(t, true)
}

// evictDuringCallback drives tenantA → trusted callback (evicts tenantA)
// → back in tenantA → back in trusted code, with the exit audit armed or
// not.
func evictDuringCallback(t *testing.T, audit bool) {
	t.Helper()
	rt, table, ids := domainWorld(t)
	rt.SetExitAudit(audit)
	reg := rt.Registry
	var inheritedBuf vm.Addr
	reg.MustLibrary("svc", Trusted).Define("churn", func(th *Thread, _ []uint64) ([]uint64, error) {
		hwA, ok := table.HardwareKey(ids["tenantA"])
		if !ok {
			t.Fatal("tenantA holds no slot at callback time")
		}
		inheritedBuf = churnSlots(t, rt, table, hwA)
		return nil, nil
	})
	reg.MustLibrary("tenantA", Untrusted).Define("roundtrip", func(th *Thread, _ []uint64) ([]uint64, error) {
		own, err := th.Malloc(32)
		if err != nil {
			return nil, err
		}
		if err := th.Store64(own, 0xa); err != nil {
			return nil, err
		}
		if _, err := th.Call("svc", "churn"); err != nil {
			return nil, err
		}
		// Back in tenantA after the reverse gate's exit: the old slot now
		// belongs to someone else and must be unreachable …
		if _, err := th.Load64(inheritedBuf); err == nil {
			t.Error("after callback, tenantA read the tenant that inherited its old slot (stale PKRU replayed)")
		}
		// … while tenantA's own pool is reachable again on a fresh slot.
		if v, err := th.Load64(own); err != nil || v != 0xa {
			t.Errorf("after callback, tenantA lost its own pool: %v, %v", v, err)
		}
		return nil, nil
	})
	th := rt.NewThread()
	if _, err := th.Call("tenantA", "roundtrip"); err != nil {
		t.Fatal(err)
	}
	if st := table.Stats(); st.Evictions == 0 {
		t.Fatal("churn produced no evictions — the regression was not exercised")
	}
	if rt.Aborted() {
		t.Error("runtime aborted during clean eviction churn")
	}
}

// TestExitAuditCatchesWideningAcrossCallback: a callee that widens its
// own PKRU is caught whether the widening comes before or after a
// callback into trusted code. Widened first, the callback's reverse gate
// catches it on entry, before trusted code runs with the widened rights
// — otherwise a domain callee would have it erased by the re-derivation
// on the callback's return; widened after, the callee's own gate catches
// it on exit, against the rights the callback's return re-derived or
// reinstalled.
func TestExitAuditCatchesWideningAcrossCallback(t *testing.T) {
	for _, tc := range []struct {
		lib        string
		widenFirst bool
	}{{"plain", true}, {"tenantA", false}, {"tenantA", true}} {
		name := tc.lib
		if tc.widenFirst && tc.lib == "tenantA" {
			name += "-widen-first"
		}
		t.Run(name, func(t *testing.T) {
			rt, _, _ := domainWorld(t)
			rt.SetExitAudit(true)
			reg := rt.Registry
			ran := 0
			reg.MustLibrary("svc", Trusted).Define("noop", func(*Thread, []uint64) ([]uint64, error) {
				ran++
				return nil, nil
			})
			reg.MustLibrary(tc.lib, Untrusted).Define("widen", func(th *Thread, _ []uint64) ([]uint64, error) {
				if tc.widenFirst {
					th.VM.SetPKRU(uint32(mpk.PermitAll))
				}
				_, err := th.Call("svc", "noop")
				if !tc.widenFirst {
					th.VM.SetPKRU(uint32(mpk.PermitAll))
				}
				return nil, err
			})
			if _, err := rt.NewThread().Call(tc.lib, "widen"); !errors.Is(err, ErrGateTampered) {
				t.Fatalf("err = %v, want ErrGateTampered", err)
			}
			if !rt.Aborted() {
				t.Error("runtime not aborted after a widened callee returned")
			}
			want := 1
			if tc.widenFirst {
				want = 0
			}
			if ran != want {
				t.Errorf("trusted callback ran %d times, want %d", ran, want)
			}
		})
	}
}

// nestedHelperWorld is the mixed nesting the split-stack regressions
// drive: trusted code calls tenantA, tenantA calls back into a trusted
// helper through a reverse gate, and the helper calls on into inner. The
// helper records whether it can still read MT after that inner call
// returns, and what it holds then; tenantA records its rights before and
// after the callback.
type nestedHelperWorld struct {
	rt                     *Runtime
	secret                 vm.Addr
	helperRights           mpk.PKRU
	helperReadErr          error
	inA, backInA, afterAll mpk.PKRU
}

func newNestedHelperWorld(t *testing.T, inner func(th *Thread) error) *nestedHelperWorld {
	t.Helper()
	rt, _, _ := domainWorld(t)
	w := &nestedHelperWorld{rt: rt}
	var err error
	if w.secret, err = rt.Alloc.Alloc(8); err != nil {
		t.Fatal(err)
	}
	reg := rt.Registry
	reg.MustLibrary("tenantB", Untrusted).Define("leaf", func(*Thread, []uint64) ([]uint64, error) { return nil, nil })
	reg.MustLibrary("plain", Untrusted).Define("leaf", func(*Thread, []uint64) ([]uint64, error) { return nil, nil })
	reg.MustLibrary("helper", Trusted).Define("help", func(th *Thread, _ []uint64) ([]uint64, error) {
		if err := inner(th); err != nil {
			return nil, err
		}
		w.helperRights = th.VM.Rights()
		_, w.helperReadErr = th.Load64(w.secret)
		return nil, nil
	})
	reg.MustLibrary("tenantA", Untrusted).Define("outer", func(th *Thread, _ []uint64) ([]uint64, error) {
		w.inA = th.VM.Rights()
		if _, err := th.Call("helper", "help"); err != nil {
			return nil, err
		}
		w.backInA = th.VM.Rights()
		return nil, nil
	})
	th := rt.NewThread()
	if _, err := th.Call("tenantA", "outer"); err != nil {
		t.Fatal(err)
	}
	w.afterAll = th.VM.Rights()
	return w
}

// check asserts the helper resumed trusted and every gate restored its
// caller's compartment.
func (w *nestedHelperWorld) check(t *testing.T) {
	t.Helper()
	if w.helperRights != mpk.PermitAll || w.helperReadErr != nil {
		t.Errorf("trusted helper resumed with %v (MT read: %v), want PermitAll", w.helperRights, w.helperReadErr)
	}
	if w.backInA != w.inA {
		t.Errorf("tenantA after the callback holds %v, want its own %v", w.backInA, w.inA)
	}
	if w.afterAll != mpk.PermitAll || w.rt.Aborted() {
		t.Errorf("after the call: rights %v, aborted %v", w.afterAll, w.rt.Aborted())
	}
}

// TestReverseGateInDomainSurvivesDomainCall: a domain gate taken from a
// trusted helper that tenantA called back into must return to the helper's
// full rights — the compartment of the frame below it — not to tenantA's.
func TestReverseGateInDomainSurvivesDomainCall(t *testing.T) {
	newNestedHelperWorld(t, func(th *Thread) error {
		_, err := th.Call("tenantB", "leaf")
		return err
	}).check(t)
}

// TestReverseGateInDomainSurvivesPlainGate: the same nesting with the
// inner call into an unbound untrusted library, whose plain gate's exit
// must restore the helper's rights too.
func TestReverseGateInDomainSurvivesPlainGate(t *testing.T) {
	newNestedHelperWorld(t, func(th *Thread) error {
		_, err := th.Call("plain", "leaf")
		return err
	}).check(t)
}

// TestUnwindInReverseGateKeepsTrusted: unwinding to a checkpoint taken in
// the trusted helper restores the helper's own compartment, full rights,
// and leaves the domain below it to be re-derived on return.
func TestUnwindInReverseGateKeepsTrusted(t *testing.T) {
	newNestedHelperWorld(t, func(th *Thread) error {
		return th.Unwind(th.Checkpoint())
	}).check(t)
}

// TestDomainRightsFailureFailsClosed: if activating the domain's key
// fails, the call must not proceed with the caller's rights.
func TestDomainRightsFailureFailsClosed(t *testing.T) {
	rt, table, ids := domainWorld(t)
	reg := rt.Registry
	ran := false
	reg.MustLibrary("tenantA", Untrusted).Define("f", func(*Thread, []uint64) ([]uint64, error) {
		ran = true
		return nil, nil
	})
	// Freeing the logical key makes the Rights callback error.
	if err := table.Free(ids["tenantA"]); err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	if _, err := th.Call("tenantA", "f"); !errors.Is(err, vkey.ErrUnknownKey) {
		t.Fatalf("call with dead domain key = %v, want ErrUnknownKey", err)
	}
	if ran {
		t.Error("callee ran despite rights-activation failure")
	}
}
