package domains

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/mpk"
	"repro/internal/vkey"
	"repro/internal/vm"
)

func newManager(t testing.TB) (*Manager, *vm.Thread) {
	t.Helper()
	s := vm.NewSpace()
	m, err := NewManager(s)
	if err != nil {
		t.Fatal(err)
	}
	return m, vm.NewThread(s, nil)
}

func enter(t *testing.T, m *Manager, th *vm.Thread, d *Domain) func() {
	t.Helper()
	restore, err := m.Enter(th, d)
	if err != nil {
		t.Fatalf("Enter(%v): %v", d, err)
	}
	return func() {
		if err := restore(); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
}

func TestAddDomainAssignsDistinctSlots(t *testing.T) {
	m, th := newManager(t)
	a, err := m.AddDomain("js")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.AddDomain("codec")
	if err != nil {
		t.Fatal(err)
	}
	if a.VKey == b.VKey {
		t.Errorf("logical keys collide: js=%v codec=%v", a.VKey, b.VKey)
	}
	if _, err := m.AddDomain("js"); err == nil {
		t.Error("duplicate domain accepted")
	}
	if got, ok := m.Domain("codec"); !ok || got != b {
		t.Error("Domain lookup failed")
	}
	if len(m.Domains()) != 2 {
		t.Errorf("Domains() = %d", len(m.Domains()))
	}
	// Entered domains hold distinct hardware slots.
	ra := enter(t, m, th, a)
	ka, _ := m.Table().HardwareKey(a.VKey)
	ra()
	rb := enter(t, m, th, b)
	kb, _ := m.Table().HardwareKey(b.VKey)
	rb()
	if ka == kb || ka == m.TrustedKey() || kb == 0 {
		t.Errorf("slot assignment: js=%v codec=%v", ka, kb)
	}
}

// TestUnboundedDomains replaces the old key-exhaustion test: the 14-key
// hardware ceiling is gone — domain count is limited by address space,
// not protection keys.
func TestUnboundedDomains(t *testing.T) {
	m, th := newManager(t)
	const n = 40 // well past the 16 hardware keys
	doms := make([]*Domain, n)
	for i := range doms {
		d, err := m.AddDomain(fmt.Sprintf("tenant%02d", i))
		if err != nil {
			t.Fatalf("AddDomain %d: %v", i, err)
		}
		doms[i] = d
	}
	// Every domain can still be entered and can touch its own pool.
	for i, d := range doms {
		buf, err := m.Alloc(d, 16)
		if err != nil {
			t.Fatalf("Alloc in %s: %v", d.Name, err)
		}
		if err := th.Store64(buf, uint64(i)); err != nil {
			t.Fatalf("trusted init: %v", err)
		}
		restore := enter(t, m, th, d)
		if _, err := th.Load64(buf); err != nil {
			t.Errorf("%s cannot read its own pool after multiplexing: %v", d.Name, err)
		}
		restore()
	}
	st := m.Table().Stats()
	if st.Logical != n {
		t.Errorf("Logical = %d, want %d", st.Logical, n)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite more domains than slots")
	}
}

// TestChurnRecyclesKeysAndRegions is the key-leak regression: the old
// manager's nextKey only incremented, so 14 AddDomain/Remove cycles
// bricked it permanently. Churn must recycle both hardware slots and
// address-space reservations.
func TestChurnRecyclesKeysAndRegions(t *testing.T) {
	m, th := newManager(t)
	regionsBefore := -1
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("churn%d", i)
		d, err := m.AddDomain(name)
		if err != nil {
			t.Fatalf("AddDomain cycle %d: %v", i, err)
		}
		buf, err := m.Alloc(d, 64)
		if err != nil {
			t.Fatalf("Alloc cycle %d: %v", i, err)
		}
		if err := th.Store64(buf, 0xdead); err != nil {
			t.Fatal(err)
		}
		restore := enter(t, m, th, d)
		if _, err := th.Load64(buf); err != nil {
			t.Fatalf("cycle %d: own pool unreadable: %v", i, err)
		}
		restore()
		if err := m.RemoveDomain(name); err != nil {
			t.Fatalf("RemoveDomain cycle %d: %v", i, err)
		}
		// The pool was scrubbed: the value is gone even for trusted code.
		if v, err := th.Load64(buf); err == nil && v == 0xdead {
			t.Fatalf("cycle %d: removed pool not scrubbed", i)
		}
		if n := len(m.Space().Regions()); regionsBefore == -1 {
			regionsBefore = n
		} else if n != regionsBefore {
			t.Fatalf("cycle %d: region count grew %d -> %d (reservation leak)", i, regionsBefore, n)
		}
	}
	st := m.Table().Stats()
	if st.Logical != 0 {
		t.Errorf("Logical = %d after full churn, want 0", st.Logical)
	}
	if st.Recycled == 0 {
		t.Error("no hardware slots recycled across 100 remove cycles")
	}
}

// TestMutualIsolation is the point of the extension: domain A can touch
// the shared pool and its own pool, but neither MT nor domain B's pool.
func TestMutualIsolation(t *testing.T) {
	m, th := newManager(t)
	js, err := m.AddDomain("js")
	if err != nil {
		t.Fatal(err)
	}
	codec, err := m.AddDomain("codec")
	if err != nil {
		t.Fatal(err)
	}
	secretT, err := m.AllocTrusted(8)
	if err != nil {
		t.Fatal(err)
	}
	sharedBuf, err := m.AllocShared(8)
	if err != nil {
		t.Fatal(err)
	}
	jsBuf, err := m.Alloc(js, 8)
	if err != nil {
		t.Fatal(err)
	}
	codecBuf, err := m.Alloc(codec, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Trusted initializes everything: full rights reach even pages still
	// parked on the inactive key.
	for _, a := range []vm.Addr{secretT, sharedBuf, jsBuf, codecBuf} {
		if err := th.Store64(a, 7); err != nil {
			t.Fatalf("trusted init of %v: %v", a, err)
		}
	}

	restore := enter(t, m, th, js)
	if _, err := th.Load64(sharedBuf); err != nil {
		t.Errorf("js cannot read shared pool: %v", err)
	}
	if _, err := th.Load64(jsBuf); err != nil {
		t.Errorf("js cannot read its own pool: %v", err)
	}
	if _, err := th.Load64(secretT); err == nil {
		t.Error("js read MT")
	}
	if _, err := th.Load64(codecBuf); err == nil {
		t.Error("js read codec's private pool")
	}
	if err := th.Store64(codecBuf, 9); err == nil {
		t.Error("js wrote codec's private pool")
	}
	restore()
	if th.Rights() != mpk.PermitAll {
		t.Errorf("rights after restore = %v", th.Rights())
	}
}

// TestNestedEntry: domain A -> trusted callback -> domain B unwinds to
// the caller's compartment at each level — re-activated, not replayed
// from saved PKRU bits.
func TestNestedEntry(t *testing.T) {
	m, th := newManager(t)
	a, _ := m.AddDomain("a")
	b, _ := m.AddDomain("b")
	aBuf, err := m.Alloc(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(aBuf, 1); err != nil {
		t.Fatal(err)
	}

	restoreA := enter(t, m, th, a)
	inA := th.Rights()
	if inA == mpk.PermitAll {
		t.Fatal("in A: rights not restricted")
	}
	restoreT := enter(t, m, th, nil) // reverse gate into T
	if th.Rights() != mpk.PermitAll {
		t.Fatalf("in T: rights = %v", th.Rights())
	}
	restoreB := enter(t, m, th, b)
	if th.Rights() == mpk.PermitAll || th.Rights() == inA {
		t.Fatalf("in B: rights = %v", th.Rights())
	}
	restoreB()
	if th.Rights() != mpk.PermitAll {
		t.Errorf("after B: rights = %v, want T", th.Rights())
	}
	restoreT()
	// Back in A: the semantic test is access, not the raw PKRU value —
	// A may have been re-activated onto a different hardware slot.
	if _, err := th.Load64(aBuf); err != nil {
		t.Errorf("after T: cannot read A's pool: %v", err)
	}
	restoreA()
	if th.Rights() != mpk.PermitAll {
		t.Errorf("after A: rights = %v, want initial", th.Rights())
	}
}

// TestRestoreSurvivesEviction is the stale-PKRU regression the
// re-activate-on-restore design exists for: while a thread is parked in
// a trusted callback, churn through more domains than there are hardware
// slots evicts the caller's slot and rebinds it to another tenant.
// Restore must re-enter the caller's domain on a fresh slot — and must
// not be able to read the tenant now occupying the old slot.
func TestRestoreSurvivesEviction(t *testing.T) {
	m, th := newManager(t)
	victim, err := m.AddDomain("victim")
	if err != nil {
		t.Fatal(err)
	}
	vBuf, err := m.Alloc(victim, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(vBuf, 42); err != nil {
		t.Fatal(err)
	}

	restoreV := enter(t, m, th, victim)
	restoreT := enter(t, m, th, nil)

	// Churn: enough other domains to cycle every hardware slot.
	slots := m.Table().Slots()
	var others []*Domain
	for i := 0; i <= slots; i++ {
		d, err := m.AddDomain(fmt.Sprintf("other%d", i))
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, d)
		r := enter(t, m, th, d)
		r()
	}
	if st := m.Table().Stats(); st.Evictions == 0 {
		t.Fatal("churn produced no evictions")
	}
	otherBuf, err := m.Alloc(others[len(others)-1], 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(otherBuf, 99); err != nil {
		t.Fatal(err)
	}

	restoreT()
	// Back in the victim domain: own pool readable (fresh slot) …
	if v, err := th.Load64(vBuf); err != nil || v != 42 {
		t.Errorf("victim pool after eviction: %v, %v", v, err)
	}
	// … and the domain that inherited the old slot stays off-limits.
	if _, err := th.Load64(otherBuf); err == nil {
		t.Error("victim read another tenant's pool after slot rebinding")
	}
	restoreV()
}

// tamperedRegister models a WRPKRU that silently fails to take effect —
// the attack the write-then-readback audit exists to catch.
type tamperedRegister struct {
	r       mpk.PKRU
	ignores bool
}

func (f *tamperedRegister) Rights() mpk.PKRU { return f.r }
func (f *tamperedRegister) SetRights(p mpk.PKRU) {
	if !f.ignores {
		f.r = p
	}
}

func TestEnterAuditCatchesTamperedRegister(t *testing.T) {
	m, _ := newManager(t)
	d, err := m.AddDomain("js")
	if err != nil {
		t.Fatal(err)
	}
	reg := &tamperedRegister{ignores: true}
	if _, err := m.Enter(reg, d); !errors.Is(err, mpk.ErrRightsAudit) {
		t.Fatalf("Enter on tampered register = %v, want ErrRightsAudit", err)
	}
	// Restore is audited too: tamper after a clean enter.
	reg = &tamperedRegister{}
	restore, err := m.Enter(reg, d)
	if err != nil {
		t.Fatalf("clean Enter: %v", err)
	}
	reg.ignores = true
	if err := restore(); !errors.Is(err, mpk.ErrRightsAudit) {
		t.Fatalf("restore on tampered register = %v, want ErrRightsAudit", err)
	}
}

// TestRemoveDomainRefusedWhileEntered: destroying a domain a thread is
// currently inside (or due to return into) would strand that thread —
// its pages vanish mid-execution and its restore could not re-derive the
// compartment. Removal must be refused until every frame has left.
func TestRemoveDomainRefusedWhileEntered(t *testing.T) {
	m, th := newManager(t)
	d, err := m.AddDomain("busy")
	if err != nil {
		t.Fatal(err)
	}
	restore := enter(t, m, th, d)
	if err := m.RemoveDomain("busy"); !errors.Is(err, vkey.ErrKeyBusy) {
		t.Fatalf("RemoveDomain while entered = %v, want ErrKeyBusy", err)
	}
	// The domain survived the refused removal intact.
	if _, ok := m.Domain("busy"); !ok {
		t.Fatal("refused removal still deleted the domain")
	}
	// Nested deeper: the domain is below the top frame, still busy.
	restoreT := enter(t, m, th, nil)
	if err := m.RemoveDomain("busy"); !errors.Is(err, vkey.ErrKeyBusy) {
		t.Fatalf("RemoveDomain while on a lower frame = %v, want ErrKeyBusy", err)
	}
	restoreT()
	restore()
	if err := m.RemoveDomain("busy"); err != nil {
		t.Fatalf("RemoveDomain after full exit: %v", err)
	}
}

// TestRestoreRetriableAfterAuditFailure: a restore whose rights
// installation fails the write-then-readback audit must leave the entry
// stack intact, so a retry converges on the caller's compartment instead
// of unwinding past the caller's own frame.
func TestRestoreRetriableAfterAuditFailure(t *testing.T) {
	m, _ := newManager(t)
	a, err := m.AddDomain("a")
	if err != nil {
		t.Fatal(err)
	}
	reg := &tamperedRegister{}
	restoreA, err := m.Enter(reg, a)
	if err != nil {
		t.Fatal(err)
	}
	inA := reg.Rights()
	restoreT, err := m.Enter(reg, nil) // reverse gate into T
	if err != nil {
		t.Fatal(err)
	}
	reg.ignores = true
	if err := restoreT(); !errors.Is(err, mpk.ErrRightsAudit) {
		t.Fatalf("tampered restore = %v, want ErrRightsAudit", err)
	}
	reg.ignores = false
	// The failed restore did not pop the frame: the retry lands back in
	// domain a, not past it in the initial compartment.
	if err := restoreT(); err != nil {
		t.Fatalf("retried restore: %v", err)
	}
	if got := reg.Rights(); got != inA {
		t.Fatalf("rights after retried restore = %v, want %v (domain a)", got, inA)
	}
	if err := restoreA(); err != nil {
		t.Fatalf("final restore: %v", err)
	}
	if reg.Rights() != mpk.PermitAll {
		t.Fatalf("rights after full unwind = %v, want PermitAll", reg.Rights())
	}
}

func TestFreeDispatch(t *testing.T) {
	m, _ := newManager(t)
	js, _ := m.AddDomain("js")
	addrs := []vm.Addr{}
	for _, alloc := range []func() (vm.Addr, error){
		func() (vm.Addr, error) { return m.AllocTrusted(32) },
		func() (vm.Addr, error) { return m.AllocShared(32) },
		func() (vm.Addr, error) { return m.Alloc(js, 32) },
	} {
		a, err := alloc()
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := m.Free(a); err != nil {
			t.Errorf("Free(%v): %v", a, err)
		}
	}
	if err := m.Free(0x42); err == nil {
		t.Error("free of unowned address accepted")
	}
}

func TestDomainPagesCarrySlotKeyWhileActive(t *testing.T) {
	m, th := newManager(t)
	js, _ := m.AddDomain("js")
	buf, err := m.Alloc(js, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(buf, 1); err != nil {
		t.Fatal(err)
	}
	restore := enter(t, m, th, js)
	hw, ok := m.Table().HardwareKey(js.VKey)
	if !ok {
		t.Fatal("entered domain holds no slot")
	}
	if k, ok := m.Space().PKeyAt(buf); !ok || k != hw {
		t.Errorf("active domain page key = %v, want slot %v", k, hw)
	}
	restore()
}

// TestConcurrentChurn drives AddDomain/Enter/Remove from many goroutines
// (the -race coverage the eviction and revocation paths need). Each
// worker churns its own tenants on its own thread; evictions still
// interleave globally through the shared table.
func TestConcurrentChurn(t *testing.T) {
	m, _ := newManager(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := vm.NewThread(m.Space(), nil)
			for i := 0; i < 30; i++ {
				name := fmt.Sprintf("w%d-t%d", w, i)
				d, err := m.AddDomain(name)
				if err != nil {
					t.Errorf("AddDomain: %v", err)
					return
				}
				buf, err := m.Alloc(d, 32)
				if err != nil {
					t.Errorf("Alloc: %v", err)
					return
				}
				if err := th.Store64(buf, uint64(i)); err != nil {
					t.Errorf("init: %v", err)
					return
				}
				restore, err := m.Enter(th, d)
				if err != nil {
					t.Errorf("Enter: %v", err)
					return
				}
				// Best-effort read: a concurrent eviction of our slot
				// between Enter and Load revokes rights mid-flight
				// (correct behavior — retry via re-entry would succeed).
				_, _ = th.Load64(buf)
				if err := restore(); err != nil {
					t.Errorf("restore: %v", err)
					return
				}
				if i%2 == 0 {
					if err := m.RemoveDomain(name); err != nil {
						t.Errorf("RemoveDomain: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := m.Table().Stats()
	if st.Active > m.Table().Slots() {
		t.Fatalf("Active = %d exceeds %d slots", st.Active, m.Table().Slots())
	}
}

// BenchmarkFreeManyDomains guards the O(1) Free path: releasing an
// allocation must not linear-scan the domain pools, so ns/op should be
// flat as the pool count grows.
func BenchmarkFreeManyDomains(b *testing.B) {
	for _, nDomains := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("domains=%d", nDomains), func(b *testing.B) {
			m, _ := newManager(b)
			var last *Domain
			for i := 0; i < nDomains; i++ {
				d, err := m.AddDomain(fmt.Sprintf("d%d", i))
				if err != nil {
					b.Fatal(err)
				}
				last = d
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := m.Alloc(last, 64)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Free(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// vkeyMissWorld builds a bare manager with n tenants, each holding one
// resident page, and returns the logical keys of the first 14. Activating
// those 14 round-robin on the 13 hardware slots misses and evicts on every
// call once each has been activated once.
func vkeyMissWorld(tb testing.TB, n int) (*Manager, []vkey.ID) {
	tb.Helper()
	m, _ := newManager(tb)
	var ids []vkey.ID
	for i := 0; i < n; i++ {
		d, err := m.AddDomain(fmt.Sprintf("t%d", i))
		if err != nil {
			tb.Fatal(err)
		}
		a, err := m.Alloc(d, 64)
		if err != nil {
			tb.Fatal(err)
		}
		if err := m.Space().Poke(a, []byte{1}); err != nil {
			tb.Fatal(err)
		}
		if len(ids) < m.Table().Slots()+1 {
			ids = append(ids, d.VKey)
		}
	}
	if len(ids) != m.Table().Slots()+1 {
		tb.Fatalf("%d tenants cannot overcommit %d slots", n, m.Table().Slots())
	}
	for _, id := range ids {
		if _, _, err := m.Table().Activate(id); err != nil {
			tb.Fatal(err)
		}
	}
	return m, ids
}

// TestVKeyMissAllocs pins the eviction path allocation-free: a miss that
// evicts retags two pools and rewrites a slot without touching the heap.
func TestVKeyMissAllocs(t *testing.T) {
	m, ids := vkeyMissWorld(t, 32)
	before := m.Table().Stats().Evictions
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		_, miss, err := m.Table().Activate(ids[i%len(ids)])
		if err != nil || !miss {
			t.Fatalf("activation %d: miss=%v err=%v, want an evicting miss", i, miss, err)
		}
		i++
	})
	if got := m.Table().Stats().Evictions - before; got != uint64(i) {
		t.Fatalf("%d activations evicted %d times, want every one", i, got)
	}
	if allocs != 0 {
		t.Errorf("an evicting vkey miss allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkVKeyMiss measures one evicting activation as the number of
// resident tenants grows: the retag must cost per page of the two pools it
// moves, so ns/op should be flat from 32 to 512 tenants.
func BenchmarkVKeyMiss(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("tenants=%d", n), func(b *testing.B) {
			m, ids := vkeyMissWorld(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.Table().Activate(ids[i%len(ids)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
