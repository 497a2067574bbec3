package vm

import (
	"errors"
	"testing"

	"repro/internal/mpk"
	"repro/internal/sig"
)

// wantPKUFault checks that err is an unhandled SEGV_PKUERR naming key.
func wantPKUFault(t *testing.T, err error, key mpk.Key) {
	t.Helper()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if f.Info.Sig != sig.SIGSEGV || f.Info.Code != sig.CodePKUErr || f.Info.PKey != uint8(key) {
		t.Fatalf("fault = %v, want SEGV_PKUERR pkey=%d", f.Info, key)
	}
}

// TestWarmTranslationSeesRetag: a retag after the thread cached the page
// must decide the very next access, with the new key in the siginfo —
// the cache holds the page, never its key.
func TestWarmTranslationSeesRetag(t *testing.T) {
	retags := map[string]func(s *Space, base Addr, size uint64, key mpk.Key) error{
		"SetPKey":    (*Space).SetPKey,
		"SetPageKey": (*Space).SetPageKey,
	}
	for name, retag := range retags {
		t.Run(name, func(t *testing.T) {
			s, th := newTestThread(t, 1)
			th.SetRights(mpk.PermitAll.With(3, mpk.DenyAll))
			if _, err := th.Load64(testBase); err != nil { // warm the entry
				t.Fatal(err)
			}
			if err := retag(s, testBase, PageSize, 3); err != nil {
				t.Fatal(err)
			}
			_, err := th.Load64(testBase)
			wantPKUFault(t, err, 3)
			if got := th.Stats().PKUFaults; got != 1 {
				t.Errorf("PKUFaults = %d, want 1", got)
			}
			// Retagging back re-opens the page through the same entry.
			if err := retag(s, testBase, PageSize, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := th.Load64(testBase); err != nil {
				t.Errorf("load after retag back: %v", err)
			}
		})
	}
}

// TestZeroResidentThroughWarmCaches: quarantine scrubs pages in place, so
// a warm View and a warm Thread both read the zeroes.
func TestZeroResidentThroughWarmCaches(t *testing.T) {
	s, th := newTestThread(t, 0)
	v := NewView(s)
	var b [8]byte
	b[0] = 0xaa
	if err := v.Poke(testBase, b[:]); err != nil {
		t.Fatal(err)
	}
	if got, _ := th.Load8(testBase); got != 0xaa { // warm the thread too
		t.Fatalf("thread read %#x before scrub, want 0xaa", got)
	}
	if err := s.ZeroResident(testBase, PageSize); err != nil {
		t.Fatal(err)
	}
	b[0] = 0xff
	if err := v.Peek(testBase, b[:]); err != nil || b[0] != 0 {
		t.Errorf("View after scrub = %#x, %v; want 0", b[0], err)
	}
	if got, _ := th.Load8(testBase); got != 0 {
		t.Errorf("Thread after scrub = %#x, want 0", got)
	}
}

// aliasOf returns the first page above a, within the test reservation,
// that maps to the same slot of a cache with n entries.
func aliasOf(t *testing.T, n int, a Addr) Addr {
	t.Helper()
	c := make(tlb, n)
	for b := a + PageSize; b < testBase+Addr(testSize); b += PageSize {
		if c.index(b.PageIndex()) == c.index(a.PageIndex()) {
			return b
		}
	}
	t.Fatalf("no page aliasing %v in a %d-entry cache", a, n)
	return 0
}

// TestAliasedSlotsResolveOwnPages: two pages whose vpns share a cache slot
// must keep displacing each other, never answer for each other.
func TestAliasedSlotsResolveOwnPages(t *testing.T) {
	s, th := newTestThread(t, 0)
	a := testBase
	b := aliasOf(t, threadTLBSize, a)
	for i := uint64(0); i < 4; i++ {
		if err := th.Store64(a, 100+i); err != nil {
			t.Fatal(err)
		}
		if err := th.Store64(b, 200+i); err != nil {
			t.Fatal(err)
		}
		if va, _ := th.Load64(a); va != 100+i {
			t.Fatalf("round %d: Load64(a) = %d, want %d", i, va, 100+i)
		}
		if vb, _ := th.Load64(b); vb != 200+i {
			t.Fatalf("round %d: Load64(b) = %d, want %d", i, vb, 200+i)
		}
	}
	v := NewView(s)
	c := aliasOf(t, viewTLBSize, a)
	var w [1]byte
	for _, x := range []struct {
		addr Addr
		val  byte
	}{{a, 1}, {c, 2}, {a, 1}, {c, 2}} {
		w[0] = x.val
		if err := v.Poke(x.addr+8, w[:]); err != nil {
			t.Fatal(err)
		}
		if err := v.Peek(x.addr+8, w[:]); err != nil || w[0] != x.val {
			t.Errorf("View.Peek(%v) = %d, %v; want %d", x.addr+8, w[0], err, x.val)
		}
	}
}

// TestPageZeroResolves: an empty cache entry also carries vpn 0, so the
// page at address 0 must not be mistaken for a hit on an empty entry — in
// either direction.
func TestPageZeroResolves(t *testing.T) {
	s := NewSpace()
	th := NewThread(s, nil)
	if _, err := th.Load64(0); err == nil {
		t.Fatal("load of unreserved address 0 succeeded")
	}
	if _, err := s.Reserve("zero", 0, PageSize, 2); err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(0, 42); err != nil {
		t.Fatalf("store to reserved page 0: %v", err)
	}
	if v, err := th.Load64(0); err != nil || v != 42 {
		t.Errorf("Load64(0) = %d, %v; want 42", v, err)
	}
	fresh := NewThread(s, nil) // empty cache: every entry has vpn 0
	fresh.SetRights(mpk.PermitAll.With(2, mpk.DenyAll))
	_, err := fresh.Load64(0)
	wantPKUFault(t, err, 2)
	var b [8]byte
	v := NewView(s)
	if err := v.Peek(0, b[:]); err != nil || b[0] != 42 {
		t.Errorf("View.Peek(0) = %d, %v; want 42", b[0], err)
	}
}

// TestWarmLoadAllocs: a checked load on a cached page allocates nothing.
func TestWarmLoadAllocs(t *testing.T) {
	_, th := newTestThread(t, 0)
	if _, err := th.Load64(testBase); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { _, _ = th.Load64(testBase) }); n != 0 {
		t.Errorf("warm Load64 allocates %v per op, want 0", n)
	}
}

// TestDeniedLoadAllocs: a denied load allocates its *Fault and nothing
// else — the siginfo handlers see is the fault's own Info, and nothing
// is formatted until someone prints the error.
func TestDeniedLoadAllocs(t *testing.T) {
	_, th := newTestThread(t, 3)
	th.SetRights(mpk.PermitAll.With(3, mpk.DenyAll))
	if _, err := th.Load64(testBase); err == nil {
		t.Fatal("load of a denied page succeeded")
	}
	if n := testing.AllocsPerRun(1000, func() { _, _ = th.Load64(testBase) }); n != 1 {
		t.Errorf("denied Load64 allocates %v per op, want 1", n)
	}
}

// TestStaleTranslationInjection: the planted bug serves the key cached
// at fill time, so a retag that should lock the thread out is missed;
// clearing it restores the faithful path.
func TestStaleTranslationInjection(t *testing.T) {
	s, th := newTestThread(t, 1)
	th.InjectStaleTranslation(true)
	th.SetRights(mpk.PermitAll.With(3, mpk.DenyAll))
	if _, err := th.Load64(testBase); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPKey(testBase, PageSize, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Load64(testBase); err != nil {
		t.Fatalf("planted stale translation still faulted: %v", err)
	}
	th.InjectStaleTranslation(false)
	_, err := th.Load64(testBase)
	wantPKUFault(t, err, 3)
}
