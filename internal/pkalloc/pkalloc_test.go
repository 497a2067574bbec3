package pkalloc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mpk"
	"repro/internal/vm"
)

func newAlloc(t *testing.T) (*vm.Space, *Allocator) {
	t.Helper()
	s := vm.NewSpace()
	a, err := New(Config{Space: s})
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without Space accepted")
	}
	s := vm.NewSpace()
	if _, err := New(Config{Space: s, TrustedBase: DefaultUntrustedBase}); err == nil {
		t.Error("overlapping pools accepted")
	}
}

func TestDefaultsAndRegions(t *testing.T) {
	_, a := newAlloc(t)
	if a.TrustedKey() != DefaultTrustedKey {
		t.Errorf("trusted key = %v", a.TrustedKey())
	}
	rT, rU := a.TrustedRegion(), a.UntrustedRegion()
	if rT.Size != DefaultTrustedSize {
		t.Errorf("MT size = %#x, want 46-bit reservation %#x", rT.Size, DefaultTrustedSize)
	}
	if rT.PKey == rU.PKey {
		t.Error("MT and MU must carry different protection keys")
	}
	if rU.PKey != 0 {
		t.Errorf("MU key = %v, want default key 0", rU.PKey)
	}
}

func TestPoolPlacement(t *testing.T) {
	_, a := newAlloc(t)
	at, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	au, err := a.UntrustedAlloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := a.CompartmentOf(at); !ok || c != Trusted {
		t.Errorf("CompartmentOf(trusted) = %v, %v", c, ok)
	}
	if c, ok := a.CompartmentOf(au); !ok || c != Untrusted {
		t.Errorf("CompartmentOf(untrusted) = %v, %v", c, ok)
	}
	if _, ok := a.CompartmentOf(0x1000); ok {
		t.Error("CompartmentOf(outside) should fail")
	}
}

func TestAllocIn(t *testing.T) {
	_, a := newAlloc(t)
	at, err := a.AllocIn(Trusted, 64)
	if err != nil || !a.TrustedRegion().Contains(at) {
		t.Errorf("AllocIn(Trusted) = %v, %v", at, err)
	}
	au, err := a.AllocIn(Untrusted, 64)
	if err != nil || !a.UntrustedRegion().Contains(au) {
		t.Errorf("AllocIn(Untrusted) = %v, %v", au, err)
	}
}

func TestMTPagesCarryTrustedKey(t *testing.T) {
	s, a := newAlloc(t)
	at, _ := a.Alloc(64)
	au, _ := a.UntrustedAlloc(64)
	th := vm.NewThread(s, nil)
	// Touch both so pages become resident, then verify their keys.
	if err := th.Store8(at, 1); err != nil {
		t.Fatal(err)
	}
	if err := th.Store8(au, 1); err != nil {
		t.Fatal(err)
	}
	if k, _ := s.PKeyAt(at); k != a.TrustedKey() {
		t.Errorf("MT page key = %v, want %v", k, a.TrustedKey())
	}
	if k, _ := s.PKeyAt(au); k != 0 {
		t.Errorf("MU page key = %v, want 0", k)
	}
	// With MT locked out, MU stays reachable and MT faults.
	th.SetRights(mpk.PermitAll.With(a.TrustedKey(), mpk.DenyAll))
	if _, err := th.Load8(au); err != nil {
		t.Errorf("MU access under locked PKRU failed: %v", err)
	}
	if _, err := th.Load8(at); err == nil {
		t.Error("MT access under locked PKRU should fault")
	}
}

func TestFreeDispatchesByPool(t *testing.T) {
	_, a := newAlloc(t)
	at, _ := a.Alloc(100)
	au, _ := a.UntrustedAlloc(100)
	if err := a.Free(at); err != nil {
		t.Errorf("Free(MT): %v", err)
	}
	if err := a.Free(au); err != nil {
		t.Errorf("Free(MU): %v", err)
	}
	if err := a.Free(0x42); !errors.Is(err, ErrNotOwned) {
		t.Errorf("Free(outside) = %v, want ErrNotOwned", err)
	}
	st := a.Stats()
	if st.Trusted.Frees != 1 || st.Untrusted.Frees != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestReallocStaysInPool is the core provenance invariant: reallocation
// never migrates an object between MT and MU (§4.2).
func TestReallocStaysInPool(t *testing.T) {
	s, a := newAlloc(t)
	for _, c := range []Compartment{Trusted, Untrusted} {
		addr, err := a.AllocIn(c, 40)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Poke(addr, []byte("hello, compartment!")); err != nil {
			t.Fatal(err)
		}
		cur := addr
		for _, sz := range []uint64{10, 200, 5000, 100000, 3} {
			next, err := a.Realloc(cur, sz)
			if err != nil {
				t.Fatalf("Realloc(%v -> %d): %v", cur, sz, err)
			}
			got, ok := a.CompartmentOf(next)
			if !ok || got != c {
				t.Fatalf("realloc moved object from %v to %v", c, got)
			}
			cur = next
		}
		buf := make([]byte, 3) // last realloc shrank to >= 3 usable
		if err := s.Peek(cur, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "hel" {
			t.Errorf("payload lost across reallocs: %q", buf)
		}
		if err := a.Free(cur); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReallocOfDeadPointer(t *testing.T) {
	_, a := newAlloc(t)
	addr, _ := a.Alloc(10)
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Realloc(addr, 50); err == nil {
		t.Error("realloc of freed pointer accepted")
	}
	if _, err := a.Realloc(0x1234, 50); !errors.Is(err, ErrNotOwned) {
		t.Errorf("realloc outside pools = %v", err)
	}
}

func TestUsableSize(t *testing.T) {
	_, a := newAlloc(t)
	at, _ := a.Alloc(100)
	if us, ok := a.UsableSize(at); !ok || us < 100 {
		t.Errorf("UsableSize = %d, %v", us, ok)
	}
	if _, ok := a.UsableSize(0x99); ok {
		t.Error("UsableSize outside pools should fail")
	}
}

func TestUntrustedShare(t *testing.T) {
	_, a := newAlloc(t)
	if got := a.Stats().UntrustedShare(); got != 0 {
		t.Errorf("empty share = %v", got)
	}
	if _, err := a.Alloc(3000); err != nil {
		t.Fatal(err)
	}
	if _, err := a.UntrustedAlloc(1000); err != nil {
		t.Fatal(err)
	}
	share := a.Stats().UntrustedShare()
	if share <= 0 || share >= 1 {
		t.Errorf("share = %v, want in (0,1)", share)
	}
	// Requested 1000 of ~4096 total; the arena rounds 3000 up to its size
	// class, so the share lands near but not exactly at 0.25.
	if share < 0.15 || share > 0.4 {
		t.Errorf("share = %v, implausible for 1000/4096 split", share)
	}
}

// Property: pool disjointness under arbitrary interleaved traffic — every
// address from Alloc is in MT, every address from UntrustedAlloc is in MU,
// and no address is in both.
func TestPoolDisjointnessProperty(t *testing.T) {
	s := vm.NewSpace()
	a, err := New(Config{Space: s})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw%50) + 1
		var live []vm.Addr
		for i := 0; i < ops; i++ {
			sz := uint64(rng.Intn(9000) + 1)
			var addr vm.Addr
			var err error
			want := Trusted
			if rng.Intn(2) == 0 {
				want = Untrusted
			}
			addr, err = a.AllocIn(want, sz)
			if err != nil {
				return false
			}
			inT := a.TrustedRegion().Contains(addr)
			inU := a.UntrustedRegion().Contains(addr)
			if inT == inU { // both or neither
				return false
			}
			if (want == Trusted) != inT {
				return false
			}
			live = append(live, addr)
			if len(live) > 3 && rng.Intn(3) == 0 {
				j := rng.Intn(len(live))
				if a.Free(live[j]) != nil {
					return false
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for _, addr := range live {
			if a.Free(addr) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	_, a := newAlloc(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 300; i++ {
				c := Compartment(uint8(g+i) % 2)
				addr, err := a.AllocIn(c, uint64(i%500+1))
				if err != nil {
					done <- err
					return
				}
				if err := a.Free(addr); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Trusted.BytesLive != 0 || st.Untrusted.BytesLive != 0 {
		t.Errorf("live bytes after drain: %+v", st)
	}
}

func TestCompartmentString(t *testing.T) {
	if Trusted.String() != "MT" || Untrusted.String() != "MU" {
		t.Error("compartment names wrong")
	}
}

func TestQuarantineUntrustedResetsPool(t *testing.T) {
	s, a := newAlloc(t)
	mt, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke(mt, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	mu, err := a.UntrustedAlloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke(mu, []byte{0xaa, 0xbb}); err != nil {
		t.Fatal(err)
	}
	if e := a.UntrustedEpoch(); e != 0 {
		t.Fatalf("initial epoch = %d, want 0", e)
	}

	if err := a.QuarantineUntrusted(); err != nil {
		t.Fatalf("QuarantineUntrusted: %v", err)
	}
	if e := a.UntrustedEpoch(); e != 1 {
		t.Errorf("epoch after quarantine = %d, want 1", e)
	}
	// Pre-quarantine MU pointer is invalid and its bytes scrubbed.
	if err := a.Free(mu); err == nil {
		t.Error("free of pre-quarantine MU pointer succeeded")
	}
	buf := make([]byte, 2)
	if err := s.Peek(mu, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0 {
		t.Errorf("MU bytes after quarantine = %v, want scrubbed", buf)
	}
	// MT is untouched.
	if err := s.Peek(mt, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[1] != 2 {
		t.Errorf("MT bytes after quarantine = %v, want intact", buf)
	}
	if err := a.Free(mt); err != nil {
		t.Errorf("MT free after quarantine: %v", err)
	}
	// The fresh pool serves allocations again, from the region base.
	mu2, err := a.UntrustedAlloc(64)
	if err != nil {
		t.Fatalf("MU alloc after quarantine: %v", err)
	}
	if !a.UntrustedRegion().Contains(mu2) {
		t.Errorf("post-quarantine allocation %v outside MU", mu2)
	}
	if err := a.Free(mu2); err != nil {
		t.Errorf("free after quarantine: %v", err)
	}
}

// TestRetagInsidePoolKeepsBounds: pkey_mprotect of one page inside MT
// splits the space's region, leaving the original region object on the
// retagged page. The pool's bounds must stay the whole reservation, or
// every MT address outside that page stops being owned: Free refuses it
// and a heal's ownership check rejects it.
func TestRetagInsidePoolKeepsBounds(t *testing.T) {
	s, a := newAlloc(t)
	p, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	mid := a.TrustedRegion().Base + vm.Addr(a.TrustedRegion().Size/2)
	if err := s.SetPKey(mid, vm.PageSize, 0); err != nil {
		t.Fatal(err)
	}
	if !a.TrustedRegion().Contains(p) {
		t.Errorf("TrustedRegion %v+%#x no longer contains %v", a.TrustedRegion().Base, a.TrustedRegion().Size, p)
	}
	if err := a.Free(p); err != nil {
		t.Errorf("Free after the retag: %v", err)
	}
}
