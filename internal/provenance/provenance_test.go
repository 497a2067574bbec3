package provenance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mpk"
	"repro/internal/profile"
	"repro/internal/sig"
	"repro/internal/vm"
)

func stores() map[string]Store {
	return map[string]Store{
		"interval": NewIntervalStore(),
		"linear":   NewLinearStore(),
	}
}

func TestStoreBasics(t *testing.T) {
	for name, s := range stores() {
		t.Run(name, func(t *testing.T) {
			id := profile.AllocID{Func: "f", Block: 1, Site: 2}
			s.Track(Entry{Base: 0x1000, Size: 64, ID: id})
			if s.Len() != 1 {
				t.Fatalf("Len = %d", s.Len())
			}
			// Base, interior, and last-byte lookups hit; end misses.
			for _, a := range []vm.Addr{0x1000, 0x1020, 0x103f} {
				e, ok := s.Lookup(a)
				if !ok || e.ID != id {
					t.Errorf("Lookup(%v) = %+v, %v", a, e, ok)
				}
			}
			for _, a := range []vm.Addr{0xfff, 0x1040, 0x2000} {
				if _, ok := s.Lookup(a); ok {
					t.Errorf("Lookup(%v) should miss", a)
				}
			}
			e, ok := s.Untrack(0x1000)
			if !ok || e.Size != 64 {
				t.Errorf("Untrack = %+v, %v", e, ok)
			}
			if _, ok := s.Untrack(0x1000); ok {
				t.Error("second Untrack succeeded")
			}
			if _, ok := s.Lookup(0x1000); ok {
				t.Error("Lookup after Untrack succeeded")
			}
		})
	}
}

func TestStoreRetrackSameBase(t *testing.T) {
	for name, s := range stores() {
		t.Run(name, func(t *testing.T) {
			s.Track(Entry{Base: 0x1000, Size: 16, ID: profile.AllocID{Func: "a"}})
			s.Track(Entry{Base: 0x1000, Size: 128, ID: profile.AllocID{Func: "b"}})
			if s.Len() != 1 {
				t.Fatalf("Len = %d after retrack", s.Len())
			}
			e, ok := s.Lookup(0x1000 + 100)
			if !ok || e.ID.Func != "b" {
				t.Errorf("retrack lost: %+v, %v", e, ok)
			}
		})
	}
}

// Property: both store implementations agree on every lookup under random
// track/untrack traffic.
func TestStoreEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		iv, ln := NewIntervalStore(), NewLinearStore()
		var bases []vm.Addr
		for i := 0; i < 200; i++ {
			switch {
			case len(bases) > 0 && rng.Intn(4) == 0:
				j := rng.Intn(len(bases))
				e1, ok1 := iv.Untrack(bases[j])
				e2, ok2 := ln.Untrack(bases[j])
				if ok1 != ok2 || e1 != e2 {
					return false
				}
				bases = append(bases[:j], bases[j+1:]...)
			default:
				// Non-overlapping: slot grid of 256-byte cells.
				base := vm.Addr(0x10000 + rng.Intn(500)*256)
				size := uint64(rng.Intn(255) + 1)
				e := Entry{Base: base, Size: size, ID: profile.AllocID{Func: "f", Site: uint32(i)}}
				if _, dup := iv.Lookup(base); dup {
					continue
				}
				iv.Track(e)
				ln.Track(e)
				bases = append(bases, base)
			}
			probe := vm.Addr(0x10000 + rng.Intn(500*256))
			e1, ok1 := iv.Lookup(probe)
			e2, ok2 := ln.Lookup(probe)
			if ok1 != ok2 || (ok1 && e1 != e2) {
				return false
			}
		}
		return iv.Len() == ln.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// profilingWorld builds a space with an MT-like region and a tracer
// installed on a fresh signal table, resolving faults through the
// returned shadow store.
func profilingWorld(t *testing.T) (*Shadow, *vm.Thread, *Tracer) {
	t.Helper()
	s := vm.NewSpace()
	if _, err := s.Reserve("mt", 0x10_0000, 1<<20, 1); err != nil {
		t.Fatal(err)
	}
	tbl := new(sig.Table)
	sh := new(Shadow)
	tr := NewTracer(profile.New(), 1, sh)
	tr.Install(tbl)
	return sh, vm.NewThread(s, tbl), tr
}

func TestTracerRecordsFaultingSite(t *testing.T) {
	sh, th, tr := profilingWorld(t)
	id := profile.AllocID{Func: "trusted_alloc", Block: 2, Site: 1}
	base := vm.Addr(0x10_0000)
	if err := th.Store64(base, 42); err != nil { // permissive warm-up write
		t.Fatal(err)
	}
	sh.Track(Entry{Base: base, Size: 64, ID: id})

	// Enter "untrusted" rights and read the object: must fault, be
	// recorded, single-step, and return the right value.
	locked := mpk.PermitAll.With(1, mpk.DenyAll)
	th.SetRights(locked)
	v, err := th.Load64(base + 8)
	if err != nil {
		t.Fatalf("profiled access failed: %v", err)
	}
	if v != 0 {
		t.Errorf("value = %d", v)
	}
	if th.Rights() != locked {
		t.Errorf("rights not restored after single-step: %v", th.Rights())
	}
	if !tr.Profile().Contains(id) {
		t.Fatal("profile missing faulted site")
	}
	r, _ := tr.Profile().Get(id)
	if r.Faults != 1 || r.Bytes != 64 {
		t.Errorf("record = %+v", r)
	}
	st := tr.Stats()
	if st.RecordedFaults != 1 || st.UnknownFaults != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTracerInteriorPointerFault(t *testing.T) {
	sh, th, tr := profilingWorld(t)
	id := profile.AllocID{Func: "vec"}
	sh.Track(Entry{Base: 0x10_0000, Size: 4096, ID: id})
	th.SetRights(mpk.PermitAll.With(1, mpk.DenyAll))
	if _, err := th.Load8(0x10_0000 + 2000); err != nil {
		t.Fatal(err)
	}
	if !tr.Profile().Contains(id) {
		t.Error("interior fault not attributed to object")
	}
}

func TestTracerUnknownFaultStillResumes(t *testing.T) {
	_, th, tr := profilingWorld(t)
	th.SetRights(mpk.PermitAll.With(1, mpk.DenyAll))
	// No tracked object here; profiling must still grant and continue.
	if _, err := th.Load8(0x10_0000 + 512); err != nil {
		t.Fatalf("untracked fault should still resume: %v", err)
	}
	if tr.Profile().Len() != 0 {
		t.Error("untracked fault recorded a site")
	}
	if tr.Stats().UnknownFaults != 1 {
		t.Errorf("stats = %+v", tr.Stats())
	}
}

func TestTracerChainsForeignFaults(t *testing.T) {
	s := vm.NewSpace()
	if _, err := s.Reserve("mt", 0x10_0000, 1<<20, 1); err != nil {
		t.Fatal(err)
	}
	tbl := new(sig.Table)
	appCalls := 0
	tbl.Register(sig.SIGSEGV, sig.HandlerFunc(func(info *sig.Info, _ sig.Context) sig.Action {
		appCalls++
		return sig.Unhandled
	}))
	tr := NewTracer(profile.New(), 1, new(Shadow))
	tr.Install(tbl) // installed after the app handler, chains to it
	th := vm.NewThread(s, tbl)
	if _, err := th.Load8(0xdead_0000); err == nil { // unmapped: MAPERR
		t.Fatal("unmapped access should still be fatal")
	}
	if appCalls == 0 {
		t.Error("pre-existing handler was not chained")
	}
	if tr.Stats().ChainedFaults == 0 {
		t.Error("chain not counted")
	}
}

func TestTracerWrongKeyChains(t *testing.T) {
	s := vm.NewSpace()
	if _, err := s.Reserve("other", 0x10_0000, 1<<20, 5); err != nil {
		t.Fatal(err)
	}
	tbl := new(sig.Table)
	tr := NewTracer(profile.New(), 1, new(Shadow)) // traces key 1, not key 5
	tr.Install(tbl)
	th := vm.NewThread(s, tbl)
	th.SetRights(mpk.PermitAll.With(5, mpk.DenyAll))
	if _, err := th.Load8(0x10_0000); err == nil {
		t.Error("fault on untraced key must stay fatal")
	}
	if tr.Profile().Len() != 0 {
		t.Error("untraced key recorded")
	}
}

func TestTracerReallocCarriesID(t *testing.T) {
	sh, th, tr := profilingWorld(t)
	id := profile.AllocID{Func: "buf"}
	sh.Track(Entry{Base: 0x10_0000, Size: 32, ID: id})
	sh.Retrack(0x10_0000, 0x10_1000, 128)
	if sh.Len() != 1 {
		t.Fatalf("live = %d", sh.Len())
	}
	th.SetRights(mpk.PermitAll.With(1, mpk.DenyAll))
	if _, err := th.Load8(0x10_1000 + 100); err != nil {
		t.Fatal(err)
	}
	if !tr.Profile().Contains(id) {
		t.Error("realloc'd object lost its AllocId")
	}
	// Realloc of an untracked base is a no-op, not a crash.
	sh.Retrack(0xaaaa, 0xbbbb, 8)
	if sh.Len() != 1 {
		t.Errorf("live after foreign realloc = %d", sh.Len())
	}
}

func TestTracerDeallocStopsTracking(t *testing.T) {
	sh, th, tr := profilingWorld(t)
	id := profile.AllocID{Func: "temp"}
	sh.Track(Entry{Base: 0x10_0000, Size: 64, ID: id})
	sh.Untrack(0x10_0000)
	if sh.Len() != 0 {
		t.Fatalf("live = %d", sh.Len())
	}
	th.SetRights(mpk.PermitAll.With(1, mpk.DenyAll))
	if _, err := th.Load8(0x10_0000); err != nil {
		t.Fatal(err) // still resumes (unknown fault)
	}
	if tr.Profile().Contains(id) {
		t.Error("freed object still attributed")
	}
	st := tr.Stats()
	if st.UnknownFaults != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTracerManyAccessesRecordOneSite(t *testing.T) {
	sh, th, tr := profilingWorld(t)
	id := profile.AllocID{Func: "hot"}
	sh.Track(Entry{Base: 0x10_0000, Size: 4096, ID: id})
	th.SetRights(mpk.PermitAll.With(1, mpk.DenyAll))
	for i := 0; i < 50; i++ {
		if _, err := th.Load8(0x10_0000 + vm.Addr(i*64)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Profile().Len() != 1 {
		t.Errorf("profile has %d sites, want 1", tr.Profile().Len())
	}
	r, _ := tr.Profile().Get(id)
	if r.Faults != 50 {
		t.Errorf("faults = %d, want 50", r.Faults)
	}
}

// TestShadowNil: a build without a shadow store passes a nil *Shadow to
// every feeder and reader; it tracks and finds nothing.
func TestShadowNil(t *testing.T) {
	var sh *Shadow
	sh.Track(Entry{Base: 0x1000, Size: 64})
	sh.Retrack(0x1000, 0x2000, 128)
	sh.Untrack(0x2000)
	if _, ok := sh.Lookup(0x1000); ok || sh.Len() != 0 {
		t.Error("nil shadow tracked an object")
	}
}
