package vm

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/mpk"
	"repro/internal/sig"
)

const (
	testBase Addr   = 0x1000_0000
	testSize uint64 = 64 * PageSize
)

func newTestThread(t *testing.T, key mpk.Key) (*Space, *Thread) {
	t.Helper()
	s := NewSpace()
	if _, err := s.Reserve("test", testBase, testSize, key); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	return s, NewThread(s, nil)
}

func TestReserveValidation(t *testing.T) {
	s := NewSpace()
	if _, err := s.Reserve("bad-align", testBase+1, PageSize, 0); err == nil {
		t.Error("unaligned base accepted")
	}
	if _, err := s.Reserve("bad-size", testBase, PageSize+5, 0); err == nil {
		t.Error("unaligned size accepted")
	}
	if _, err := s.Reserve("empty", testBase, 0, 0); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := s.Reserve("bad-key", testBase, PageSize, 16); err == nil {
		t.Error("invalid pkey accepted")
	}
	if _, err := s.Reserve("too-high", MaxAddr-PageSize, 2*PageSize, 0); err == nil {
		t.Error("region beyond 48-bit space accepted")
	}
	// Sizes near 2^64 wrap base+size past zero; an addition-based bound
	// check accepts them and produces a region whose End() precedes its
	// Base (found by the conformance fuzzer, FuzzSpaceOracle).
	if _, err := s.Reserve("wrap", testBase, ^uint64(0)-PageSize+1, 0); err == nil {
		t.Error("wrapping size accepted")
	}
	if _, err := s.Reserve("wrap-max", testBase, 0xffffff3030303000, 1); err == nil {
		t.Error("wrapping size accepted")
	}
	if _, err := s.Reserve("ok", testBase, 4*PageSize, 1); err != nil {
		t.Fatalf("valid reserve failed: %v", err)
	}
	if _, err := s.Reserve("overlap", testBase+PageSize, PageSize, 0); err == nil {
		t.Error("overlapping reserve accepted")
	}
}

func TestSetPKeyWrapRejected(t *testing.T) {
	s := NewSpace()
	if _, err := s.Reserve("r", testBase, 4*PageSize, 1); err != nil {
		t.Fatal(err)
	}
	// A wrapping range used to make the reservation walk see an empty
	// span, so the call succeeded as a silent no-op instead of failing.
	if err := s.SetPKey(testBase, ^uint64(0)-PageSize+1, 2); err == nil {
		t.Error("wrapping SetPKey range accepted")
	}
	if k, _ := s.PKeyAt(testBase); k != 1 {
		t.Errorf("key after rejected SetPKey = %d, want 1", k)
	}
	// len=0 stays a successful no-op, as with pkey_mprotect.
	if err := s.SetPKey(testBase, 0, 2); err != nil {
		t.Errorf("zero-size SetPKey: %v", err)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	_, th := newTestThread(t, 0)
	addr := testBase + 128
	if err := th.Store64(addr, 0xdeadbeefcafef00d); err != nil {
		t.Fatalf("Store64: %v", err)
	}
	v, err := th.Load64(addr)
	if err != nil {
		t.Fatalf("Load64: %v", err)
	}
	if v != 0xdeadbeefcafef00d {
		t.Errorf("Load64 = %#x", v)
	}
	w32 := []byte{0x37, 0x13, 0, 0}
	if err := th.access(addr+8, w32, sig.AccessWrite); err != nil {
		t.Fatalf("4-byte store: %v", err)
	}
	r32 := make([]byte, 4)
	if err := th.access(addr+8, r32, sig.AccessRead); err != nil || string(r32) != string(w32) {
		t.Errorf("4-byte load = %x, %v", r32, err)
	}
	if err := th.Store8(addr+12, 0xab); err != nil {
		t.Fatalf("Store8: %v", err)
	}
	b, err := th.Load8(addr + 12)
	if err != nil || b != 0xab {
		t.Errorf("Load8 = %#x, %v", b, err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	_, th := newTestThread(t, 0)
	addr := testBase + PageSize - 3 // straddles a page boundary
	want := []byte{1, 2, 3, 4, 5, 6, 7}
	if err := th.Write(addr, want); err != nil {
		t.Fatalf("Write across pages: %v", err)
	}
	got := make([]byte, len(want))
	if err := th.Read(addr, got); err != nil {
		t.Fatalf("Read across pages: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	_, th := newTestThread(t, 0)
	_, err := th.Load64(0x7000_0000)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("expected *Fault, got %v", err)
	}
	if f.Info.Sig != sig.SIGSEGV || f.Info.Code != sig.CodeMapErr {
		t.Errorf("fault = %v, want SIGSEGV/SEGV_MAPERR", f.Info)
	}
}

func TestPKUViolationFaults(t *testing.T) {
	_, th := newTestThread(t, 1)
	addr := testBase + 64
	if err := th.Store64(addr, 7); err != nil {
		t.Fatalf("store with permissive PKRU: %v", err)
	}
	th.SetRights(mpk.PermitAll.With(1, mpk.DenyAll))
	_, err := th.Load64(addr)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("expected *Fault, got %v", err)
	}
	if f.Info.Code != sig.CodePKUErr || f.Info.PKey != 1 {
		t.Errorf("fault = %v, want SEGV_PKUERR pkey=1", f.Info)
	}
	if f.Info.Access != sig.AccessRead {
		t.Errorf("fault access = %v, want read", f.Info.Access)
	}
}

func TestWriteDisableAllowsReads(t *testing.T) {
	_, th := newTestThread(t, 2)
	addr := testBase
	if err := th.Store64(addr, 99); err != nil {
		t.Fatal(err)
	}
	th.SetRights(mpk.PermitAll.With(2, mpk.ReadOnly))
	if v, err := th.Load64(addr); err != nil || v != 99 {
		t.Errorf("read under WD: %v, %v", v, err)
	}
	err := th.Store64(addr, 100)
	var f *Fault
	if !errors.As(err, &f) || f.Info.Access != sig.AccessWrite {
		t.Errorf("write under WD should fault with write access, got %v", err)
	}
}

// TestFaultHandlerRepairAndSingleStep exercises the profiler's loop: grant
// access on SEGV_PKUERR, arm the trap flag, and restore rights on SIGTRAP.
func TestFaultHandlerRepairAndSingleStep(t *testing.T) {
	s := NewSpace()
	if _, err := s.Reserve("trusted", testBase, testSize, 1); err != nil {
		t.Fatal(err)
	}
	tbl := new(sig.Table)
	th := NewThread(s, tbl)

	locked := mpk.PermitAll.With(1, mpk.DenyAll)
	var pkuFaults, trapRestores int
	tbl.Register(sig.SIGSEGV, sig.HandlerFunc(func(info *sig.Info, ctx sig.Context) sig.Action {
		if info.Code != sig.CodePKUErr {
			return sig.Unhandled
		}
		pkuFaults++
		ctx.SetPKRU(uint32(mpk.PermitAll))
		ctx.SetTrapFlag(true)
		return sig.Handled
	}))
	tbl.Register(sig.SIGTRAP, sig.HandlerFunc(func(info *sig.Info, ctx sig.Context) sig.Action {
		trapRestores++
		ctx.SetPKRU(uint32(locked))
		ctx.SetTrapFlag(false)
		return sig.Handled
	}))

	if err := th.Store64(testBase, 41); err != nil { // permissive: no fault
		t.Fatal(err)
	}
	th.SetRights(locked)
	v, err := th.Load64(testBase)
	if err != nil {
		t.Fatalf("repaired access failed: %v", err)
	}
	if v != 41 {
		t.Errorf("value = %d, want 41", v)
	}
	if pkuFaults != 1 || trapRestores != 1 {
		t.Errorf("faults=%d traps=%d, want 1 and 1", pkuFaults, trapRestores)
	}
	if th.Rights() != locked {
		t.Errorf("rights after single-step = %v, want restored %v", th.Rights(), locked)
	}
	// Rights were restored, so the next access faults again and goes through
	// another repair/single-step round trip rather than sailing through.
	if _, err := th.Load64(testBase); err != nil {
		t.Fatalf("second repaired access failed: %v", err)
	}
	if pkuFaults != 2 || trapRestores != 2 {
		t.Errorf("after second access: faults=%d traps=%d, want 2 and 2", pkuFaults, trapRestores)
	}
}

// TestLyingHandlerTerminates: a handler that returns Handled without fixing
// the rights must not loop forever.
func TestLyingHandlerTerminates(t *testing.T) {
	s := NewSpace()
	if _, err := s.Reserve("trusted", testBase, testSize, 1); err != nil {
		t.Fatal(err)
	}
	tbl := new(sig.Table)
	tbl.Register(sig.SIGSEGV, sig.HandlerFunc(func(*sig.Info, sig.Context) sig.Action {
		return sig.Handled // lie: nothing repaired
	}))
	th := NewThread(s, tbl)
	th.SetRights(mpk.PermitAll.With(1, mpk.DenyAll))
	if _, err := th.Load64(testBase); err == nil {
		t.Error("access should eventually fail despite lying handler")
	}
}

func TestSetPKeyRetagsResidentAndFuturePages(t *testing.T) {
	s, th := newTestThread(t, 0)
	touched := testBase             // make page resident before retag
	future := testBase + 8*PageSize // untouched until after retag
	if err := th.Store8(touched, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPKey(testBase, testSize, 3); err != nil {
		t.Fatalf("SetPKey: %v", err)
	}
	th.SetRights(mpk.PermitAll.With(3, mpk.DenyAll))
	if _, err := th.Load8(touched); err == nil {
		t.Error("resident page not retagged")
	}
	if err := th.Store8(future, 1); err == nil {
		t.Error("future page did not inherit new key")
	}
}

func TestSetPKeySplitsRegions(t *testing.T) {
	s, _ := newTestThread(t, 0)
	mid := testBase + 16*PageSize
	if err := s.SetPKey(mid, 4*PageSize, 5); err != nil {
		t.Fatalf("SetPKey: %v", err)
	}
	if k, ok := s.PKeyAt(mid); !ok || k != 5 {
		t.Errorf("PKeyAt(mid) = %v, %v; want 5", k, ok)
	}
	if k, ok := s.PKeyAt(testBase); !ok || k != 0 {
		t.Errorf("PKeyAt(base) = %v, %v; want original 0", k, ok)
	}
	if k, ok := s.PKeyAt(mid + 4*PageSize); !ok || k != 0 {
		t.Errorf("PKeyAt(after) = %v, %v; want original 0", k, ok)
	}
	if err := s.SetPKey(0x9000_0000, PageSize, 1); err == nil {
		t.Error("SetPKey on unreserved range accepted")
	}
}

func TestOnDemandPaging(t *testing.T) {
	s, th := newTestThread(t, 0)
	if got := s.ResidentPages(); got != 0 {
		t.Fatalf("resident pages before touch = %d, want 0 (reservation is lazy)", got)
	}
	if err := th.Store8(testBase+5*PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.ResidentPages(); got != 1 {
		t.Errorf("resident pages after one touch = %d, want 1", got)
	}
}

func TestPeekPokeBypassPKRU(t *testing.T) {
	s, th := newTestThread(t, 1)
	th.SetRights(mpk.DenyAllExcept()) // thread can access nothing
	if err := s.Poke(testBase, []byte{9, 8, 7}); err != nil {
		t.Fatalf("Poke: %v", err)
	}
	buf := make([]byte, 3)
	if err := s.Peek(testBase, buf); err != nil {
		t.Fatalf("Peek: %v", err)
	}
	if buf[0] != 9 || buf[2] != 7 {
		t.Errorf("Peek = %v", buf)
	}
	if err := s.Peek(0xdead0000, buf); err == nil {
		t.Error("Peek of unreserved memory should error")
	}
}

func TestStatsCounters(t *testing.T) {
	_, th := newTestThread(t, 1)
	_ = th.Store64(testBase, 1)
	_, _ = th.Load64(testBase)
	th.SetRights(mpk.PermitAll.With(1, mpk.DenyAll))
	_, _ = th.Load64(testBase) // faults fatally
	st := th.Stats()
	if st.Loads != 1 || st.Stores != 1 {
		t.Errorf("loads=%d stores=%d, want 1/1", st.Loads, st.Stores)
	}
	if st.PKUFaults == 0 {
		t.Error("PKU faults not counted")
	}
	if st.WRPKRU != 1 {
		t.Errorf("WRPKRU count = %d, want 1", st.WRPKRU)
	}
}

func TestRegionAccessors(t *testing.T) {
	s, _ := newTestThread(t, 2)
	r := s.RegionAt(testBase + 100)
	if r == nil || r.Name != "test" || r.PKey != 2 {
		t.Fatalf("RegionAt = %+v", r)
	}
	if s.RegionAt(testBase+Addr(testSize)) != nil {
		t.Error("RegionAt past end should be nil")
	}
	if got := len(s.Regions()); got != 1 {
		t.Errorf("Regions() len = %d", got)
	}
}

// Property: any aligned write inside a region reads back identically
// through both the checked and unchecked paths.
func TestReadbackProperty(t *testing.T) {
	s, th := newTestThread(t, 0)
	f := func(off uint32, val uint64) bool {
		addr := testBase + Addr(uint64(off)%(testSize-8))
		if err := th.Store64(addr, val); err != nil {
			return false
		}
		got, err := th.Load64(addr)
		if err != nil || got != val {
			return false
		}
		var raw [8]byte
		if err := s.Peek(addr, raw[:]); err != nil {
			return false
		}
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(raw[i])
		}
		return v == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: protection is exact at page granularity — retagging page P
// never affects accessibility of P-1 or P+1.
func TestPageGranularityProperty(t *testing.T) {
	f := func(pageIdx uint8) bool {
		s := NewSpace()
		if _, err := s.Reserve("r", testBase, testSize, 0); err != nil {
			return false
		}
		th := NewThread(s, nil)
		n := Addr(uint64(pageIdx)%62 + 1) // pages 1..62 of 64
		target := testBase + n*PageSize
		if err := s.SetPKey(target, PageSize, 7); err != nil {
			return false
		}
		th.SetRights(mpk.PermitAll.With(7, mpk.DenyAll))
		if err := th.Store8(target, 1); err == nil {
			return false // target must fault
		}
		if err := th.Store8(target-1, 1); err != nil {
			return false // preceding byte must not
		}
		if err := th.Store8(target+PageSize, 1); err != nil {
			return false // following page must not
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFaultErrorString(t *testing.T) {
	f := &Fault{Info: sig.Info{Sig: sig.SIGSEGV, Code: sig.CodePKUErr, Addr: 0x1000, PKey: 1}}
	if f.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x12345)
	if a.PageBase() != 0x12000 {
		t.Errorf("PageBase = %v", a.PageBase())
	}
	if a.PageIndex() != 0x12 {
		t.Errorf("PageIndex = %#x", a.PageIndex())
	}
}

// TestRetryExhaustionSurfacesTerminalFault pins the MaxFaultRetries
// contract: a handler that keeps claiming repairs gets exactly
// MaxFaultRetries re-executions, after which the access surfaces a
// terminal *Fault carrying the final siginfo — no livelock, no silent
// success — and the retries are visible in Stats.FaultRetries.
func TestRetryExhaustionSurfacesTerminalFault(t *testing.T) {
	s := NewSpace()
	if _, err := s.Reserve("trusted", testBase, testSize, 1); err != nil {
		t.Fatal(err)
	}
	tbl := new(sig.Table)
	dispatched := 0
	tbl.Register(sig.SIGSEGV, sig.HandlerFunc(func(*sig.Info, sig.Context) sig.Action {
		dispatched++
		return sig.Handled // lie: nothing repaired
	}))
	th := NewThread(s, tbl)
	th.SetRights(mpk.PermitAll.With(1, mpk.DenyAll))

	_, err := th.Load64(testBase)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error = %v, want *Fault", err)
	}
	if f.Info.Code != sig.CodePKUErr || f.Info.Addr != uint64(testBase) {
		t.Errorf("terminal fault info = %+v, want PKUERR at %v", f.Info, testBase)
	}
	if dispatched != MaxFaultRetries {
		t.Errorf("handler dispatched %d times, want exactly MaxFaultRetries (%d)", dispatched, MaxFaultRetries)
	}
	st := th.Stats()
	if st.FaultRetries != MaxFaultRetries {
		t.Errorf("Stats.FaultRetries = %d, want %d", st.FaultRetries, MaxFaultRetries)
	}
	// Every retry re-delivered the same PKU fault.
	if st.PKUFaults != MaxFaultRetries+1 {
		t.Errorf("Stats.PKUFaults = %d, want %d", st.PKUFaults, MaxFaultRetries+1)
	}
}

// TestGenuineRepairCostsOneRetry: the tracer-style grant handler needs one
// retry per fault, nowhere near the exhaustion bound.
func TestGenuineRepairCostsOneRetry(t *testing.T) {
	s := NewSpace()
	if _, err := s.Reserve("trusted", testBase, testSize, 1); err != nil {
		t.Fatal(err)
	}
	tbl := new(sig.Table)
	tbl.Register(sig.SIGSEGV, sig.HandlerFunc(func(info *sig.Info, ctx sig.Context) sig.Action {
		ctx.SetPKRU(uint32(mpk.PermitAll))
		return sig.Handled
	}))
	th := NewThread(s, tbl)
	th.SetRights(mpk.PermitAll.With(1, mpk.DenyAll))
	if _, err := th.Load64(testBase); err != nil {
		t.Fatalf("repaired access failed: %v", err)
	}
	if st := th.Stats(); st.FaultRetries != 1 {
		t.Errorf("Stats.FaultRetries = %d, want 1", st.FaultRetries)
	}
}

func TestSetPageKeyRetagsWithoutSplittingRegions(t *testing.T) {
	s, th := newTestThread(t, 1)
	r := s.Regions()[0]
	obj := testBase + 4*PageSize
	if err := th.Store64(obj, 7); err != nil { // resident before retag
		t.Fatal(err)
	}
	if err := s.SetPageKey(obj, 2*PageSize, 0); err != nil {
		t.Fatalf("SetPageKey: %v", err)
	}
	// The reservation is untouched: same single region, same bounds/key.
	regs := s.Regions()
	if len(regs) != 1 || regs[0] != r || regs[0].PKey != 1 || regs[0].Size != testSize {
		t.Errorf("regions after SetPageKey = %+v, want original single region", regs)
	}
	// The page-level key (what the MMU checks) changed for exactly the range.
	if k, _ := s.PKeyAt(obj); k != 0 {
		t.Errorf("PKeyAt(retagged) = %d, want 0", k)
	}
	if k, _ := s.PKeyAt(obj + PageSize); k != 0 {
		t.Errorf("PKeyAt(retagged, second page) = %d, want 0", k)
	}
	if k, _ := s.PKeyAt(obj - PageSize); k != 1 {
		t.Errorf("PKeyAt(neighbour below) = %d, want untouched 1", k)
	}
	if k, _ := s.PKeyAt(obj + 2*PageSize); k != 1 {
		t.Errorf("PKeyAt(neighbour above) = %d, want untouched 1", k)
	}
	// Contents survive (healing must not lose the object).
	th.SetRights(mpk.PermitAll.With(1, mpk.DenyAll)) // untrusted view
	if v, err := th.Load64(obj); err != nil || v != 7 {
		t.Errorf("load after retag = %d, %v; want 7, nil", v, err)
	}
	if _, err := th.Load64(obj - PageSize); err == nil {
		t.Error("neighbour page readable with key 1 denied")
	}
	// Validation mirrors SetPKey.
	if err := s.SetPageKey(obj+1, PageSize, 0); err == nil {
		t.Error("unaligned SetPageKey accepted")
	}
	if err := s.SetPageKey(0x9000_0000, PageSize, 0); err == nil {
		t.Error("SetPageKey on unreserved range accepted")
	}
	if err := s.SetPageKey(obj, ^uint64(0)-PageSize+1, 0); err == nil {
		t.Error("wrapping SetPageKey range accepted")
	}
	if err := s.SetPageKey(obj, PageSize, 16); err == nil {
		t.Error("invalid key accepted")
	}
}

func TestZeroResidentScrubsRange(t *testing.T) {
	s, th := newTestThread(t, 0)
	inside := testBase + 2*PageSize
	outside := testBase + 10*PageSize
	if err := th.Store64(inside, 0xdead); err != nil {
		t.Fatal(err)
	}
	if err := th.Store64(outside, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if err := s.ZeroResident(testBase, 8*PageSize); err != nil {
		t.Fatalf("ZeroResident: %v", err)
	}
	if v, _ := th.Load64(inside); v != 0 {
		t.Errorf("scrubbed word = %#x, want 0", v)
	}
	if v, _ := th.Load64(outside); v != 0xbeef {
		t.Errorf("word outside range = %#x, want untouched", v)
	}
	if err := s.ZeroResident(testBase+1, PageSize); err == nil {
		t.Error("unaligned ZeroResident accepted")
	}
}

// TestRetagVisitsResidentPagesInRange touches pages out of address order,
// so the resident index inserts both in its middle and at its end, then
// checks that a retag and a scrub reach exactly the resident pages of
// their range. With the stale-page-index bug planted, a page faulted in
// by first touch is missed and keeps its old key.
func TestRetagVisitsResidentPagesInRange(t *testing.T) {
	for _, stale := range []bool{false, true} {
		s, th := newTestThread(t, 0)
		s.InjectStalePageIndex(stale)
		order := []int{7, 2, 9, 0, 4, 8}
		for _, pg := range order {
			if err := th.Store8(testBase+Addr(pg)*PageSize, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SetPageKey(testBase+3*PageSize, PageSize, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.SetPKey(testBase+2*PageSize, 6*PageSize, 5); err != nil {
			t.Fatal(err)
		}
		if err := s.ZeroResident(testBase+2*PageSize, 6*PageSize); err != nil {
			t.Fatal(err)
		}
		missed := 0
		for _, pg := range append(order, 3) {
			a := testBase + Addr(pg)*PageSize
			inRange := pg >= 2 && pg < 8
			want, wantByte := mpk.Key(0), byte(1)
			if inRange {
				want, wantByte = 5, 0
			}
			if pg == 3 {
				wantByte = 0 // materialized by SetPageKey, never written
			}
			k, _ := s.PKeyAt(a)
			var b [1]byte
			if err := s.Peek(a, b[:]); err != nil {
				t.Fatal(err)
			}
			if k != want || b[0] != wantByte {
				if !stale {
					t.Errorf("page %d: key %d byte %d, want key %d byte %d", pg, k, b[0], want, wantByte)
				}
				missed++
			}
		}
		if stale && missed == 0 {
			t.Error("planted stale page index went unnoticed")
		}
		if got := s.ResidentPages(); got != len(order)+1 {
			t.Errorf("resident pages = %d, want %d", got, len(order)+1)
		}
	}
}

// TestSetPKeyZeroLengthIsNoop: pkey_mprotect(len=0) succeeds without
// splitting the region it points into.
func TestSetPKeyZeroLengthIsNoop(t *testing.T) {
	s, _ := newTestThread(t, 0)
	if err := s.SetPKey(testBase+4*PageSize, 0, 5); err != nil {
		t.Fatal(err)
	}
	if rs := s.Regions(); len(rs) != 1 || rs[0].Base != testBase || rs[0].Size != testSize || rs[0].PKey != 0 {
		t.Errorf("regions after zero-length retag = %+v, want the one reservation untouched", rs)
	}
}
