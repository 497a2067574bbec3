package core

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/ffi"
	"repro/internal/pkalloc"
	"repro/internal/profile"
	"repro/internal/vm"
)

// buildQuickstartRegistry assembles the E1 minimal example: a trusted app
// that allocates a buffer and passes it to an untrusted library which
// writes 1337 into it.
func buildQuickstartRegistry(t *testing.T) *ffi.Registry {
	t.Helper()
	reg := ffi.NewRegistry()
	lib := reg.MustLibrary("clib", ffi.Untrusted)
	lib.Define("write_1337", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		if err := th.Store64(vm.Addr(args[0]), 1337); err != nil {
			return nil, err
		}
		return nil, nil
	})
	lib.Define("read_val", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		v, err := th.Load64(vm.Addr(args[0]))
		return []uint64{v}, err
	})
	return reg
}

func TestNewProgramValidation(t *testing.T) {
	reg := ffi.NewRegistry()
	if _, err := NewProgram(reg, MPK, nil); err == nil {
		t.Error("MPK build without profile accepted")
	}
	if _, err := NewProgram(reg, Alloc, nil); err == nil {
		t.Error("Alloc build without profile accepted")
	}
	if _, err := NewProgram(reg, Base, profile.New()); err == nil {
		t.Error("Base build with profile accepted")
	}
	if _, err := NewProgram(reg, Profiling, profile.New()); err == nil {
		t.Error("Profiling build with profile accepted")
	}
	p, err := NewProgram(reg, Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RecordedProfile(); err == nil {
		t.Error("RecordedProfile on base build accepted")
	}
}

func TestConfigStrings(t *testing.T) {
	for c, want := range map[BuildConfig]string{
		Base: "base", Alloc: "alloc", MPK: "mpk", Profiling: "profiling",
		BuildConfig(9): "BuildConfig(9)",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestParseBuildConfig(t *testing.T) {
	for _, c := range []BuildConfig{Base, Alloc, MPK, Profiling} {
		if got, err := ParseBuildConfig(c.String()); err != nil || got != c {
			t.Errorf("ParseBuildConfig(%q) = %v, %v", c.String(), got, err)
		}
	}
	for _, name := range []string{"", "MPK", "BuildConfig(9)"} {
		if _, err := ParseBuildConfig(name); err == nil {
			t.Errorf("ParseBuildConfig(%q) accepted", name)
		}
	}
}

// TestE1Pipeline walks the full four-stage pipeline on the quickstart
// program, asserting each step's observable behaviour from the artifact
// appendix: step 1 faults, step 2 profiles, step 3 shares and prints 1337.
func TestE1Pipeline(t *testing.T) {
	reg := buildQuickstartRegistry(t)

	// Step 1: enforcement with an EMPTY profile — the untrusted write to a
	// trusted allocation must crash.
	step1, err := NewProgram(reg, MPK, profile.New())
	if err != nil {
		t.Fatal(err)
	}
	site1 := step1.Site("main", 0, 0)
	buf1, err := step1.AllocAt(site1, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, err = step1.Main().Call("clib", "write_1337", uint64(buf1))
	var f *vm.Fault
	if !errors.As(err, &f) {
		t.Fatalf("step 1: expected MPK fault, got %v", err)
	}

	// Step 2: profiling build — same program, faults recorded, execution
	// completes, and the profile contains the allocation site.
	step2, err := NewProgram(reg, Profiling, nil)
	if err != nil {
		t.Fatal(err)
	}
	site2 := step2.Site("main", 0, 0)
	buf2, err := step2.AllocAt(site2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step2.Main().Call("clib", "write_1337", uint64(buf2)); err != nil {
		t.Fatalf("step 2: profiling run must complete: %v", err)
	}
	v, err := step2.Main().VM.Load64(buf2)
	if err != nil || v != 1337 {
		t.Fatalf("step 2: value = %d, %v", v, err)
	}
	prof, err := step2.RecordedProfile()
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Contains(site2.ID) {
		t.Fatal("step 2: profile missing the shared allocation site")
	}

	// Step 3: enforcement with the recorded profile — the site now
	// allocates from MU, the untrusted write succeeds, value is 1337.
	step3, err := NewProgram(reg, MPK, prof)
	if err != nil {
		t.Fatal(err)
	}
	site3 := step3.Site("main", 0, 0)
	if site3.Pool != pkalloc.Untrusted {
		t.Fatalf("step 3: shared site placed in %v", site3.Pool)
	}
	buf3, err := step3.AllocAt(site3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := step3.Main().VM.Store64(buf3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := step3.Main().Call("clib", "write_1337", uint64(buf3)); err != nil {
		t.Fatalf("step 3: shared write failed: %v", err)
	}
	res, err := step3.Main().Call("clib", "read_val", uint64(buf3))
	if err != nil || res[0] != 1337 {
		t.Fatalf("step 3: read back %v, %v; want 1337", res, err)
	}

	// A second, never-shared site must remain trusted and protected.
	priv := step3.Site("main", 0, 1)
	if priv.Pool != pkalloc.Trusted {
		t.Fatalf("unshared site placed in %v", priv.Pool)
	}
	bufP, err := step3.AllocAt(priv, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step3.Main().Call("clib", "write_1337", uint64(bufP)); err == nil {
		t.Fatal("write to unshared trusted allocation must fault")
	}
}

func TestSiteIdempotentAndReport(t *testing.T) {
	reg := buildQuickstartRegistry(t)
	prof := profile.New()
	prof.Add(profile.AllocID{Func: "f", Block: 1, Site: 0}, 8)
	p, err := NewProgram(reg, Alloc, prof)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Site("f", 1, 0)
	b := p.Site("f", 1, 0)
	if a != b {
		t.Error("Site not idempotent")
	}
	c := p.Site("f", 1, 1)
	if a == c {
		t.Error("distinct sites conflated")
	}
	if a.Pool != pkalloc.Untrusted || c.Pool != pkalloc.Trusted {
		t.Errorf("pools: shared=%v unshared=%v", a.Pool, c.Pool)
	}
	if _, err := p.AllocAt(a, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AllocAt(c, 50); err != nil {
		t.Fatal(err)
	}
	r := p.Report()
	if r.TotalSites != 2 || r.UntrustedSites != 1 || r.TotalAllocs != 2 {
		t.Errorf("report = %+v", r)
	}
	if r.UntrustedShare <= 0 || r.UntrustedShare >= 1 {
		t.Errorf("untrusted share = %v", r.UntrustedShare)
	}
	if got := len(p.Sites()); got != 2 {
		t.Errorf("Sites() len = %d", got)
	}
	if a.Allocs() != 1 || a.Bytes() != 100 {
		t.Errorf("site counters: %d, %d", a.Allocs(), a.Bytes())
	}
}

// TestAllocOnlyBuildDoesNotGate: in the alloc configuration the heap is
// split but untrusted code retains full access (no gates) — the paper's
// allocator-overhead-isolation configuration.
func TestAllocOnlyBuildDoesNotGate(t *testing.T) {
	reg := buildQuickstartRegistry(t)
	p, err := NewProgram(reg, Alloc, profile.New())
	if err != nil {
		t.Fatal(err)
	}
	site := p.Site("main", 0, 0) // not in (empty) profile: trusted pool
	buf, err := p.AllocAt(site, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Main().Call("clib", "write_1337", uint64(buf)); err != nil {
		t.Errorf("alloc build must not enforce: %v", err)
	}
	if p.Transitions() != 0 {
		t.Errorf("transitions in alloc build = %d", p.Transitions())
	}
}

func TestBaseBuildEverythingTrustedPool(t *testing.T) {
	reg := buildQuickstartRegistry(t)
	p, err := NewProgram(reg, Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 5; i++ {
		s := p.Site("m", 0, i)
		if s.Pool != pkalloc.Trusted {
			t.Errorf("base build site %d in %v", i, s.Pool)
		}
	}
}

func TestReallocAndFreeWithTracer(t *testing.T) {
	reg := buildQuickstartRegistry(t)
	p, err := NewProgram(reg, Profiling, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Site("m", 0, 0)
	a, err := p.AllocAt(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Realloc(a, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// The grown object, touched from U, must be attributed to the original site.
	if _, err := p.Main().Call("clib", "write_1337", uint64(b+2000)); err != nil {
		t.Fatal(err)
	}
	prof, _ := p.RecordedProfile()
	if !prof.Contains(s.ID) {
		t.Error("realloc'd object not attributed to original site")
	}
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	// A touch of the freed block from U resolves to no object.
	if _, err := p.Main().Call("clib", "write_1337", uint64(b+2000)); err != nil {
		t.Fatal(err)
	}
	if st := p.Tracer().Stats(); st.RecordedFaults != 1 || st.UnknownFaults != 1 {
		t.Errorf("tracer stats after free = %+v, want one recorded and one unknown fault", st)
	}
}

// TestProfileSerializationBetweenStages: the profile survives the JSON
// round trip that separates the profiling and enforcement builds on disk.
func TestProfileSerializationBetweenStages(t *testing.T) {
	reg := buildQuickstartRegistry(t)
	p1, err := NewProgram(reg, Profiling, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := p1.Site("main", 2, 3)
	buf, _ := p1.AllocAt(s, 8)
	if _, err := p1.Main().Call("clib", "write_1337", uint64(buf)); err != nil {
		t.Fatal(err)
	}
	prof, _ := p1.RecordedProfile()
	data, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	restored := profile.New()
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatal(err)
	}
	p2, err := NewProgram(reg, MPK, restored)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Site("main", 2, 3).Pool != pkalloc.Untrusted {
		t.Error("site lost through serialization")
	}
}

func TestAccessorsNonNil(t *testing.T) {
	reg := buildQuickstartRegistry(t)
	p, err := NewProgram(reg, Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Space() == nil || p.Allocator() == nil ||
		p.Runtime() == nil || p.Main() == nil || p.NewThread() == nil {
		t.Error("nil accessor")
	}
	if p.Tracer() != nil {
		t.Error("tracer present on base build")
	}
	if p.Config() != Base {
		t.Error("config accessor")
	}
}
