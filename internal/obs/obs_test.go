package obs_test

import (
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ffi"
	"repro/internal/mpk"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sig"
	"repro/internal/trace"
	"repro/internal/vm"
)

// quickstartRegistry is the E1 minimal example: an untrusted library
// writing into a buffer the trusted app hands it.
func quickstartRegistry(t *testing.T) *ffi.Registry {
	t.Helper()
	reg := ffi.NewRegistry()
	lib := reg.MustLibrary("clib", ffi.Untrusted)
	lib.Define("write_1337", func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		if err := th.Store64(vm.Addr(args[0]), 1337); err != nil {
			return nil, err
		}
		return nil, nil
	})
	return reg
}

// crashProgram builds an MPK program with forensics on, triggers the
// cross-compartment violation, and returns the program plus the error.
func crashProgram(t *testing.T) (*core.Program, vm.Addr, error) {
	t.Helper()
	ring := trace.NewRing(16)
	prog, err := core.NewProgram(quickstartRegistry(t), core.MPK, profile.New(),
		core.Options{Trace: ring, Forensics: true})
	if err != nil {
		t.Fatal(err)
	}
	site := prog.Site("main", 0, 0)
	buf, err := prog.AllocAt(site, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := prog.Main().Call("clib", "write_1337", uint64(buf))
	if runErr == nil {
		t.Fatal("unprofiled MPK run must fault")
	}
	return prog, buf, runErr
}

func TestCaptureReportFields(t *testing.T) {
	prog, buf, runErr := crashProgram(t)
	rec := prog.Forensics()
	if rec == nil {
		t.Fatal("Forensics() = nil with Options.Forensics set")
	}
	rep, ok := rec.Capture(runErr)
	if !ok {
		t.Fatalf("Capture(%v) failed", runErr)
	}

	if rep.Schema != obs.ReportSchema {
		t.Errorf("schema = %d, want %d", rep.Schema, obs.ReportSchema)
	}
	if rep.Config != "mpk" {
		t.Errorf("config = %q, want mpk", rep.Config)
	}
	if rep.Fault.Code != "SEGV_PKUERR" || rep.Fault.Access != "write" {
		t.Errorf("fault = %+v", rep.Fault)
	}
	trustedKey := uint8(prog.Allocator().TrustedKey())
	if rep.Fault.PKey != trustedKey {
		t.Errorf("fault pkey = %d, want trusted key %d", rep.Fault.PKey, trustedKey)
	}

	// Decoded PKRU: all sixteen keys present, the trusted key AD|WD (the
	// forward gate denies MT), key 0 still rw.
	if len(rep.PKRU.Keys) != mpk.NumKeys {
		t.Fatalf("decoded %d keys, want %d", len(rep.PKRU.Keys), mpk.NumKeys)
	}
	kt := rep.PKRU.Keys[trustedKey]
	if !kt.AD || !kt.WD || kt.Rights != "--" {
		t.Errorf("trusted key rights = %+v, want ad/wd set", kt)
	}
	if k0 := rep.PKRU.Keys[0]; k0.AD || k0.WD || k0.Rights != "rw" {
		t.Errorf("key 0 rights = %+v, want rw", k0)
	}

	// Compartment at fault time: untrusted, one live gate.
	if !rep.Compartment.Known || rep.Compartment.Name != "untrusted" || rep.Compartment.GateDepth != 1 {
		t.Errorf("compartment = %+v, want known untrusted depth 1", rep.Compartment)
	}

	// Provenance: the faulted object belongs to main@0.0.
	p := rep.Provenance
	if !p.Found || p.Site != "main@0.0" || p.Size != 8 {
		t.Errorf("provenance = %+v", p)
	}
	if want := "0x" + strings.TrimLeft(strings.ToLower(hex64(uint64(buf))), "0"); !strings.EqualFold(p.Base, want) {
		t.Errorf("provenance base = %q, want %q", p.Base, want)
	}

	// Page map: the faulting page is flagged and owned by the trusted key.
	var faulting *obs.PageInfo
	for i := range rep.Pages {
		if rep.Pages[i].Faulting {
			faulting = &rep.Pages[i]
		}
	}
	if faulting == nil {
		t.Fatal("no faulting page in page map")
	}
	if !faulting.Reserved || faulting.PKey != trustedKey || faulting.Region != "pkalloc/MT" {
		t.Errorf("faulting page = %+v", *faulting)
	}

	// Trace tail: at least the gate-enter crossing preceding the fault.
	if len(rep.Trace.Events) == 0 {
		t.Fatal("trace tail empty")
	}
	var sawGate bool
	for _, e := range rep.Trace.Events {
		if e.Kind == "gate-enter" {
			sawGate = true
		}
	}
	if !sawGate {
		t.Errorf("trace tail missing gate-enter: %+v", rep.Trace.Events)
	}
}

func hex64(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

func TestReportRendering(t *testing.T) {
	prog, _, runErr := crashProgram(t)
	rep, ok := prog.Forensics().Capture(runErr)
	if !ok {
		t.Fatal("capture failed")
	}

	var text strings.Builder
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"PKRU-safe crash report",
		"SEGV_PKUERR",
		"<- faulting key",
		"site=main@0.0",
		"compartment: untrusted (gate depth 1)",
		"pkalloc/MT",
		"gate-enter",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}

	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back obs.Report
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.Schema != obs.ReportSchema || back.Provenance.Site != rep.Provenance.Site {
		t.Errorf("round-tripped report = %+v", back)
	}
}

func TestCaptureNonFaultErrors(t *testing.T) {
	prog, _, _ := crashProgram(t)
	if _, ok := prog.Forensics().Capture(errors.New("not a fault")); ok {
		t.Error("Capture accepted a non-fault error")
	}
	if _, ok := prog.Forensics().Capture(nil); ok {
		t.Error("Capture accepted nil")
	}
	var nilRec *obs.Recorder
	if _, ok := nilRec.Capture(errors.New("x")); ok {
		t.Error("nil recorder captured")
	}
	// The nil recorder's methods must be no-ops, not panics.
	nilRec.Install(nil)
}

// TestRecorderTracksFrees asserts freed and reallocated objects keep the
// program's allocation shadow store consistent, as the recorder's crash
// reports read it.
func TestRecorderTracksFrees(t *testing.T) {
	prog, err := core.NewProgram(quickstartRegistry(t), core.MPK, profile.New(),
		core.Options{Forensics: true})
	if err != nil {
		t.Fatal(err)
	}
	// lookup is what a fault at addr would report about its object.
	lookup := func(addr vm.Addr) obs.ProvenanceInfo {
		t.Helper()
		rep, ok := prog.Forensics().Capture(&vm.Fault{Info: sig.Info{Sig: sig.SIGSEGV, Code: sig.CodePKUErr, Addr: uint64(addr)}})
		if !ok {
			t.Fatal("Capture refused a fault")
		}
		return rep.Provenance
	}
	site := prog.Site("main", 0, 0)
	a, err := prog.AllocAt(site, 32)
	if err != nil {
		t.Fatal(err)
	}
	if p := lookup(a); !p.Found || p.Site != site.ID.String() || p.LiveObjects != 1 {
		t.Fatalf("after alloc: provenance = %+v, want site %v, 1 live object", p, site.ID)
	}
	b, err := prog.Realloc(a, 128)
	if err != nil {
		t.Fatal(err)
	}
	if p := lookup(b + 100); !p.Found || p.Site != site.ID.String() || p.Offset != 100 || p.Size != 128 || p.LiveObjects != 1 {
		t.Fatalf("after realloc: provenance = %+v, want %d bytes at %#x from site %v", p, 128, b, site.ID)
	}
	if b != a {
		if p := lookup(a); p.Found {
			t.Fatal("after realloc: the old block is still tracked")
		}
	}
	if err := prog.Free(b); err != nil {
		t.Fatal(err)
	}
	if p := lookup(b); p.Found || p.LiveObjects != 0 {
		t.Fatalf("after free: provenance = %+v, want no live object", p)
	}
}

// TestDisabledPathCosts asserts the acceptance criterion for runs without
// -listen: building and running a program without observability spawns no
// goroutines and the checked access hot path stays allocation-free.
func TestDisabledPathCosts(t *testing.T) {
	before := settledGoroutines()
	prog, err := core.NewProgram(quickstartRegistry(t), core.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	site := prog.Site("main", 0, 0)
	buf, err := prog.AllocAt(site, 8)
	if err != nil {
		t.Fatal(err)
	}
	th := prog.Main()
	if err := th.VM.Store64(buf, 42); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := th.VM.Load64(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("hot-path allocations = %v, want 0", allocs)
	}
	if after := settledGoroutines(); after != before {
		t.Errorf("goroutines %d -> %d without a server", before, after)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 50ms (giving up after 2s): goroutines an earlier test left behind,
// such as a closed server's connection handlers, exit on their own
// schedule, and a count taken while one is exiting would blame the test
// under way.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestServerOffNoGoroutines pins the opt-in contract of the HTTP plane:
// merely importing and configuring obs (recorder included) starts nothing.
func TestServerOffNoGoroutines(t *testing.T) {
	before := settledGoroutines()
	_, _, runErr := crashProgram(t)
	var f *vm.Fault
	if !errors.As(runErr, &f) {
		t.Fatal("expected fault")
	}
	if after := settledGoroutines(); after != before {
		t.Errorf("goroutines %d -> %d with forensics but no -listen", before, after)
	}
}
