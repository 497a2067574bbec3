package ffi_test

import (
	"errors"
	"testing"

	"repro/internal/ffi"
	"repro/internal/mpk"
	"repro/internal/pkalloc"
	"repro/internal/sig"
	"repro/internal/supervise"
	"repro/internal/vm"
)

// unmapped is an address no pkalloc region covers.
const unmapped vm.Addr = 0x1000

// faultOps is every checked access an ffi.Thread offers, by the op name
// its errors carry.
var faultOps = []struct {
	op     string
	access sig.AccessKind
	do     func(th *ffi.Thread, a vm.Addr) error
}{
	{"load64", sig.AccessRead, func(th *ffi.Thread, a vm.Addr) error { _, err := th.Load64(a); return err }},
	{"store64", sig.AccessWrite, func(th *ffi.Thread, a vm.Addr) error { return th.Store64(a, 7) }},
	{"load8", sig.AccessRead, func(th *ffi.Thread, a vm.Addr) error { _, err := th.Load8(a); return err }},
	{"store8", sig.AccessWrite, func(th *ffi.Thread, a vm.Addr) error { return th.Store8(a, 7) }},
	{"read", sig.AccessRead, func(th *ffi.Thread, a vm.Addr) error { _, err := th.ReadBytes(a, 16); return err }},
	{"write", sig.AccessWrite, func(th *ffi.Thread, a vm.Addr) error { return th.WriteBytes(a, make([]byte, 16)) }},
}

// TestFaultErrorChains pins the error a denied access inside an untrusted
// call fails with, for every op and both fault codes: errors.As reaches
// the *vm.Fault carrying the delivered siginfo and the rights in force,
// and the text is exact — returned through the gate, and wrapped in the
// *supervise.CompartmentError a supervised call gives up with.
func TestFaultErrorChains(t *testing.T) {
	faults := []struct {
		name string
		addr vm.Addr
		code int32
		pkey uint8
		// text is the vm.Fault text after "ffi: <op>: ", by access kind.
		text map[sig.AccessKind]string
	}{
		{"pkuerr", pkalloc.DefaultTrustedBase, sig.CodePKUErr, 1, map[sig.AccessKind]string{
			sig.AccessRead:  "vm: unhandled SIGSEGV code=100 addr=0x200000000000 access=read pkey=1 (pkru=0x0000000c)",
			sig.AccessWrite: "vm: unhandled SIGSEGV code=100 addr=0x200000000000 access=write pkey=1 (pkru=0x0000000c)",
		}},
		{"maperr", unmapped, sig.CodeMapErr, 0, map[sig.AccessKind]string{
			sig.AccessRead:  "vm: unhandled SIGSEGV code=1 addr=0x1000 access=read pkey=0 (pkru=0x0000000c)",
			sig.AccessWrite: "vm: unhandled SIGSEGV code=1 addr=0x1000 access=write pkey=0 (pkru=0x0000000c)",
		}},
	}
	for _, fc := range faults {
		for _, op := range faultOps {
			t.Run(fc.name+"/"+op.op, func(t *testing.T) {
				rt, th := faultWorld(t, op.op, op.do)
				want := "ffi: " + op.op + ": " + fc.text[op.access]
				check := func(err error) {
					t.Helper()
					var f *vm.Fault
					if !errors.As(err, &f) {
						t.Fatalf("err = %v, want a *vm.Fault in the chain", err)
					}
					wantInfo := sig.Info{Sig: sig.SIGSEGV, Code: fc.code, Addr: uint64(fc.addr), Access: op.access, PKey: fc.pkey}
					if f.Info != wantInfo {
						t.Errorf("fault info = %+v, want %+v", f.Info, wantInfo)
					}
					if f.PKRU != rt.UntrustedPKRU() {
						t.Errorf("fault pkru = %v, want the untrusted rights %v", f.PKRU, rt.UntrustedPKRU())
					}
				}

				_, err := th.Call("u", op.op, uint64(fc.addr))
				check(err)
				if got := err.Error(); got != want {
					t.Errorf("err.Error() =\n  %q\nwant\n  %q", got, want)
				}

				sup := supervise.New(supervise.Config{Policy: supervise.Quarantine}, supervise.Deps{Alloc: rt.Alloc})
				serr := sup.Shield(th, "u."+op.op, func() error {
					_, err := th.Call("u", op.op, uint64(fc.addr))
					return err
				})
				var cerr *supervise.CompartmentError
				if !errors.As(serr, &cerr) {
					t.Fatalf("Shield = %v, want a *supervise.CompartmentError", serr)
				}
				check(serr)
				wantShield := "supervise: u." + op.op + " failed under policy quarantine (quarantined after 1 attempt(s)): " + want
				if got := serr.Error(); got != wantShield {
					t.Errorf("Shield error =\n  %q\nwant\n  %q", got, wantShield)
				}
				if got := cerr.Err.Error(); got != want {
					t.Errorf("CompartmentError.Err = %q, want %q", got, want)
				}
				if th.VM.Rights() != mpk.PermitAll || th.Depth() != 0 {
					t.Errorf("after Shield: rights %v, depth %d; want trusted rights at depth 0", th.VM.Rights(), th.Depth())
				}
			})
		}
	}
}

// TestDeniedLoadAllocs: a denied Load64 inside an untrusted call
// allocates the *vm.Fault and the op wrapper, and formats nothing.
func TestDeniedLoadAllocs(t *testing.T) {
	var allocs float64
	_, th := faultWorld(t, "probe", func(th *ffi.Thread, a vm.Addr) error {
		allocs = testing.AllocsPerRun(1000, func() { _, _ = th.Load64(a) })
		return nil
	})
	if _, err := th.Call("u", "probe", uint64(pkalloc.DefaultTrustedBase)); err != nil {
		t.Fatal(err)
	}
	if got := th.VM.Stats().PKUFaults; got == 0 {
		t.Fatal("probe of the trusted heap was not denied")
	}
	if allocs > 2 {
		t.Errorf("denied ffi Load64 allocates %v per op, want at most 2", allocs)
	}
}

// faultWorld builds a gated runtime whose untrusted library "u" exports
// fn, which applies do to its address argument and returns the error.
func faultWorld(t *testing.T, fn string, do func(*ffi.Thread, vm.Addr) error) (*ffi.Runtime, *ffi.Thread) {
	t.Helper()
	alloc, err := pkalloc.New(pkalloc.Config{Space: vm.NewSpace()})
	if err != nil {
		t.Fatal(err)
	}
	reg := ffi.NewRegistry()
	reg.MustLibrary("u", ffi.Untrusted).Define(fn, func(th *ffi.Thread, args []uint64) ([]uint64, error) {
		return nil, do(th, vm.Addr(args[0]))
	})
	rt := ffi.NewRuntime(reg, alloc, nil, ffi.GatesOn)
	return rt, rt.NewThread()
}
