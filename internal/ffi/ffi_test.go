package ffi

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/mpk"
	"repro/internal/pkalloc"
	"repro/internal/vm"
)

// world builds a registry with one trusted and one untrusted library and a
// runtime in the given mode.
func world(t *testing.T, mode GateMode) (*Runtime, *Registry) {
	t.Helper()
	space := vm.NewSpace()
	alloc, err := pkalloc.New(pkalloc.Config{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	return NewRuntime(reg, alloc, nil, mode), reg
}

func TestRegistryBasics(t *testing.T) {
	reg := NewRegistry()
	lib, err := reg.Library("mozjs", Untrusted)
	if err != nil {
		t.Fatal(err)
	}
	lib.Define("eval", func(*Thread, []uint64) ([]uint64, error) { return nil, nil })
	if _, err := reg.Library("mozjs", Trusted); err == nil {
		t.Error("trust re-declaration accepted")
	}
	if l2, err := reg.Library("mozjs", Untrusted); err != nil || l2 != lib {
		t.Error("idempotent re-declaration failed")
	}
	if _, _, err := reg.Lookup("mozjs", "eval"); err != nil {
		t.Errorf("Lookup: %v", err)
	}
	if _, _, err := reg.Lookup("mozjs", "nope"); !errors.Is(err, ErrNoSuchFunc) {
		t.Errorf("missing func = %v", err)
	}
	if _, _, err := reg.Lookup("nolib", "f"); !errors.Is(err, ErrNoSuchFunc) {
		t.Errorf("missing lib = %v", err)
	}
	if len(lib.funcs) != 1 || lib.funcs["eval"] == nil {
		t.Errorf("functions = %v", lib.funcs)
	}
	if len(reg.libs) != 1 || reg.libs["mozjs"] != lib {
		t.Errorf("libraries = %v", reg.libs)
	}
	if Trusted.String() != "trusted" || Untrusted.String() != "untrusted" {
		t.Error("trust names")
	}
}

func TestMustLibraryPanics(t *testing.T) {
	reg := NewRegistry()
	reg.MustLibrary("l", Trusted)
	defer func() {
		if recover() == nil {
			t.Error("MustLibrary should panic on trust conflict")
		}
	}()
	reg.MustLibrary("l", Untrusted)
}

// TestGateDropsAndRestoresRights is the core §3.3 behaviour: inside an
// untrusted call MT is inaccessible; after return rights are restored.
func TestGateDropsAndRestoresRights(t *testing.T) {
	rt, reg := world(t, GatesOn)
	secret, err := rt.Alloc.Alloc(64) // MT allocation
	if err != nil {
		t.Fatal(err)
	}
	var sawFault bool
	reg.MustLibrary("evil", Untrusted).Define("poke", func(th *Thread, args []uint64) ([]uint64, error) {
		if !th.InUntrusted() {
			t.Error("untrusted callee not in untrusted rights")
		}
		if _, err := th.Load64(vm.Addr(args[0])); err != nil {
			var f *vm.Fault
			sawFault = errors.As(err, &f)
		}
		return nil, nil
	})
	th := rt.NewThread()
	if err := th.VM.Store64(secret, 42); err != nil { // trusted write works
		t.Fatal(err)
	}
	if _, err := th.Call("evil", "poke", uint64(secret)); err != nil {
		t.Fatal(err)
	}
	if !sawFault {
		t.Error("untrusted access to MT did not fault")
	}
	if th.VM.Rights() != mpk.PermitAll {
		t.Errorf("rights after return = %v", th.VM.Rights())
	}
	if th.Depth() != 0 {
		t.Errorf("compartment stack depth = %d", th.Depth())
	}
	if rt.Transitions() != 1 {
		t.Errorf("transitions = %d", rt.Transitions())
	}
}

func TestUntrustedCanReadMU(t *testing.T) {
	rt, reg := world(t, GatesOn)
	shared, err := rt.Alloc.UntrustedAlloc(64)
	if err != nil {
		t.Fatal(err)
	}
	reg.MustLibrary("lib", Untrusted).Define("read", func(th *Thread, args []uint64) ([]uint64, error) {
		v, err := th.Load64(vm.Addr(args[0]))
		return []uint64{v}, err
	})
	th := rt.NewThread()
	if err := th.VM.Store64(shared, 1337); err != nil {
		t.Fatal(err)
	}
	res, err := th.Call("lib", "read", uint64(shared))
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 1337 {
		t.Errorf("shared read = %d", res[0])
	}
}

// TestReverseGateCallback: untrusted code calls back into a trusted
// exported function, which runs with full rights; on return the untrusted
// rights are reinstated (nested compartment stack).
func TestReverseGateCallback(t *testing.T) {
	rt, reg := world(t, GatesOn)
	secret, _ := rt.Alloc.Alloc(8)
	trusted := reg.MustLibrary("servo", Trusted)
	trusted.Define("get_secret", func(th *Thread, _ []uint64) ([]uint64, error) {
		if th.InUntrusted() {
			t.Error("reverse gate did not restore trusted rights")
		}
		v, err := th.Load64(secret)
		return []uint64{v}, err
	})
	var backInU bool
	reg.MustLibrary("js", Untrusted).Define("run", func(th *Thread, _ []uint64) ([]uint64, error) {
		res, err := th.Call("servo", "get_secret")
		if err != nil {
			return nil, err
		}
		backInU = th.InUntrusted()
		return res, nil
	})
	th := rt.NewThread()
	if err := th.VM.Store64(secret, 7); err != nil {
		t.Fatal(err)
	}
	res, err := th.Call("js", "run")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 7 {
		t.Errorf("callback result = %d", res[0])
	}
	if !backInU {
		t.Error("rights not restored to untrusted after callback returned")
	}
	if rt.Transitions() != 2 {
		t.Errorf("transitions = %d, want 2 (forward + reverse)", rt.Transitions())
	}
}

func TestDeeplyNestedTransitionsUnwind(t *testing.T) {
	rt, reg := world(t, GatesOn)
	tl := reg.MustLibrary("t", Trusted)
	ul := reg.MustLibrary("u", Untrusted)
	// t.ping(n) -> u.pong(n-1) -> t.ping(n-2) -> ...
	tl.Define("ping", func(th *Thread, args []uint64) ([]uint64, error) {
		if args[0] == 0 {
			return []uint64{uint64(th.Depth())}, nil
		}
		return th.Call("u", "pong", args[0]-1)
	})
	ul.Define("pong", func(th *Thread, args []uint64) ([]uint64, error) {
		if args[0] == 0 {
			return []uint64{uint64(th.Depth())}, nil
		}
		return th.Call("t", "ping", args[0]-1)
	})
	th := rt.NewThread()
	res, err := th.Call("t", "ping", 10)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 10 {
		t.Errorf("max depth = %d, want 10", res[0])
	}
	if th.Depth() != 0 {
		t.Errorf("stack depth after unwind = %d", th.Depth())
	}
	if th.VM.Rights() != mpk.PermitAll {
		t.Errorf("rights after unwind = %v", th.VM.Rights())
	}
}

func TestGatesOffMode(t *testing.T) {
	rt, reg := world(t, GatesOff)
	secret, _ := rt.Alloc.Alloc(8)
	reg.MustLibrary("evil", Untrusted).Define("poke", func(th *Thread, args []uint64) ([]uint64, error) {
		v, err := th.Load64(vm.Addr(args[0]))
		return []uint64{v}, err
	})
	th := rt.NewThread()
	if err := th.VM.Store64(secret, 42); err != nil {
		t.Fatal(err)
	}
	res, err := th.Call("evil", "poke", uint64(secret))
	if err != nil {
		t.Fatalf("base build untrusted access should succeed: %v", err)
	}
	if res[0] != 42 {
		t.Errorf("value = %d", res[0])
	}
	if rt.Transitions() != 0 {
		t.Errorf("transitions counted in GatesOff mode: %d", rt.Transitions())
	}
}

// TestCallNoGateCrashesOnMT models untrusted code jumping straight into an
// uninstrumented trusted function: it inherits untrusted rights and dies
// touching MT.
func TestCallNoGateCrashesOnMT(t *testing.T) {
	rt, reg := world(t, GatesOn)
	secret, _ := rt.Alloc.Alloc(8)
	reg.MustLibrary("servo", Trusted).Define("touch", func(th *Thread, _ []uint64) ([]uint64, error) {
		v, err := th.Load64(secret)
		return []uint64{v}, err
	})
	reg.MustLibrary("js", Untrusted).Define("jump", func(th *Thread, _ []uint64) ([]uint64, error) {
		return th.CallNoGate("servo", "touch")
	})
	th := rt.NewThread()
	_, err := th.Call("js", "jump")
	var f *vm.Fault
	if !errors.As(err, &f) {
		t.Errorf("direct jump into T should crash on MT access, got %v", err)
	}
}

func TestMallocRoutesByCompartment(t *testing.T) {
	rt, reg := world(t, GatesOn)
	var uAddr vm.Addr
	reg.MustLibrary("lib", Untrusted).Define("alloc", func(th *Thread, _ []uint64) ([]uint64, error) {
		a, err := th.Malloc(128)
		uAddr = a
		return []uint64{uint64(a)}, err
	})
	th := rt.NewThread()
	tAddr, err := th.Malloc(128) // trusted context
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := rt.Alloc.CompartmentOf(tAddr); c != pkalloc.Trusted {
		t.Errorf("trusted malloc went to %v", c)
	}
	if _, err := th.Call("lib", "alloc"); err != nil {
		t.Fatal(err)
	}
	if c, _ := rt.Alloc.CompartmentOf(uAddr); c != pkalloc.Untrusted {
		t.Errorf("untrusted malloc went to %v", c)
	}
	if err := th.Free(tAddr); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(uAddr); err != nil {
		t.Fatal(err)
	}
}

func TestByteHelpers(t *testing.T) {
	rt, _ := world(t, GatesOn)
	th := rt.NewThread()
	a, _ := th.Malloc(32)
	if err := th.WriteBytes(a, []byte("pkru-safe")); err != nil {
		t.Fatal(err)
	}
	got, err := th.ReadBytes(a, 9)
	if err != nil || string(got) != "pkru-safe" {
		t.Errorf("ReadBytes = %q, %v", got, err)
	}
	if err := th.Store8(a, 'P'); err != nil {
		t.Fatal(err)
	}
	b, err := th.Load8(a)
	if err != nil || b != 'P' {
		t.Errorf("Load8 = %c, %v", b, err)
	}
}

// TestStringHelpers: ReadString and WriteString round-trip through the
// checked view staged in the thread's one reusable buffer, so a write
// allocates nothing and a read only its string; a string longer than
// maxStage crosses through a buffer of its own that the thread does not
// keep.
func TestStringHelpers(t *testing.T) {
	rt, _ := world(t, GatesOn)
	th := rt.NewThread()
	a, _ := th.Malloc(2 * maxStage)
	for _, s := range []string{"pkru-safe", "", "a longer string than the first one staged"} {
		if err := th.WriteString(a, s); err != nil {
			t.Fatal(err)
		}
		if got, err := th.ReadString(a, len(s)); err != nil || got != s {
			t.Errorf("ReadString = %q, %v; want %q", got, err, s)
		}
	}
	if _, err := th.ReadString(a, -1); err == nil {
		t.Error("ReadString of a negative length succeeded")
	}
	if n := testing.AllocsPerRun(50, func() { _ = th.WriteString(a, "staged without garbage") }); n != 0 {
		t.Errorf("WriteString: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { _, _ = th.ReadString(a, 40) }); n != 1 {
		t.Errorf("ReadString: %v allocations, want 1 (the string)", n)
	}
	big := strings.Repeat("x", maxStage+1)
	if err := th.WriteString(a, big); err != nil {
		t.Fatal(err)
	}
	if got, err := th.ReadString(a, len(big)); err != nil || got != big {
		t.Errorf("ReadString of %d bytes: %d bytes, %v", len(big), len(got), err)
	}
	if cap(th.stage) > maxStage {
		t.Errorf("staging buffer kept %d bytes, want at most %d", cap(th.stage), maxStage)
	}
}

func TestCallUnknownFunc(t *testing.T) {
	rt, _ := world(t, GatesOn)
	th := rt.NewThread()
	if _, err := th.Call("ghost", "fn"); !errors.Is(err, ErrNoSuchFunc) {
		t.Errorf("unknown call = %v", err)
	}
	if _, err := th.CallNoGate("ghost", "fn"); !errors.Is(err, ErrNoSuchFunc) {
		t.Errorf("unknown CallNoGate = %v", err)
	}
}
