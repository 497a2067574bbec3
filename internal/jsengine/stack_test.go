package jsengine

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/ffi"
)

// stackWorld is an engine over a Base program with the helpers the stack
// tests call: add3 sums its arguments and stale reads the global x before
// its own var x has run, so it returns the global (1) only from a zeroed
// frame — a slot a failed call left set would make it return that slot.
func stackWorld(t *testing.T, opts Options) (*Engine, *ffi.Thread) {
	t.Helper()
	reg := ffi.NewRegistry()
	eng := NewEngine(opts)
	if err := eng.Install(reg, DefaultLib); err != nil {
		t.Fatal(err)
	}
	prog, err := core.NewProgram(reg, core.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	th := prog.Main()
	if _, err := eng.Eval(th, `var x = 1;
function add3(a, b, c) { return a + b + c; }
function stale() { var s = x; var x = 5; return s; }`); err != nil {
		t.Fatal(err)
	}
	return eng, th
}

// wantBalanced checks both stacks are back at depth 0 and that the next
// calls see zeroed frames and fresh arguments.
func wantBalanced(t *testing.T, eng *Engine, th *ffi.Thread) {
	t.Helper()
	if len(eng.vals) != 0 || len(eng.slots) != 0 {
		t.Errorf("stack depths after the call: vals %d, slots %d; want 0, 0", len(eng.vals), len(eng.slots))
	}
	if v, err := callFunction(eng, th, "stale"); err != nil || v.Num != 1 {
		t.Errorf("stale() = %v, %v; want 1 (the global)", v, err)
	}
	if v, err := callFunction(eng, th, "add3", Num(1), Num(2), Num(3)); err != nil || v.Num != 6 {
		t.Errorf("add3(1, 2, 3) = %v, %v; want 6", v, err)
	}
}

// TestStacksBalanceOnEveryExit: however a call ends — a runtime error in
// the middle of an argument list, a step-limit error in a nested call, a
// host error, a host panic the caller recovers — both stacks return to
// depth 0 and the next call runs on a clean frame. Each failing function
// first sets two locals, so a frame that is not cleared shows up in stale.
func TestStacksBalanceOnEveryExit(t *testing.T) {
	cases := []struct {
		name, src string
		call      func(eng *Engine, th *ffi.Thread) error
	}{
		{"runtime error mid-arguments",
			`function bad() { var q = 7; var r = 8; return add3(1, add3(2, stale(), nope), 4); }`,
			func(eng *Engine, th *ffi.Thread) error {
				_, err := callFunction(eng, th, "bad")
				return err
			}},
		{"step limit in a nested call",
			`function spin(a) { var q = 7; while (true) {} } function bad() { var q = 7; var r = 8; return add3(1, 2, spin(3)); }`,
			func(eng *Engine, th *ffi.Thread) error {
				_, err := callFunction(eng, th, "bad")
				eng.steps = 0
				return err
			}},
		{"host error",
			`function bad() { var q = 7; var r = 8; return add3(1, stale(), fail(2, 3)); }`,
			func(eng *Engine, th *ffi.Thread) error {
				_, err := callFunction(eng, th, "bad")
				return err
			}},
		{"host panic, recovered",
			`function bad() { var q = 7; var r = 8; return add3(1, 2, boom(3, 4)); }`,
			func(eng *Engine, th *ffi.Thread) (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = errors.New("recovered")
					}
				}()
				_, err = callFunction(eng, th, "bad")
				return err
			}},
		{"error through the FFI invoke",
			`function bad(a, b) { var q = 7; var r = 8; return add3(a, b, nope); }`,
			func(eng *Engine, th *ffi.Thread) error {
				id, _ := eng.FunctionID("bad")
				_, err := th.Call(DefaultLib, "invoke", uint64(id)+1, 1, 2)
				return err
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, th := stackWorld(t, Options{StepLimit: 100_000})
			eng.RegisterHost("fail", func(*ffi.Thread, []Value) (Value, error) {
				return Null(), errors.New("host failed")
			})
			eng.RegisterHost("boom", func(*ffi.Thread, []Value) (Value, error) {
				panic("host panicked")
			})
			if _, err := eng.Eval(th, c.src); err != nil {
				t.Fatal(err)
			}
			if err := c.call(eng, th); err == nil {
				t.Fatal("the failing call succeeded")
			}
			wantBalanced(t, eng, th)
		})
	}
}

// TestStacksBalancedWithinACall: every construct that pushes arguments
// or a frame — a script call, a builtin, a method, new, an array literal,
// a host call — pops them again before the next statement, so a loop of
// them leaves both stacks at the depth it started from.
func TestStacksBalancedWithinACall(t *testing.T) {
	eng, th := stackWorld(t, Options{})
	eng.RegisterHost("depth", func(*ffi.Thread, []Value) (Value, error) {
		return Num(float64(len(eng.vals)*10000 + len(eng.slots))), nil
	})
	if _, err := eng.Eval(th, `function probe() {
	var d0 = depth(0);
	for (var i = 0; i < 5; i++) {
		add3(1, 2, 3); floor(1.5); "ab".substr(0, 1); new Array(2); [1, 2, 3]; depth(1, 2);
	}
	return depth(0) - d0;
}`); err != nil {
		t.Fatal(err)
	}
	if v, err := callFunction(eng, th, "probe"); err != nil || v.Num != 0 {
		t.Errorf("probe() = %v, %v; want 0 (depth unchanged across the loop)", v, err)
	}
	wantBalanced(t, eng, th)
}

// TestHostArgsSurviveReentry: a host's args alias the value stack, so a
// host that re-enters the engine must still read its own arguments after
// the nested call — both when that call runs in the stack's spare
// capacity right above the args and when it outgrows the stack and moves
// it. The args are capped: a host that appends to them gets its own
// array, which the nested call cannot overwrite.
func TestHostArgsSurviveReentry(t *testing.T) {
	eng, th := stackWorld(t, Options{})
	if _, err := eng.Eval(th, `
function grow(n) { if (n < 1) return 0; return add3(n, grow(n - 1), 0); }
function small(a) { return add3(a, a, a); }`); err != nil {
		t.Fatal(err)
	}
	// Leave the stack with spare capacity above the host's args.
	if _, err := callFunction(eng, th, "grow", Num(20)); err != nil {
		t.Fatal(err)
	}
	want := []Value{Num(1), Str("two"), Num(3)}
	check := func(stage string, args []Value) {
		t.Helper()
		if len(args) != len(want) {
			t.Fatalf("%s: %d args, want %d", stage, len(args), len(want))
		}
		for i, a := range args {
			if a != want[i] {
				t.Errorf("%s: args[%d] = %v, want %v", stage, i, a, want[i])
			}
		}
	}
	var moved bool
	eng.RegisterHost("reenter", func(th *ffi.Thread, args []Value) (Value, error) {
		check("on entry", args)
		mine := append(args, Str("mine"))
		if v, err := callFunction(eng, th, "small", Num(4)); err != nil || v.Num != 12 {
			t.Errorf("small(4) = %v, %v", v, err)
		}
		check("after a nested call above the args", args)
		if mine[3] != Str("mine") {
			t.Errorf("appended arg = %v, overwritten by the nested call", mine[3])
		}
		before := &eng.vals[0]
		if v, err := callFunction(eng, th, "grow", Num(300)); err != nil || v.Num != 300*301/2 {
			t.Errorf("grow(300) = %v, %v", v, err)
		}
		moved = before != &eng.vals[0]
		check("after a nested call that grew the stack", args)
		return Num(1), nil
	})
	if _, err := eng.Eval(th, `function outer() { return reenter(1, "two", 3); }`); err != nil {
		t.Fatal(err)
	}
	if v, err := callFunction(eng, th, "outer"); err != nil || v.Num != 1 {
		t.Fatalf("outer() = %v, %v", v, err)
	}
	if !moved {
		t.Error("grow(300) did not move the value stack; the test needs a deeper call")
	}
	wantBalanced(t, eng, th)
}

// TestStackCapacityBounded: a recursion deep enough to grow both stacks
// past maxRetained (two values and two slots per level) does not leave
// them that large once the call returns.
func TestStackCapacityBounded(t *testing.T) {
	eng, th := stackWorld(t, Options{})
	if _, err := eng.Eval(th, `function grow(n) { var a = n; if (n < 1) return 0; return add3(n, grow(n - 1), 0); }`); err != nil {
		t.Fatal(err)
	}
	if v, err := callFunction(eng, th, "grow", Num(maxRetained)); err != nil || v.Num != maxRetained*(maxRetained+1)/2 {
		t.Fatalf("grow = %v, %v", v, err)
	}
	if cap(eng.vals) > maxRetained || cap(eng.slots) > maxRetained {
		t.Errorf("retained capacity: vals %d, slots %d; want at most %d", cap(eng.vals), cap(eng.slots), maxRetained)
	}
	wantBalanced(t, eng, th)
}

// loopSrc is the call-heavy loop of TestScriptCallAllocs and
// BenchmarkScriptCall: a script call and a builtin call per iteration.
const loopSrc = `function f(s, i) { return s % 1000 + i * 0.5; }
function loop(n) { var s = 0; for (var i = 0; i < n; i++) { s = f(s, i); s = floor(s); } return s; }`

// TestScriptCallAllocs pins script calls at no Go allocation each: the
// arguments live on the value stack and the frame on the slot stack, so
// a loop of 1000 calls allocates exactly what a loop of 10 does.
func TestScriptCallAllocs(t *testing.T) {
	eng, th := stackWorld(t, Options{})
	if _, err := eng.Eval(th, loopSrc); err != nil {
		t.Fatal(err)
	}
	allocs := func(n float64) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := callFunction(eng, th, "loop", Num(n)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a10, a1000 := allocs(10), allocs(1000); a1000 != a10 {
		t.Errorf("allocations per callFunction: %v at n=10, %v at n=1000; want equal", a10, a1000)
	}
}

// BenchmarkScriptCall measures one callFunction of a 100-iteration call
// loop.
func BenchmarkScriptCall(b *testing.B) {
	reg := ffi.NewRegistry()
	eng := NewEngine()
	if err := eng.Install(reg, DefaultLib); err != nil {
		b.Fatal(err)
	}
	prog, err := core.NewProgram(reg, core.Base, nil)
	if err != nil {
		b.Fatal(err)
	}
	th := prog.Main()
	if _, err := eng.Eval(th, loopSrc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := callFunction(eng, th, "loop", Num(100)); err != nil {
			b.Fatal(err)
		}
	}
}
