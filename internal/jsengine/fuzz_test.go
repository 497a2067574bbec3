package jsengine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ffi"
)

// FuzzScript: arbitrary script text must never panic the engine — it
// either runs (within a tiny step budget) or fails with a syntax or
// runtime error. The engine executes over a real MPK-enforced program,
// so heap-touching scripts also exercise the checked-access path.
func FuzzScript(f *testing.F) {
	f.Add("1 + 2;")
	f.Add("var a = new Array(4); a[0] = 1.5; a[0];")
	f.Add("var o = {k: 1}; o.k += 2; o.k;")
	f.Add("function g(n) { if (n < 1) return 0; return g(n - 1); } g(3);")
	f.Add("for (var i = 0; i < 3; i++) print(i);")
	f.Add(`"str".charCodeAt(0) + "ab".substr(1).length;`)
	f.Add("var a = new IntArray(2); a.setLength(10); a[5];")
	f.Add("while (true) {}")
	f.Add("/* comment")
	f.Add("{};")
	f.Add("break;")
	// Scoping edge cases: a var shadows its global only once it has run.
	f.Add("function f(){ x = 5; var x = 7; return x; } var x = 1; f()*100 + x;")
	f.Add("function g(n){ var r = 0; if (n > 0) { r = g(n - 1) * 10 + n; } return r; } g(3);")
	f.Add("var p = 5; function f(p){ p = p + 1; return p; } f(10) * 100 + p;")
	f.Add("function outer(){ var loc = 3; function inner(){ return loc; } return inner(); } outer();")
	f.Add("function d(a, a){ return a; } d(1, 2) + d(1);")
	f.Add("function f(){ for (var i = 0; i < 3; i++) { s += w; var w = 1; var s = 0; } return s; } f();")
	f.Add("for (var i = 0; i < 5; i++) {} i;")
	f.Add("function f(){\n  var y = x;\n  var x = 1;\n}\nf();")
	// Lengths that once panicked the Go runtime: substr's int conversion
	// and new Array's byte-size overflow.
	f.Add(`"abc".substr(1, -1);`)
	f.Add(`"abc".substr(0, 1e300);`)
	f.Add("new Array(-1);")
	f.Add("IntArray(-1);")

	reg := ffi.NewRegistry()
	eng := NewEngine(Options{StepLimit: 20_000})
	if err := eng.Install(reg, DefaultLib); err != nil {
		f.Fatal(err)
	}
	prog, err := core.NewProgram(reg, core.Base, nil)
	if err != nil {
		f.Fatal(err)
	}
	th := prog.Main()

	f.Fuzz(func(t *testing.T, src string) {
		eng.steps = 0 // fresh budget per input
		_, _ = eng.Eval(th, src)
	})
}
