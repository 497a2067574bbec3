package jsengine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestScopingSemantics pins the engine's scoping rules: a function's frame
// holds its params and its vars, but a var only shadows the global of the
// same name once the var statement has run; until then reads and writes of
// the name reach the global. Every case runs in a fresh engine.
func TestScopingSemantics(t *testing.T) {
	cases := []struct {
		name, src string
		want      float64
	}{
		{"assign before var writes the global",
			"function f(){ x = 5; var x = 7; return x; } var x = 1; f()*100 + x;", 705},
		{"read before var reads the global",
			"var q = 7; function f(){ var r = q; var q = 1; return r * 10 + q; } f() * 100 + q;", 7107},
		{"var in an untaken branch leaves the global visible",
			"var z = 4; function f(c){ if (c) { var z = 9; } return z; } f(false) * 10 + f(true) + z;", 53},
		{"compound assign before var updates the global",
			"var c = 2; function f(){ c += 3; var c = 100; c += 1; return c; } f() * 10 + c;", 1015},
		{"recursion gets fresh frames",
			"function g(n){ var r = 0; if (n > 0) { r = g(n - 1) * 10 + n; } return r; } g(3);", 123},
		{"recursion does not see the caller's var",
			"var d = 0; function h(n){ if (n > 0) { var d = n; return h(n - 1) + d; } return d; } h(3);", 6},
		{"params shadow globals",
			"var p = 5; function f(p){ p = p + 1; return p; } f(10) * 100 + p;", 1105},
		{"missing argument is null",
			"var p = 5; function f(a, p){ return (p == null) + 0; } f(1);", 1},
		{"nested function is global and sees no outer locals",
			"var loc = 1; function outer(){ var loc = 3; function inner(){ return loc; } return inner() * 10 + loc; } outer() * 10 + inner();", 131},
		{"duplicate param names: the last wins",
			"function d(a, a){ return a; } d(1, 2);", 2},
		{"duplicate param names: a missing last is null",
			"function d(a, a){ return (a == null) + 0; } d(1);", 1},
		{"var redeclared in a loop body",
			"function f(){ var s = 0; for (var i = 0; i < 4; i++) { var t = i * 2; s += t; } return s * 10 + t; } f();", 126},
		{"var redeclared in a top-level loop body",
			"var s = 0; var k = 0; while (k < 3) { var u = k + 1; s += u; k++; } s * 10 + u;", 63},
		{"top-level for var is a global",
			"for (var i = 0; i < 5; i++) {} i;", 5},
		{"for var in a function is local",
			"var i = 100; function f(){ for (var i = 0; i < 3; i++) {} return i; } f() * 1000 + i;", 3100},
		{"loop var is read before its var on the first pass",
			"var w = 50; function f(){ var s = 0; for (var i = 0; i < 2; i++) { s += w; var w = 1; } return s; } f();", 51},
		{"function writes a global it never declares",
			"var g = 0; function f(){ g = g + 42; } f(); f(); g;", 84},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, _, _ := world(t, core.Base)
			got, err := evalIn(t, prog, c.src)
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			if got != c.want {
				t.Errorf("= %v, want %v", got, c.want)
			}
		})
	}
}

// TestScopingErrors pins the runtime error of a name that is neither a
// declared local nor a defined global: the message and the line of the
// reading node survive whichever way the name was resolved.
func TestScopingErrors(t *testing.T) {
	cases := []struct {
		name, src string
		line      int
	}{
		{"undefined at top level", "var a = 1;\n\nx + a;", 3},
		{"undefined in a function", "var a = 1;\nfunction f(){\n  return x;\n}\nf();", 3},
		{"read before var with no global", "function f(){\n  var y = x;\n  var x = 1;\n  return y;\n}\nf();", 2},
		{"compound assign before var with no global", "function f(){\n  x += 1;\n  var x = 1;\n}\nf();", 2},
		{"outer local is not visible", "function outer(){ var x = 1; inner(); }\nfunction inner(){\n return x; }\nouter();", 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, _, _ := world(t, core.Base)
			_, err := evalIn(t, prog, c.src)
			var re *RuntimeError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want a RuntimeError", err)
			}
			if re.Line != c.line || !strings.Contains(err.Error(), `undefined variable "x"`) {
				t.Errorf("err = %v (line %d), want undefined variable \"x\" on line %d", err, re.Line, c.line)
			}
		})
	}
}
