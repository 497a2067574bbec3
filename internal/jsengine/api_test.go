package jsengine

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ffi"
)

// TestEngineGoAPI covers the embedder-facing surface: CallFunction,
// Steps, MakeFloatArray and direct Eval.
func TestEngineGoAPI(t *testing.T) {
	reg := ffi.NewRegistry()
	eng := NewEngine()
	if err := eng.Install(reg, DefaultLib); err != nil {
		t.Fatal(err)
	}
	prog, err := core.NewProgram(reg, core.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	th := prog.Main()

	if _, err := eng.Eval(th, "function mul(a, b) { return a * b; }"); err != nil {
		t.Fatal(err)
	}
	v, err := eng.CallFunction(th, "mul", Num(6), Num(7))
	if err != nil || v.Num != 42 {
		t.Errorf("CallFunction = %v, %v", v, err)
	}
	if _, err := eng.CallFunction(th, "ghost"); err == nil {
		t.Error("CallFunction of undefined succeeded")
	}
	// Missing arguments become null.
	if _, err := eng.Eval(th, "function f(a, b) { return b == null ? 1 : 0; }"); err != nil {
		t.Fatal(err)
	}
	v, err = eng.CallFunction(th, "f", Num(1))
	if err != nil || v.Num != 1 {
		t.Errorf("missing arg = %v, %v", v, err)
	}
	if eng.Steps() == 0 {
		t.Error("Steps not counted")
	}

	arr, err := MakeFloatArray(th, []float64{1.5, 2.5, 3})
	if err != nil || arr.Kind != KArr {
		t.Fatalf("MakeFloatArray = %v, %v", arr, err)
	}
	got, err := arrGet(th, arr.Arr, 1)
	if err != nil || got.Num != 2.5 {
		t.Errorf("element = %v, %v", got, err)
	}
}

func TestValueStringsAndTruthy(t *testing.T) {
	if Num(1e16).String() == "" || Num(0.5).String() != "0.5" {
		t.Error("number formatting")
	}
	if Bool(false).String() != "false" || Null().String() != "null" {
		t.Error("literal formatting")
	}
	if !strings.HasPrefix(Arr(0x100).String(), "[array") {
		t.Error("array formatting")
	}
	if !strings.HasPrefix(Obj(0x100).String(), "[object") {
		t.Error("object formatting")
	}
	if (Value{Kind: Kind(99)}).String() != "?" || Kind(99).String() != "?" {
		t.Error("unknown kind formatting")
	}
	for v, want := range map[*Value]bool{
		{Kind: KNull}:             false,
		{Kind: KNum, Num: 0}:      false,
		{Kind: KNum, Num: 2}:      true,
		{Kind: KStr, Str: ""}:     false,
		{Kind: KStr, Str: "x"}:    true,
		{Kind: KBool, Bool: true}: true,
		{Kind: KArr, Arr: 1}:      true,
		{Kind: KObj, Obj: 1}:      true,
		{Kind: Kind(99)}:          false,
	} {
		if v.Truthy() != want {
			t.Errorf("%v.Truthy() != %v", v, want)
		}
	}
}

func TestStringEdgeCases(t *testing.T) {
	prog, _, _ := world(t, core.Base)
	cases := []struct {
		src  string
		want float64
	}{
		{`'single' == "single" ? 1 : 0;`, 1},
		{`"esc\n\t\r\\\"\0".length;`, 9},
		{`"abc" < "abd" ? 1 : 0;`, 1},
		{`"b" >= "a" ? 1 : 0;`, 1},
		{`("x" != "y") ? 1 : 0;`, 1},
		{`"sub".substr(3).length;`, 0},
		{`"long".substr(1, 99).length;`, 3},
		// The length clamps to [0, len-i]: negative or NaN gives "", a
		// length past int range the whole rest.
		{`"abc".substr(1, -1).length;`, 0},
		{`"abc".substr(0, 1e300).length;`, 3},
		{`"abc".substr(1, 0/0).length;`, 0},
		{`"abc".substr(1, 1.9) == "b" ? 1 : 0;`, 1},
	}
	for _, c := range cases {
		got, err := evalIn(t, prog, c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
	// Invalid string comparisons error rather than coerce.
	if _, err := evalIn(t, prog, `"a" < 5;`); err == nil {
		t.Error("string<number accepted")
	}
	if _, err := evalIn(t, prog, `"a" - "b";`); err == nil {
		t.Error("string subtraction accepted")
	}
	if _, err := evalIn(t, prog, `"sub".substr(5);`); err == nil {
		t.Error("substr past end accepted")
	}
}

// TestHugeArrayLengthIsRuntimeError: a length whose byte size wraps
// (new Array(-1) asks for 2^64-1 elements) is a script error, not a Go
// panic, and so is one the heap cannot serve (2^50 elements).
func TestHugeArrayLengthIsRuntimeError(t *testing.T) {
	prog, _, _ := world(t, core.Base)
	for _, src := range []string{
		"new Array(-1);", "new IntArray(-1);", "Array(-1);", "IntArray(-8);",
		"new Array(2305843009213693952);", "new Array(1e300);", "new Array(1125899906842624);",
	} {
		_, err := evalIn(t, prog, src)
		var rerr *RuntimeError
		if !errors.As(err, &rerr) {
			t.Errorf("%q: err = %v, want a RuntimeError", src, err)
		}
	}
	// The planted setLength bug is untouched: it writes any length.
	if got, err := evalIn(t, prog, "var a = new Array(2); a.setLength(-1); a.length;"); err != nil || got != math.MaxUint64 {
		t.Errorf("setLength(-1) then length = %v, %v", got, err)
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	prog, _, _ := world(t, core.Base)
	_, err := evalIn(t, prog, "\n\nvar = 5;")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("syntax error lacks line: %v", err)
	}
}
