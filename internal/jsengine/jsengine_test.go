package jsengine

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ffi"
	"repro/internal/pkalloc"
	"repro/internal/profile"
	"repro/internal/vm"
)

// world builds a program in the given config with an installed engine.
func world(t *testing.T, cfg core.BuildConfig) (*core.Program, *Engine, *bytes.Buffer) {
	t.Helper()
	reg := ffi.NewRegistry()
	var out bytes.Buffer
	eng := NewEngine(Options{Output: &out})
	if err := eng.Install(reg, DefaultLib); err != nil {
		t.Fatal(err)
	}
	var prof *profile.Profile
	if cfg == core.Alloc || cfg == core.MPK {
		prof = profile.New()
	}
	prog, err := core.NewProgram(reg, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	return prog, eng, &out
}

// evalIn runs src through the engine's gated eval by staging the source in
// a buffer the engine can read (MU).
func evalIn(t *testing.T, prog *core.Program, src string) (float64, error) {
	t.Helper()
	th := prog.Main()
	buf, err := prog.Allocator().UntrustedAlloc(uint64(len(src)))
	if err != nil {
		t.Fatal(err)
	}
	if err := th.WriteBytes(buf, []byte(src)); err != nil {
		t.Fatal(err)
	}
	res, err := th.Call(DefaultLib, "eval", uint64(buf), uint64(len(src)))
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(res[0]), nil
}

func TestLanguageBasics(t *testing.T) {
	cases := []struct {
		name, src string
		want      float64
	}{
		{"arith", "3 + 4 * 2 - 1;", 10},
		{"precedence", "(3 + 4) * 2;", 14},
		{"mod", "17 % 5;", 2},
		{"div float", "7 / 2;", 3.5},
		{"bitops", "(0xff & 0x0f) | (1 << 4);", 31},
		{"xor shift", "(12 ^ 5) >> 1;", 4},
		{"compare chain", "(1 < 2) + (3 >= 3) + (4 == 4) + (5 != 5);", 3},
		{"strict eq", "(1 === 1) + (2 !== 3);", 2},
		{"logical", "(true && 5) + (false || 2);", 7},
		{"ternary", "1 ? 10 : 20;", 10},
		{"unary", "-(-5) + !0 + ~(-1);", 6},
		{"hex", "0x10 + 0X20;", 48},
		{"float literals", "1.5 + 2.5e1 + .5;", 27},
		{"var and assign", "var x = 2; x = x + 3; x;", 5},
		{"compound assign", "var x = 10; x += 5; x -= 3; x *= 2; x /= 4; x;", 6},
		{"prefix inc", "var i = 1; ++i; i;", 2},
		{"postfix dec", "var i = 3; i--; i;", 2},
		{"while", "var s = 0; var i = 0; while (i < 5) { s += i; i++; } s;", 10},
		{"for", "var s = 0; for (var i = 0; i < 10; i++) s += i; s;", 45},
		{"break", "var i = 0; while (true) { i++; if (i == 7) break; } i;", 7},
		{"continue", "var s = 0; for (var i = 0; i < 10; i++) { if (i % 2) continue; s += i; } s;", 20},
		{"function", "function sq(x) { return x * x; } sq(9);", 81},
		{"recursion", "function fib(n) { if (n < 2) return n; return fib(n-1)+fib(n-2); } fib(12);", 144},
		{"builtin math", "floor(sqrt(17)) + abs(-2) + pow(2, 5);", 38},
		{"min max", "min(3, 5) + max(3, 5);", 8},
		{"nested call", "function a(x){return x+1;} function b(x){return a(x)*2;} b(4);", 10},
		{"locals shadow globals", "var x = 1; function f() { var x = 99; return x; } f() + x;", 100},
		{"globals from function", "var g = 0; function f() { g = 42; } f(); g;", 42},
		{"object equality", "var oa = {k: 1}; var ob = {k: 2}; var oc = oa; (oa == ob) + (oa == oc) * 2;", 2},
		{"object inequality", "var oa = {k: 1}; var ob = {k: 2}; var oc = oa; (oa != ob) + (oa != oc) * 2;", 1},
		{"parseInt", "parseInt(\"123abc\") + parseInt(\"-40\");", 83},
		{"string length", "\"hello\".length;", 5},
		{"charCodeAt", "\"A\".charCodeAt(0);", 65},
		{"indexOf", "\"hello world\".indexOf(\"world\");", 6},
		{"comments", "// line\n/* block\nstill */ 7;", 7},
	}
	prog, eng, _ := world(t, core.Base)
	_ = eng
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
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

func TestStringsAndPrint(t *testing.T) {
	prog, _, out := world(t, core.Base)
	_, err := evalIn(t, prog, `
		var s = "foo" + "bar";
		print(s, s.length, s.substr(1, 3));
		print(fromCharCode(104, 105));
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := "foobar 6 oob\nhi\n"
	if out.String() != want {
		t.Errorf("output = %q, want %q", out.String(), want)
	}
}

func TestArraysLiveInMU(t *testing.T) {
	prog, eng, _ := world(t, core.MPK)
	if _, err := evalIn(t, prog, "var a = new Array(10); a[3] = 1.5; a[3];"); err != nil {
		t.Fatal(err)
	}
	v, ok := eng.Global("a")
	if !ok || v.Kind != KArr {
		t.Fatalf("global a = %+v", v)
	}
	if c, ok := prog.Allocator().CompartmentOf(v.Arr); !ok || c != pkalloc.Untrusted {
		t.Errorf("array header in %v, want MU", c)
	}
}

func TestArrayOps(t *testing.T) {
	prog, _, _ := world(t, core.MPK)
	cases := []struct {
		name, src string
		want      float64
	}{
		{"fill and sum", "var a = new Array(100); for (var i = 0; i < 100; i++) a[i] = i; var s = 0; for (var j = 0; j < 100; j++) s += a[j]; s;", 4950},
		{"float elements", "var a = new Array(2); a[0] = 1.25; a[1] = 2.5; a[0] + a[1];", 3.75},
		{"int array truncates", "var a = new IntArray(1); a[0] = 3.7; a[0];", 3},
		{"array literal", "var a = [1, 2, 3]; a[0] + a[1] + a[2];", 6},
		{"length", "var a = new Array(7); a.length;", 7},
		{"push grows", "var a = new Array(0); for (var i = 0; i < 50; i++) a.push(i * 2); a[49] + a.length;", 148},
		{"compound element assign", "var a = [5]; a[0] += 3; a[0] *= 2; a[0];", 16},
		{"aliasing", "var a = [1]; var b = a; b[0] = 9; a[0];", 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
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

func TestArrayBoundsEnforcedNormally(t *testing.T) {
	prog, _, _ := world(t, core.MPK)
	if _, err := evalIn(t, prog, "var a = new Array(4); a[4];"); err == nil {
		t.Error("in-spec bounds check missing")
	}
	if _, err := evalIn(t, prog, "var a = new Array(4); a[4] = 1;"); err == nil {
		t.Error("in-spec store bounds check missing")
	}
}

// TestPlantedBugGivesOOB: setLength inflates length without growing the
// buffer; subsequent accesses step past the allocation — the engine's
// memory-safety bug, contained (so far) within MU.
func TestPlantedBugGivesOOB(t *testing.T) {
	prog, _, _ := world(t, core.MPK)
	got, err := evalIn(t, prog, `
		var a = new IntArray(4);
		a.setLength(100);
		a[50] = 777;      // out of bounds, silently corrupting MU
		a[50];
	`)
	if err != nil {
		t.Fatalf("OOB through planted bug should not trap inside MU: %v", err)
	}
	if got != 777 {
		t.Errorf("OOB readback = %v", got)
	}
}

// exploitScript escalates the OOB into an arbitrary write, exactly like
// the CVE-2019-11707-based exploit in §5.4: spray two adjacent arrays,
// inflate the first's length, scan forward for the second's header tag,
// overwrite its backing pointer with the target address, then write
// through the second array.
func exploitScript(target uint64, value uint64) string {
	return `
		var a = new IntArray(8);
		var b = new IntArray(8);
		a.setLength(4096);
		var found = -1;
		for (var i = 8; i < 2000; i++) {
			if (a[i] == 0x4a53ce11) { found = i; break; }
		}
		if (found < 0) { print("header scan failed"); }
		a[found + 3] = ` + formatU64(target) + `;   // corrupt b.dataPtr
		b[0] = ` + formatU64(value) + `;            // arbitrary write
		b[0];
	`
}

func formatU64(v uint64) string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 0, 18)
	out = append(out, '0', 'x')
	started := false
	for shift := 60; shift >= 0; shift -= 4 {
		d := (v >> uint(shift)) & 0xf
		if d != 0 || started || shift == 0 {
			out = append(out, hexdigits[d])
			started = true
		}
	}
	return string(out)
}

// TestExploitArbitraryWriteWithoutProtection: in the base build (no
// gates), the escalated write lands in trusted memory — the paper's
// vulnerable-Servo result.
func TestExploitArbitraryWriteWithoutProtection(t *testing.T) {
	prog, _, _ := world(t, core.Base)
	secret, err := prog.Allocator().Alloc(8) // trusted heap secret
	if err != nil {
		t.Fatal(err)
	}
	th := prog.Main()
	if err := th.VM.Store64(secret, 42); err != nil {
		t.Fatal(err)
	}
	got, err := evalIn(t, prog, exploitScript(uint64(secret), 1337))
	if err != nil {
		t.Fatalf("exploit run: %v", err)
	}
	if got != 1337 {
		t.Fatalf("exploit readback = %v (scan failed?)", got)
	}
	v, err := th.VM.Load64(secret)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1337 {
		t.Errorf("secret = %d, want corrupted to 1337", v)
	}
}

// TestExploitBlockedByPKRUSafe: same exploit, mpk build — the write to MT
// raises an MPK violation and the program dies, the paper's headline
// security result.
func TestExploitBlockedByPKRUSafe(t *testing.T) {
	prog, _, _ := world(t, core.MPK)
	secret, err := prog.Allocator().Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	th := prog.Main()
	if err := th.VM.Store64(secret, 42); err != nil {
		t.Fatal(err)
	}
	_, err = evalIn(t, prog, exploitScript(uint64(secret), 1337))
	var fault *vm.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("exploit should die on MPK violation, got %v", err)
	}
	if fault.Info.PKey != uint8(prog.Allocator().TrustedKey()) {
		t.Errorf("fault pkey = %d", fault.Info.PKey)
	}
	v, err := th.VM.Load64(secret)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("secret = %d, want intact 42", v)
	}
	// The exploit's intra-MU corruption still happened — compartmentaliza-
	// tion contains, it does not fix, the engine's bug.
	if prog.Main().VM.Stats().PKUFaults == 0 {
		t.Error("no PKU fault recorded")
	}
}

// TestExploitArbitraryReadBlocked: the read primitive (leaking MT data)
// is likewise blocked.
func TestExploitArbitraryReadBlocked(t *testing.T) {
	prog, _, _ := world(t, core.MPK)
	secret, _ := prog.Allocator().Alloc(8)
	th := prog.Main()
	if err := th.VM.Store64(secret, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	src := strings.Replace(exploitScript(uint64(secret), 0), "b[0] = 0x0;", "", 1) + "b[0];"
	_, err := evalIn(t, prog, src)
	var fault *vm.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("leak should fault, got %v", err)
	}
}

func TestHostFunctionReverseGate(t *testing.T) {
	reg := ffi.NewRegistry()
	eng := NewEngine()
	if err := eng.Install(reg, DefaultLib); err != nil {
		t.Fatal(err)
	}
	prog, err := core.NewProgram(reg, core.MPK, profile.New())
	if err != nil {
		t.Fatal(err)
	}
	secret, _ := prog.Allocator().Alloc(8)
	if err := prog.Main().VM.Store64(secret, 55); err != nil {
		t.Fatal(err)
	}
	// Trusted binding that reads MT, registered as an exported T function.
	reg.MustLibrary("servo", ffi.Trusted).Define("get_secret", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
		v, err := th.Load64(secret)
		return []uint64{v}, err
	})
	eng.RegisterHost("getSecret", func(th *ffi.Thread, _ []Value) (Value, error) {
		res, err := th.Call("servo", "get_secret")
		if err != nil {
			return Null(), err
		}
		return Num(float64(res[0])), nil
	})
	got, err := evalIn(t, prog, "getSecret();")
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Errorf("host call = %v", got)
	}
	if prog.Transitions() < 2 {
		t.Errorf("transitions = %d, want >= 2 (eval gate + reverse gate)", prog.Transitions())
	}
}

// TestEvalSourceInTrustedBufferPipeline: the script text itself is heap
// data flowing T->U. With an empty profile the engine cannot read it; a
// profiling run records the site; the enforced build serves it from MU.
func TestEvalSourceInTrustedBufferPipeline(t *testing.T) {
	reg := ffi.NewRegistry()
	eng := NewEngine()
	if err := eng.Install(reg, DefaultLib); err != nil {
		t.Fatal(err)
	}
	src := "6 * 7;"

	runWith := func(cfg core.BuildConfig, prof *profile.Profile) (*core.Program, float64, error) {
		prog, err := core.NewProgram(reg, cfg, prof)
		if err != nil {
			t.Fatal(err)
		}
		site := prog.Site("browser::load_script", 0, 0)
		buf, err := prog.AllocAt(site, uint64(len(src)))
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Main().VM.Write(buf, []byte(src)); err != nil {
			t.Fatal(err)
		}
		res, err := prog.Main().Call(DefaultLib, "eval", uint64(buf), uint64(len(src)))
		if err != nil {
			return prog, 0, err
		}
		return prog, math.Float64frombits(res[0]), nil
	}

	// Empty profile: the engine faults reading the source.
	_, _, err := runWith(core.MPK, profile.New())
	var fault *vm.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("unshared source buffer should fault, got %v", err)
	}

	// Profiling run records the site.
	prog2, v2, err := runWith(core.Profiling, nil)
	if err != nil || v2 != 42 {
		t.Fatalf("profiling run = %v, %v", v2, err)
	}
	prof, _ := prog2.RecordedProfile()
	if !prof.Contains(profile.AllocID{Func: "browser::load_script", Block: 0, Site: 0}) {
		t.Fatalf("profile %v missing script-source site", prof.IDs())
	}

	// Enforced with the profile: works.
	_, v3, err := runWith(core.MPK, prof)
	if err != nil || v3 != 42 {
		t.Errorf("enforced run = %v, %v", v3, err)
	}
}

func TestInvokeByID(t *testing.T) {
	prog, _, _ := world(t, core.MPK)
	if _, err := evalIn(t, prog, "function mul(a, b) { return a * b; }"); err != nil {
		t.Fatal(err)
	}
	th := prog.Main()
	name := "mul"
	nbuf, _ := prog.Allocator().UntrustedAlloc(uint64(len(name)))
	if err := th.WriteBytes(nbuf, []byte(name)); err != nil {
		t.Fatal(err)
	}
	res, err := th.Call(DefaultLib, "lookup", uint64(nbuf), uint64(len(name)))
	if err != nil || res[0] == 0 {
		t.Fatalf("lookup = %v, %v", res, err)
	}
	out, err := th.Call(DefaultLib, "invoke", res[0], math.Float64bits(6), math.Float64bits(7))
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(out[0]); got != 42 {
		t.Errorf("invoke = %v", got)
	}
	if _, err := th.Call(DefaultLib, "invoke", 999); err == nil {
		t.Error("invoke of bogus id accepted")
	}
}

// TestInvokeByIDAfterRedefinition: a redefinition — hoisted by a later
// Eval or run as a block statement — keeps the name's id and makes
// invoke-by-id run the latest body, as CallFunction does.
func TestInvokeByIDAfterRedefinition(t *testing.T) {
	prog, eng, _ := world(t, core.MPK)
	th := prog.Main()
	firstID := -1
	for i, src := range []string{
		"function bench() { return 1; }",
		"function bench() { return 2; }",
		"if (1) { function bench() { return 3; } }",
	} {
		want := float64(i + 1)
		if _, err := evalIn(t, prog, src); err != nil {
			t.Fatal(err)
		}
		id, ok := eng.FunctionID("bench")
		if !ok {
			t.Fatal("bench has no id")
		}
		if firstID < 0 {
			firstID = id
		} else if id != firstID {
			t.Errorf("redefinition moved bench from id %d to %d", firstID, id)
		}
		out, err := th.Call(DefaultLib, "invoke", uint64(id)+1)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64frombits(out[0]); got != want {
			t.Errorf("after %q: invoke = %v, want %v", src, got, want)
		}
		if v, err := eng.CallFunction(th, "bench"); err != nil || v.Num != want {
			t.Errorf("after %q: CallFunction = %v, %v; want %v", src, v.Num, err, want)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	prog, _, _ := world(t, core.Base)
	for _, src := range []string{
		"var ;", "function () {}", "if (x {}", "1 +;", "var a = [1,;",
		"\"unterminated", "/* unterminated", "@", "x ===;", "break", "5 = 3;",
	} {
		if _, err := evalIn(t, prog, src); err == nil {
			t.Errorf("accepted invalid script %q", src)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	prog, _, _ := world(t, core.Base)
	for name, src := range map[string]string{
		"undefined var":   "zzz + 1;",
		"undefined func":  "nope();",
		"index non-array": "var x = 5; x[0];",
		"bad member":      "var x = 5; x.length;",
		"break in func":   "function f() { break; } f();",
		"string oob":      "\"ab\"[5];",
		"bad ctor":        "new Widget(1);",
	} {
		if _, err := evalIn(t, prog, src); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestStepLimit(t *testing.T) {
	reg := ffi.NewRegistry()
	eng := NewEngine(Options{StepLimit: 10_000})
	if err := eng.Install(reg, DefaultLib); err != nil {
		t.Fatal(err)
	}
	prog, err := core.NewProgram(reg, core.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = evalIn(t, prog, "while (true) {}")
	if !errors.Is(err, ErrStepLimit) {
		t.Errorf("runaway script = %v, want step limit", err)
	}
}

func TestSeededRandomDeterministic(t *testing.T) {
	prog, _, _ := world(t, core.Base)
	a, err := evalIn(t, prog, "seededRandom(12345);")
	if err != nil {
		t.Fatal(err)
	}
	b, err := evalIn(t, prog, "seededRandom(12345);")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("seededRandom not deterministic: %v vs %v", a, b)
	}
	if a < 0 || a >= 1 {
		t.Errorf("seededRandom out of range: %v", a)
	}
}

func TestValueStrings(t *testing.T) {
	for v, want := range map[*Value]string{
		{Kind: KNull}:             "null",
		{Kind: KNum, Num: 3}:      "3",
		{Kind: KNum, Num: 3.5}:    "3.5",
		{Kind: KBool, Bool: true}: "true",
		{Kind: KStr, Str: "hi"}:   "hi",
	} {
		if v.String() != want {
			t.Errorf("%+v.String() = %q, want %q", v, v.String(), want)
		}
	}
	if KArr.String() != "array" || KNum.String() != "number" {
		t.Error("kind names")
	}
}
