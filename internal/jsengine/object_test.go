package jsengine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pkalloc"
)

func TestObjectBasics(t *testing.T) {
	prog, _, _ := world(t, core.MPK)
	cases := []struct {
		name, src string
		want      float64
	}{
		{"literal and get", `var o = {a: 1, b: 2}; o.a + o.b;`, 3},
		{"string keys", `var o = {"x y": 7}; keyCount(o);`, 1},
		{"set new prop", `var o = {}; o.n = 5; o.n;`, 5},
		{"overwrite", `var o = {n: 1}; o.n = 9; o.n;`, 9},
		{"compound assign", `var o = {n: 10}; o.n += 5; o.n *= 2; o.n;`, 30},
		{"missing prop is null", `var o = {}; o.ghost == null ? 1 : 0;`, 1},
		{"new Object", `var o = new Object(); o.k = 3; o.k;`, 3},
		{"nested objects", `var o = {inner: {deep: 42}}; o.inner.deep;`, 42},
		{"object holding array", `var o = {arr: [1, 2, 3]}; o.arr[1];`, 2},
		{"object holding string", `var o = {s: "hello"}; o.s.length;`, 5},
		{"object holding bool", `var o = {f: true}; o.f ? 8 : 9;`, 8},
		{"aliasing", `var a = {v: 1}; var b = a; b.v = 7; a.v;`, 7},
		{"keyCount grows", `var o = {}; for (var i = 0; i < 20; i++) { if (i == 5) o.five = 1; if (i == 9) o.nine = 1; } keyCount(o);`, 2},
		{"hasKey", `var o = {a: 1}; (hasKey(o, "a") ? 10 : 0) + (hasKey(o, "b") ? 1 : 0);`, 10},
		{"many props force growth", `var o = {}; o.p0=0; o.p1=1; o.p2=2; o.p3=3; o.p4=4; o.p5=5; o.p6=6; o.p7=7; o.p2 + o.p7;`, 9},
		{"object in function", `function mk(x) { return {val: x * 2}; } mk(21).val;`, 42},
		{"truthy", `var o = {}; o ? 1 : 0;`, 1},
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

func TestObjectsLiveInMU(t *testing.T) {
	prog, eng, _ := world(t, core.MPK)
	if _, err := evalIn(t, prog, `var o = {a: 1};`); err != nil {
		t.Fatal(err)
	}
	v, ok := global(eng, "o")
	if !ok || v.Kind != KObj {
		t.Fatalf("global o = %+v", v)
	}
	if c, ok := prog.Allocator().CompartmentOf(v.Obj); !ok || c != pkalloc.Untrusted {
		t.Errorf("object header in %v, want MU", c)
	}
}

func TestObjectErrors(t *testing.T) {
	prog, _, _ := world(t, core.Base)
	for name, src := range map[string]string{
		"prop on number":   `var x = 5; x.field = 1;`,
		"keyCount non-obj": `keyCount(5);`,
		"hasKey non-obj":   `hasKey(5, "a");`,
		"bad literal":      `var o = {a 1};`,
		"bad key":          `var o = {[x]: 1};`,
	} {
		if _, err := evalIn(t, prog, src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestObjectCorruptionContained: the OOB primitive can reach an object's
// slot pointer too (objects and arrays share the MU heap); the escalated
// write is still confined by PKRU-Safe.
func TestObjectCorruptionContained(t *testing.T) {
	prog, _, _ := world(t, core.MPK)
	secret, err := prog.Allocator().Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Main().VM.Store64(secret, 42); err != nil {
		t.Fatal(err)
	}
	// Corrupt an object's slot-table pointer via the array OOB, then
	// write a property: the property store lands at the attacker address.
	src := `
		var a = new IntArray(8);
		var o = {victim: 1};
		a.setLength(4096);
		var found = -1;
		for (var i = 8; i < 2000; i++) {
			if (a[i] == 0x4a530b1e) { found = i; break; }
		}
		a[found + 3] = ` + formatU64(uint64(secret)) + `;
		o.victim = 1337;
	`
	_, err = evalIn(t, prog, src)
	if err == nil {
		t.Fatal("object-based arbitrary write should fault under mpk")
	}
	v, _ := prog.Main().VM.Load64(secret)
	if v != 42 {
		t.Errorf("secret = %d, want intact", v)
	}
}

func TestObjectPrintFormat(t *testing.T) {
	prog, _, out := world(t, core.Base)
	if _, err := evalIn(t, prog, `print({a: 1});`); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); len(got) == 0 || got[0] != '[' {
		t.Errorf("object print = %q", got)
	}
}
