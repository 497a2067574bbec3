package browser

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mpk"
	"repro/internal/profile"
	"repro/internal/vm"
)

func TestParseHTML(t *testing.T) {
	nodes, err := parseHTML(`
		<!-- comment -->
		<div id="a" class="x">
			text here
			<p>para</p>
			<br/>
		</div>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 {
		t.Fatalf("top nodes = %d", len(nodes))
	}
	div := nodes[0]
	if div.tag != "div" || len(div.attrs) != 2 || div.attrs[0] != (htmlAttr{"id", "a"}) || div.attrs[1] != (htmlAttr{"class", "x"}) {
		t.Errorf("div = %+v", div)
	}
	if len(div.kids) != 3 {
		t.Fatalf("kids = %d (%+v)", len(div.kids), div.kids)
	}
	if div.kids[0].tag != "#text" || div.kids[0].text != "text here" {
		t.Errorf("text kid = %+v", div.kids[0])
	}
	if div.kids[1].tag != "p" || div.kids[2].tag != "br" {
		t.Errorf("kids = %v %v", div.kids[1].tag, div.kids[2].tag)
	}
}

func TestParseHTMLErrors(t *testing.T) {
	for name, src := range map[string]string{
		"mismatched":    "<div><p></div></p>",
		"unterminated":  "<div>",
		"bad comment":   "<!-- never closed",
		"bad attrvalue": `<div id=unquoted>`,
		"empty tag":     "<>",
		"stray close":   "</div>",
	} {
		if _, err := parseHTML(src); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestLoadHTMLBuildsDOM(t *testing.T) {
	b, err := New(core.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadHTML(`<body><div id="d"><p>one</p><p>two</p></div></body>`); err != nil {
		t.Fatal(err)
	}
	d, ok := b.Doc.byID["d"]
	if !ok {
		t.Fatal("getElementById index missing d")
	}
	if len(d.Children) != 2 {
		t.Errorf("children = %d", len(d.Children))
	}
	// Node records live in MT and carry the node id.
	v, err := b.th().VM.Load64(d.record)
	if err != nil || v != d.ID {
		t.Errorf("record id = %d, %v", v, err)
	}
	txt, err := b.textOf(b.th(), d.Children[0])
	if err != nil || txt != "one" {
		t.Errorf("text = %q, %v", txt, err)
	}
}

func TestScriptDOMRoundTrip(t *testing.T) {
	var out bytes.Buffer
	b, err := New(core.Base, nil, Options{ScriptOutput: &out})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadHTML(`<div id="root"><p id="x">hi</p></div>`); err != nil {
		t.Fatal(err)
	}
	got, err := b.ExecScript(`
		var x = byId("x");
		print(getText(x));
		setText(x, "updated");
		var n = createElement("em");
		appendChild(byId("root"), n);
		setText(n, "fresh");
		setAttr(n, "id", "em1");
		childCount(byId("root"));
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("childCount = %v", got)
	}
	if strings.TrimSpace(out.String()) != "hi" {
		t.Errorf("printed %q", out.String())
	}
	x := b.Doc.byID["x"]
	txt, _ := b.textOf(b.th(), x)
	if txt != "updated" {
		t.Errorf("text after script = %q", txt)
	}
	if _, ok := b.Doc.byID["em1"]; !ok {
		t.Error("script-created node not indexed by id")
	}
}

func TestInnerHTMLAndQuery(t *testing.T) {
	b, err := New(core.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadHTML(`<div id="c"></div>`); err != nil {
		t.Fatal(err)
	}
	got, err := b.ExecScript(`
		var c = byId("c");
		setInnerHTML(c, "<span>a</span><span>b</span><p>c</p>");
		var spans = queryTag("span");
		setInnerHTML(c, "<i>z</i>");     // children replaced
		spans.length * 10 + childCount(c);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got != 21 {
		t.Errorf("= %v, want 21 (2 spans, 1 child)", got)
	}
}

func TestGetAttrAndReflow(t *testing.T) {
	b, err := New(core.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadHTML(`<div id="d" class="wide tall"></div>`); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	b2, _ := New(core.Base, nil, Options{ScriptOutput: &out})
	_ = b2
	got, err := b.ExecScript(`
		var d = byId("d");
		var c = getAttr(d, "class");
		reflow();
		c.length;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Errorf("class length = %v", got)
	}
	if got, err := b.ExecScript(`getAttr(byId("d"), "missing").length;`); err != nil || got != 0 {
		t.Errorf("missing attr = %v, %v", got, err)
	}
}

func TestInvokeScriptFuncPath(t *testing.T) {
	b, err := New(core.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ExecScript(`function work(n) { var s = 0; for (var i = 0; i < n; i++) s += i; return s; }`); err != nil {
		t.Fatal(err)
	}
	id, err := b.LookupScriptFunc("work")
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.InvokeScriptFunc(id, 100)
	if err != nil || got != 4950 {
		t.Errorf("invoke = %v, %v", got, err)
	}
	if _, err := b.LookupScriptFunc("ghost"); err == nil {
		t.Error("lookup of undefined function succeeded")
	}
}

// TestBrowserPipeline is the browser-level four-stage run: empty-profile
// enforcement faults on the script source; profiling collects the shared
// sites; enforcement with the profile runs the same workload cleanly.
func TestBrowserPipeline(t *testing.T) {
	// Stage 1: enforce with empty profile -> the eval source read faults.
	b1, err := New(core.MPK, profile.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := b1.LoadHTML(`<p id="p">x</p>`); err != nil {
		t.Fatal(err)
	}
	_, err = b1.ExecScript("1+1;")
	var fault *vm.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("stage 1: want fault, got %v", err)
	}

	// Stage 2: profiling run over the standard corpus.
	prof, err := CollectProfile(StandardCorpus)
	if err != nil {
		t.Fatalf("stage 2: %v", err)
	}
	wantShared := []string{"servo::script::source", "servo::dom::text", "servo::dom::attr"}
	for _, fn := range wantShared {
		if !prof.Contains(profile.AllocID{Func: fn}) {
			t.Errorf("profile missing %s: %v", fn, prof.IDs())
		}
	}
	for _, fn := range []string{"servo::dom::node_record", "servo::layout::box", "servo::style::data"} {
		if prof.Contains(profile.AllocID{Func: fn}) {
			t.Errorf("internal site %s wrongly profiled as shared", fn)
		}
	}

	// Stage 3: enforce with the profile; the corpus workload runs clean.
	b3, err := New(core.MPK, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := StandardCorpus(b3); err != nil {
		t.Fatalf("stage 3: %v", err)
	}
	st := b3.Stats()
	if st.Transitions == 0 {
		t.Error("no transitions counted in mpk build")
	}
	if st.UntrustedSites == 0 || st.UntrustedSites >= st.TotalSites {
		t.Errorf("site split = %d/%d", st.UntrustedSites, st.TotalSites)
	}
	if b3.th().VM.Rights() != mpk.PermitAll {
		t.Error("main thread rights not restored after workload")
	}
}

// TestE3SecretExploit reproduces the paper's security experiment end to
// end: the CVE-analogue exploit corrupts the fixed-address secret in the
// unprotected build and dies with an MPK violation in the protected one.
func TestE3SecretExploit(t *testing.T) {
	exploit := `
		var a = new IntArray(8);
		var b = new IntArray(8);
		a.setLength(4096);
		var found = -1;
		for (var i = 8; i < 2000; i++) {
			if (a[i] == 0x4a53ce11) { found = i; break; }
		}
		a[found + 3] = 0x168000000000;
		b[0] = 1337;
		b[0];
	`
	// Vulnerable configuration (base build, no protection).
	bv, err := New(core.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bv.PlantSecret(42); err != nil {
		t.Fatal(err)
	}
	if _, err := bv.ExecScript(exploit); err != nil {
		t.Fatalf("exploit on vulnerable build: %v", err)
	}
	v, err := bv.SecretValue()
	if err != nil {
		t.Fatal(err)
	}
	if v != 1337 {
		t.Errorf("vulnerable secret = %d, want 1337", v)
	}

	// Protected configuration.
	prof, err := CollectProfile(StandardCorpus)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := New(core.MPK, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.PlantSecret(42); err != nil {
		t.Fatal(err)
	}
	_, err = bp.ExecScript(exploit)
	var fault *vm.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("exploit on protected build = %v, want MPK fault", err)
	}
	v, err = bp.SecretValue()
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("protected secret = %d, want intact 42", v)
	}
}

func TestSecretGuards(t *testing.T) {
	b, err := New(core.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.SecretValue(); err == nil {
		t.Error("SecretValue before planting succeeded")
	}
	if err := b.PlantSecret(1); err != nil {
		t.Fatal(err)
	}
	if err := b.PlantSecret(2); err == nil {
		t.Error("double plant accepted")
	}
}

func TestAllocOnlyBuildRunsWorkload(t *testing.T) {
	prof, err := CollectProfile(StandardCorpus)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(core.Alloc, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := StandardCorpus(b); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Transitions != 0 {
		t.Errorf("alloc build counted %d transitions", st.Transitions)
	}
	if st.UntrustedShare <= 0 {
		t.Error("alloc build should serve shared sites from MU")
	}
}

func TestDOMOpErrorPaths(t *testing.T) {
	b, err := New(core.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ExecScript(`setText(9999, "x");`); err == nil {
		t.Error("setText on bogus node succeeded")
	}
	if _, err := b.ExecScript(`appendChild(1, 12345);`); err == nil {
		t.Error("appendChild of bogus node succeeded")
	}
	if _, err := b.ExecScript(`byId(42);`); err == nil {
		t.Error("byId with non-string succeeded")
	}
	if got, err := b.ExecScript(`byId("nope");`); err != nil || got != 0 {
		t.Errorf("byId miss = %v, %v", got, err)
	}
	// Re-appending a parented node is a DOM error.
	if err := b.LoadHTML(`<div id="a"><p id="b"></p></div>`); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ExecScript(`appendChild(byId("a"), byId("b"));`); err == nil {
		t.Error("re-append accepted")
	}
}

func TestRemoveChildrenFreesMemory(t *testing.T) {
	b, err := New(core.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadHTML(`<div id="c"></div>`); err != nil {
		t.Fatal(err)
	}
	before := b.Doc.CountNodes()
	if _, err := b.ExecScript(`
		var c = byId("c");
		for (var i = 0; i < 20; i++) {
			var n = createElement("p");
			appendChild(c, n);
			setText(n, "node " + i);
		}
		removeChildren(c);
		childCount(c);
	`); err != nil {
		t.Fatal(err)
	}
	if after := b.Doc.CountNodes(); after != before {
		t.Errorf("nodes leaked: %d -> %d", before, after)
	}
}

// TestAttrBuffersPlacedDeterministically: an element's attributes are set
// in source order, so a fresh load always places their MT buffers at the
// same addresses.
func TestAttrBuffersPlacedDeterministically(t *testing.T) {
	var first map[string]attrBuf
	for i := 0; i < 40; i++ {
		b, err := New(core.Base, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.LoadHTML(`<div id="d" class="wide" title="t"></div>`); err != nil {
			t.Fatal(err)
		}
		got := b.Doc.byID["d"].attrAddrs
		if len(got) != 3 {
			t.Fatalf("attribute buffers = %v, want 3", got)
		}
		if first == nil {
			first = got
			continue
		}
		for k, buf := range first {
			if got[k] != buf {
				t.Fatalf("load %d: %s buffer at %v, first load had %v", i, k, got[k].addr, buf.addr)
			}
		}
	}
}
