package browser

import (
	"testing"

	"repro/internal/core"
)

// hostCallPage and hostCallSrc are the host-call loop of TestHostCallAllocs
// and BenchmarkHostCall: per iteration a byId (a string staged out), a
// getAttr (a string out and one read back), a getText (a read) and a
// childCount (words only), each through a reverse gate.
const (
	hostCallPage = `<div id="target" class="box wide">hello host<span></span></div>`
	hostCallSrc  = `function hostLoop(n) {
	var s = 0;
	for (var i = 0; i < n; i++) {
		var id = byId("target");
		s = s + childCount(id) + getAttr(id, "class").length + getText(id).length;
	}
	return s;
}`
)

// hostCallBrowser builds the MPK browser the loop runs in, from a profile
// of the same loop, and returns it with the loop's handle.
func hostCallBrowser(tb testing.TB) (*Browser, uint64) {
	tb.Helper()
	load := func(b *Browser) (uint64, error) {
		if err := b.LoadHTML(hostCallPage); err != nil {
			return 0, err
		}
		if _, err := b.ExecScript(hostCallSrc); err != nil {
			return 0, err
		}
		return b.LookupScriptFunc("hostLoop")
	}
	prof, err := CollectProfile(func(b *Browser) error {
		fn, err := load(b)
		if err != nil {
			return err
		}
		_, err = b.InvokeScriptFunc(fn, 2)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := New(core.MPK, prof)
	if err != nil {
		tb.Fatal(err)
	}
	fn, err := load(b)
	if err != nil {
		tb.Fatal(err)
	}
	return b, fn
}

// maxHostCallAllocs is the Go allocations one iteration of hostLoop makes:
// the four strings read across the boundary (the id and the attribute key
// servo reads, the attribute and the text the engine reads back), one
// string each, and the word-ABI argument and result slices of the four
// reverse gates. The engine's values and frames, the scratch frees and
// the staging of strings allocate nothing.
const maxHostCallAllocs = 12

// TestHostCallAllocs pins the Go allocations per iteration of a loop of
// DOM host calls.
func TestHostCallAllocs(t *testing.T) {
	b, fn := hostCallBrowser(t)
	// One child, "box wide" and "hello host": 19 per iteration.
	if v, err := b.InvokeScriptFunc(fn, 3); err != nil || v != 57 {
		t.Fatalf("hostLoop(3) = %v, %v; want 57", v, err)
	}
	allocs := func(n float64) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := b.InvokeScriptFunc(fn, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	const lo, hi = 10, 210
	perIter := (allocs(hi) - allocs(lo)) / (hi - lo)
	t.Logf("%.2f allocations per iteration", perIter)
	if perIter > maxHostCallAllocs {
		t.Errorf("%.2f allocations per iteration, want at most %d", perIter, maxHostCallAllocs)
	}
}

// BenchmarkHostCall measures one InvokeScriptFunc of a 20-iteration host
// call loop in the MPK build.
func BenchmarkHostCall(b *testing.B) {
	br, fn := hostCallBrowser(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.InvokeScriptFunc(fn, 20); err != nil {
			b.Fatal(err)
		}
	}
}
