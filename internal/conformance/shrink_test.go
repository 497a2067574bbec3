package conformance

import (
	"strings"
	"testing"
)

// TestShrinkProducesMinimalDivergingTrace: shrinking a diverging replay
// keeps the divergence while discarding the irrelevant ops.
func TestShrinkProducesMinimalDivergingTrace(t *testing.T) {
	opts := Options{Inject: InjectStaleSetPKey}
	// Pad the directed probe with generated noise so there is something
	// substantial to strip away.
	tr := Generate(3, 128)
	tr.Ops = append(tr.Ops, DirectedTrace().Ops...)
	if !diverges(tr, opts) {
		t.Fatal("padded trace does not diverge under injection")
	}
	sh := Shrink(tr, opts)
	if !diverges(sh, opts) {
		t.Fatal("shrunk trace no longer diverges")
	}
	if len(sh.Ops) >= len(tr.Ops) {
		t.Errorf("shrink removed nothing: %d -> %d ops", len(tr.Ops), len(sh.Ops))
	}
	// The stale-retag bug needs only: a reserve, the skipped retag, and a
	// witness (an access or the key sweep). Shrinking should get close.
	if len(sh.Ops) > 8 {
		t.Errorf("shrunk trace still has %d ops (want <= 8):\n%s", len(sh.Ops), FormatGoTest("Shrink", sh))
	}
	t.Logf("shrunk %d -> %d ops:\n%s", len(tr.Ops), len(sh.Ops), FormatGoTest("Shrink", sh))
}

// TestShrinkOnCleanTraceIsIdentity: a non-diverging trace comes back
// unchanged rather than being mangled.
func TestShrinkOnCleanTraceIsIdentity(t *testing.T) {
	tr := Generate(5, 64)
	sh := Shrink(tr, Options{})
	if len(sh.Ops) != len(tr.Ops) {
		t.Errorf("clean trace shrunk from %d to %d ops", len(tr.Ops), len(sh.Ops))
	}
}

// TestShrunkTraceRendersStandalone: the printed repro carries every op of
// the shrunk trace so it can be pasted into a regression test verbatim.
func TestShrunkTraceRendersStandalone(t *testing.T) {
	opts := Options{Inject: InjectSkipGateRestore}
	sh := Shrink(DirectedTrace(), opts)
	src := FormatGoTest("GateRestore", sh)
	if got := strings.Count(src, "{Kind: conformance.Op"); got != len(sh.Ops) {
		t.Errorf("rendered test has %d op literals, want %d:\n%s", got, len(sh.Ops), src)
	}
}
