package conformance

import "testing"

// TestPlantedFaultsAreDetected is the mutation test of the harness: every
// bug class the injector can plant must produce at least one divergence on
// its directed probe trace, and the probe trace must be clean without the
// injection (so the detection is the injection's doing, not noise).
func TestPlantedFaultsAreDetected(t *testing.T) {
	for _, f := range Faults() {
		tr := DirectedTrace()
		clean := Run(tr, Options{})
		if n := len(clean.Divergences); n != 0 {
			t.Errorf("%v: probe trace diverges without injection (%d): %v", f, n, clean.Divergences[0])
			continue
		}
		injected := Run(tr, Options{Inject: f})
		if len(injected.Divergences) == 0 {
			t.Errorf("%v: planted fault NOT detected by the differential oracle", f)
		} else {
			t.Logf("%v detected: %v", f, injected.Divergences[0])
		}
	}
}

// TestInjectionDetectedOnGeneratedTraces: the oracle also catches the
// planted bugs on ordinary generated workloads, not just the tailored
// probe — at least one seed per fault mode must trip.
func TestInjectionDetectedOnGeneratedTraces(t *testing.T) {
	for _, f := range Faults() {
		detected := false
		for seed := int64(1); seed <= 8 && !detected; seed++ {
			res := Run(Generate(seed, 384), Options{Inject: f})
			detected = len(res.Divergences) > 0
		}
		if !detected {
			t.Errorf("%v: no generated seed in 1..8 exposes the planted fault", f)
		}
	}
}

// TestDetectionAttribution: each injection's first divergence points at
// the mechanism it corrupts, so a report names the right layer.
func TestDetectionAttribution(t *testing.T) {
	cases := []struct {
		fault    Fault
		wantWhat map[string]bool // acceptable What values for any divergence
	}{
		{InjectSkipGateRestore, map[string]bool{"pkru": true, "outcome": true}},
		// A swallowed fault never reaches the supervisor, so the directed
		// heal does not happen and the object's page keeps the trusted key.
		{InjectSwallowSegv, map[string]bool{"outcome": true, "pkru": true, "keymap": true}},
		{InjectLeakTrustedAlloc, map[string]bool{"outcome": true, "keymap": true}},
		{InjectStaleSetPKey, map[string]bool{"outcome": true, "keymap": true}},
		{InjectStaleTranslation, map[string]bool{"outcome": true}},
		{InjectStalePageIndex, map[string]bool{"outcome": true, "keymap": true}},
		{InjectStaleSlot, map[string]bool{"outcome": true, "keymap": true}},
		{InjectSkipRecoveryRestore, map[string]bool{"pkru": true, "outcome": true}},
	}
	for _, c := range cases {
		res := Run(DirectedTrace(), Options{Inject: c.fault})
		if len(res.Divergences) == 0 {
			t.Errorf("%v: not detected", c.fault)
			continue
		}
		for _, d := range res.Divergences {
			if !c.wantWhat[d.What] {
				t.Errorf("%v: unexpected divergence class %q: %v", c.fault, d.What, d)
			}
		}
	}
}

func TestParseFault(t *testing.T) {
	for _, f := range Faults() {
		got, ok := ParseFault(f.String())
		if !ok || got != f {
			t.Errorf("ParseFault(%q) = %v, %v", f.String(), got, ok)
		}
	}
	if _, ok := ParseFault("bogus"); ok {
		t.Error("ParseFault accepted bogus name")
	}
}
