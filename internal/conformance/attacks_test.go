package conformance

import (
	"testing"

	"repro/internal/attack"
)

// TestDrillAttacks is the CI anchor for the attack corpus: every Garmr
// scenario must pass both its red drill (defense disabled; the breach
// must land and be detected) and its green drill (defense armed; the
// attack must die with the expected fault). Each failed drill is
// reported by its verdict line, naming the class/defense pair.
func TestDrillAttacks(t *testing.T) {
	for _, r := range attack.RunAll() {
		if !r.Pass {
			t.Error(r.Verdict())
		}
	}
}

// TestDrillAttacksCoversRoster pins the drill to the full roster: a drill
// that silently ran fewer scenarios would pass while covering nothing.
func TestDrillAttacksCoversRoster(t *testing.T) {
	want := 2 * len(attack.Scenarios())
	if got := len(attack.RunAll()); got != want {
		t.Fatalf("RunAll produced %d drills, want %d (red+green per scenario)", got, want)
	}
}
