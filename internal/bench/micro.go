package bench

import (
	"fmt"
	"time"

	"repro/internal/ffi"
	"repro/internal/workload"
)

// MicroResult is one call-gate micro-benchmark outcome: the ratio of the
// gated (untrusted) to ungated (trusted) call time, the paper's "x"
// overhead factors of §5.2.
type MicroResult struct {
	Name      string
	Trusted   time.Duration // total for Iters ungated calls
	Untrusted time.Duration // total for Iters gated calls
	Factor    float64       // Untrusted / Trusted
}

// microArgs returns per-workload call arguments.
func microArgs(w *workload.MicroWorld, name string) []uint64 {
	if name == "read_one" {
		return []uint64{uint64(w.Shared)}
	}
	return nil
}

// RunMicro measures the Empty, Read-One and Callback workloads with iters
// calls each, reproducing the §5.2 table (8.55x / 7.61x / 6.17x on the
// paper's hardware; the factors here reflect the simulator's own ratio of
// gate cost to call cost — the ordering and the shrink-with-work trend
// are the reproduced result).
func RunMicro(iters int) ([]MicroResult, error) {
	w, err := workload.NewMicroWorld()
	if err != nil {
		return nil, err
	}
	th := w.Prog.Main()
	var out []MicroResult
	for _, name := range []string{"empty", "read_one", "callback"} {
		args := microArgs(w, name)
		trusted, untrusted, err := gatedPair(th, name, args, iters)
		if err != nil {
			return nil, err
		}
		factor := 0.0
		if trusted > 0 {
			factor = float64(untrusted) / float64(trusted)
		}
		out = append(out, MicroResult{Name: name, Trusted: trusted, Untrusted: untrusted, Factor: factor})
	}
	return out, nil
}

// timedPair times iters calls of each of two arms, a and b, and keeps
// each arm's fastest of seven repetitions, which suppresses scheduler and
// cache noise at the sub-microsecond call scale. After one warm-up call
// each, the arms alternate in ABBA order (ab, ba, ab, …), so neither
// always runs first into warm caches or a settled clock.
func timedPair(iters int, a, b func() error) (ta, tb time.Duration, err error) {
	const repeats = 7
	arms := [2]func() error{a, b}
	best := [2]time.Duration{1 << 62, 1 << 62}
	for _, call := range arms {
		if err := call(); err != nil {
			return 0, 0, err
		}
	}
	for rep := 0; rep < repeats; rep++ {
		for k := 0; k < 2; k++ {
			arm := k ^ rep&1
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := arms[arm](); err != nil {
					return 0, 0, err
				}
			}
			best[arm] = min(best[arm], time.Since(start))
		}
	}
	return best[0], best[1], nil
}

// gatedPair times a workload's ungated (trusted) and gated (untrusted)
// calls on th.
func gatedPair(th *ffi.Thread, name string, args []uint64, iters int) (trusted, untrusted time.Duration, err error) {
	return timedPair(iters, func() error {
		_, e := th.Call(workload.MicroTrustedLib, name, args...)
		return e
	}, func() error {
		_, e := th.Call(workload.MicroUntrustedLib, name, args...)
		return e
	})
}

// SweepPoint is one Figure 3 sample: the normalized runtime of a gated
// call doing loopCount units of work between transitions.
type SweepPoint struct {
	LoopCount  int
	Normalized float64 // gated time / ungated time
}

// RunGateSweep reproduces Figure 3: call-gate overhead as a function of
// the work done between compartment transitions. Overhead must fall
// toward 1.0 as loop count grows.
func RunGateSweep(loopCounts []int, iters int) ([]SweepPoint, error) {
	w, err := workload.NewMicroWorld()
	if err != nil {
		return nil, err
	}
	th := w.Prog.Main()
	var out []SweepPoint
	for _, lc := range loopCounts {
		trusted, gated, err := gatedPair(th, "work", []uint64{uint64(lc)}, iters)
		if err != nil {
			return nil, err
		}
		norm := 0.0
		if trusted > 0 {
			norm = float64(gated) / float64(trusted)
		}
		out = append(out, SweepPoint{LoopCount: lc, Normalized: norm})
	}
	return out, nil
}

// DefaultSweepCounts are the Figure 3 x-axis points (0..200).
func DefaultSweepCounts() []int {
	return []int{0, 5, 10, 25, 50, 75, 100, 125, 150, 175, 200}
}

// FormatMicro renders the §5.2 micro-benchmark results.
func FormatMicro(rs []MicroResult) string {
	s := "Call-gate micro-benchmarks (cf. §5.2: Empty 8.55x, Read-One 7.61x, Callback 6.17x on paper hardware)\n"
	s += fmt.Sprintf("%-12s %14s %14s %10s\n", "workload", "trusted", "untrusted", "factor")
	for _, r := range rs {
		s += fmt.Sprintf("%-12s %14v %14v %9.2fx\n", r.Name, r.Trusted, r.Untrusted, r.Factor)
	}
	return s
}

// FormatSweep renders Figure 3 as a text series with bars.
func FormatSweep(pts []SweepPoint) string {
	s := "Figure 3: call-gate overhead vs work per transition (normalized runtime)\n"
	max := 1.0
	for _, p := range pts {
		if p.Normalized > max {
			max = p.Normalized
		}
	}
	for _, p := range pts {
		bar := int(p.Normalized / max * 50)
		s += fmt.Sprintf("loops=%4d  %6.2fx  %s\n", p.LoopCount, p.Normalized, repeatRune('#', bar))
	}
	return s
}

func repeatRune(r byte, n int) string {
	if n < 0 {
		n = 0
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = r
	}
	return string(b)
}
