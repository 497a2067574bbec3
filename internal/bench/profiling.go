package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// ProfilingResult is one crossing-sampler overhead sample: the cost of a
// gated call with the sampler attributing every forward crossing versus
// the bare gated call, for one §5.2 micro-workload. Factor is
// Sampled / Unsampled — the price of continuous profiling
// (docs/profiling.md) on the hot path.
type ProfilingResult struct {
	Name      string
	Unsampled time.Duration // total for Iters bare gated calls
	Sampled   time.Duration // total for Iters sampler-observed gated calls
	Factor    float64       // Sampled / Unsampled
}

// ProfilingStats summarizes what the sampler attributed during the run —
// evidence the overhead being measured is the real attribution path, not
// a sampler that never resolved anything.
type ProfilingStats struct {
	Crossings uint64   // forward crossings sampled
	Sites     []string // distinct allocation sites attributed
}

// RunProfiling measures the crossing sampler's overhead on the fault-free
// path: the same gated micro-workloads as §5.2, called bare and through a
// world whose forward gates feed the sampler. Read-One reads the
// site-tracked SiteShared buffer so each sampled call exercises the full
// resolve-and-attribute path.
func RunProfiling(iters int) ([]ProfilingResult, ProfilingStats, error) {
	plain, err := workload.NewMicroWorld()
	if err != nil {
		return nil, ProfilingStats{}, err
	}
	sampw, err := workload.NewMicroWorld(core.Options{Crossings: true})
	if err != nil {
		return nil, ProfilingStats{}, err
	}
	cs := sampw.Prog.Crossings()
	if cs == nil {
		return nil, ProfilingStats{}, fmt.Errorf("bench: sampled world has no crossing sampler")
	}
	pth, sth := plain.Prog.Main(), sampw.Prog.Main()

	var out []ProfilingResult
	for _, name := range []string{"empty", "read_one"} {
		name := name
		pargs, sargs := profilingArgs(plain, name), profilingArgs(sampw, name)
		bare, sampled, err := timedPair(iters, func() error {
			_, e := pth.Call(workload.MicroUntrustedLib, name, pargs...)
			return e
		}, func() error {
			_, e := sth.Call(workload.MicroUntrustedLib, name, sargs...)
			return e
		})
		if err != nil {
			return nil, ProfilingStats{}, err
		}
		factor := 0.0
		if bare > 0 {
			factor = float64(sampled) / float64(bare)
		}
		out = append(out, ProfilingResult{Name: name, Unsampled: bare, Sampled: sampled, Factor: factor})
	}
	stats := ProfilingStats{Crossings: cs.Sampled()}
	for _, id := range cs.Sites() {
		stats.Sites = append(stats.Sites, id.String())
	}
	return out, stats, nil
}

// profilingArgs builds the argument vector for a profiling micro-workload:
// Read-One gets the site-tracked buffer so attribution resolves.
func profilingArgs(w *workload.MicroWorld, name string) []uint64 {
	if name == "read_one" {
		return []uint64{uint64(w.SiteShared)}
	}
	return nil
}

// FormatProfiling renders the sampler-overhead results.
func FormatProfiling(rs []ProfilingResult, stats ProfilingStats) string {
	s := "Profiling overhead: crossing-sampled vs bare gate crossing\n"
	s += fmt.Sprintf("%-12s %14s %14s %10s\n", "workload", "bare", "sampled", "factor")
	for _, r := range rs {
		s += fmt.Sprintf("%-12s %14v %14v %9.2fx\n", r.Name, r.Unsampled, r.Sampled, r.Factor)
	}
	s += fmt.Sprintf("sampler: %d crossing(s) attributed to %d site(s)", stats.Crossings, len(stats.Sites))
	for _, site := range stats.Sites {
		s += " " + site
	}
	return s + "\n"
}

// ProfilingRecord is the profiling experiment's BENCH record: each
// workload's bare and sampled loop times and their factor, and the
// sampler's crossing count; the attributed sites are config.
func ProfilingRecord(iters int, rs []ProfilingResult, stats ProfilingStats) *Record {
	rec := NewRecord("profiling", map[string]string{
		"iters": strconv.Itoa(iters),
		"sites": strings.Join(stats.Sites, ","),
	})
	for _, r := range rs {
		rec.Add(r.Name, "unsampled_s", "s", iters, r.Unsampled.Seconds())
		rec.Add(r.Name, "sampled_s", "s", iters, r.Sampled.Seconds())
		rec.Add(r.Name, "factor", "ratio", iters, r.Factor)
	}
	rec.Add("profiling", "crossings", "count", 1, float64(stats.Crossings))
	return rec
}
