// Package bench is the evaluation harness: it drives the workload suites
// through the three build configurations of §5.3 (base, alloc, mpk),
// measures normalized runtimes, transition counts and %MU, and renders
// the paper's tables and figures.
package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/workload"
)

// Measurement is one timed run of one benchmark under one configuration.
type Measurement struct {
	Seconds        float64
	Transitions    uint64
	UntrustedShare float64
}

// BenchResult is one benchmark measured under all three configurations.
type BenchResult struct {
	Bench workload.Benchmark
	Base  Measurement
	Alloc Measurement
	MPK   Measurement
	// Telemetry holds the "telemetry.*" rows of a separate instrumented
	// mpk run (the timed runs above stay uninstrumented).
	Telemetry []Row
}

// AllocOverhead returns the alloc configuration's overhead vs base
// (0.05 = +5%).
func (r BenchResult) AllocOverhead() float64 {
	if r.Base.Seconds == 0 {
		return 0
	}
	return r.Alloc.Seconds/r.Base.Seconds - 1
}

// MPKOverhead returns the mpk configuration's overhead vs base.
func (r BenchResult) MPKOverhead() float64 {
	if r.Base.Seconds == 0 {
		return 0
	}
	return r.MPK.Seconds/r.Base.Seconds - 1
}

// Options tunes the harness.
type Options struct {
	// Scale multiplies each benchmark's bench(n) argument (default 1).
	Scale float64
	// Repeats per configuration; the minimum is kept (default 3).
	Repeats int
	// StepLimit for engine scripts (default: engine default).
	StepLimit uint64
}

func (o *Options) fill() {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
}

// CollectBenchProfile runs the benchmark once, lightly, under a Profiling
// build and returns the profile its enforced runs need — stage 3 of the
// pipeline, standing in for the paper's profiling corpus.
func CollectBenchProfile(b workload.Benchmark, opt Options) (*profile.Profile, error) {
	opt.fill()
	return browser.CollectProfile(func(br *browser.Browser) error {
		return runOnce(br, b, math.Max(1, b.N*opt.Scale/4))
	}, browser.Options{StepLimit: opt.StepLimit})
}

// runOnce loads the benchmark page, installs the setup script and invokes
// bench(n) a single time (Parse-kind: evaluates the blob once).
func runOnce(br *browser.Browser, b workload.Benchmark, n float64) error {
	if err := br.LoadHTML(pageFor(b)); err != nil {
		return err
	}
	if b.Kind == workload.Parse {
		if _, err := br.ExecScript(b.Blob); err != nil {
			return err
		}
		return br.Housekeeping()
	}
	if _, err := br.ExecScript(b.Setup); err != nil {
		return err
	}
	id, err := br.LookupScriptFunc("bench")
	if err != nil {
		return err
	}
	if _, err = br.InvokeScriptFunc(id, n); err != nil {
		return err
	}
	return br.Housekeeping()
}

// pageFor returns the page a benchmark runs against: its own, or the
// standing harness page for compute kernels.
func pageFor(b workload.Benchmark) string {
	if b.HTML != "" {
		return b.HTML
	}
	return workload.HarnessPage
}

// measure builds the browser in cfg and times Iters invocations of the
// benchmark, Repeats times, keeping the fastest.
func measure(b workload.Benchmark, cfg core.BuildConfig, prof *profile.Profile, opt Options) (Measurement, error) {
	var best Measurement
	best.Seconds = math.Inf(1)
	for rep := 0; rep < opt.Repeats; rep++ {
		var consumed *profile.Profile
		if cfg == core.Alloc || cfg == core.MPK {
			consumed = prof
		}
		br, err := browser.New(cfg, consumed, browser.Options{StepLimit: opt.StepLimit})
		if err != nil {
			return Measurement{}, err
		}
		if err := br.LoadHTML(pageFor(b)); err != nil {
			return Measurement{}, err
		}
		n := b.N * opt.Scale
		var elapsed time.Duration
		if b.Kind == workload.Parse {
			start := time.Now()
			for i := 0; i < b.Iters; i++ {
				if _, err := br.ExecScript(b.Blob); err != nil {
					return Measurement{}, fmt.Errorf("bench %s (%v): %w", b.Name, cfg, err)
				}
				if err := br.Housekeeping(); err != nil {
					return Measurement{}, err
				}
			}
			elapsed = time.Since(start)
		} else {
			if _, err := br.ExecScript(b.Setup); err != nil {
				return Measurement{}, fmt.Errorf("bench %s setup (%v): %w", b.Name, cfg, err)
			}
			id, err := br.LookupScriptFunc("bench")
			if err != nil {
				return Measurement{}, err
			}
			// One warm-up invocation outside the timed region.
			if _, err := br.InvokeScriptFunc(id, math.Max(1, n/4)); err != nil {
				return Measurement{}, fmt.Errorf("bench %s warmup (%v): %w", b.Name, cfg, err)
			}
			start := time.Now()
			for i := 0; i < b.Iters; i++ {
				if _, err := br.InvokeScriptFunc(id, n); err != nil {
					return Measurement{}, fmt.Errorf("bench %s (%v): %w", b.Name, cfg, err)
				}
				if err := br.Housekeeping(); err != nil {
					return Measurement{}, err
				}
			}
			elapsed = time.Since(start)
		}
		st := br.Stats()
		m := Measurement{
			Seconds:        elapsed.Seconds(),
			Transitions:    st.Transitions,
			UntrustedShare: st.UntrustedShare,
		}
		if m.Seconds < best.Seconds {
			best = m
		}
	}
	return best, nil
}

// RunBenchmark measures one benchmark under base, alloc and mpk.
func RunBenchmark(b workload.Benchmark, opt Options) (BenchResult, error) {
	opt.fill()
	prof, err := CollectBenchProfile(b, opt)
	if err != nil {
		return BenchResult{}, fmt.Errorf("profiling %s: %w", b.Name, err)
	}
	res := BenchResult{Bench: b}
	if res.Base, err = measure(b, core.Base, nil, opt); err != nil {
		return res, err
	}
	if res.Alloc, err = measure(b, core.Alloc, prof, opt); err != nil {
		return res, err
	}
	if res.MPK, err = measure(b, core.MPK, prof, opt); err != nil {
		return res, err
	}
	if res.Telemetry, err = CollectTelemetry(b, prof, opt); err != nil {
		return res, fmt.Errorf("telemetry for %s: %w", b.Name, err)
	}
	return res, nil
}

// SuiteReport aggregates a suite's results.
type SuiteReport struct {
	Suite   string
	Results []BenchResult
}

// RunSuite measures every benchmark in the suite.
func RunSuite(name string, benches []workload.Benchmark, opt Options) (SuiteReport, error) {
	opt.fill()
	rep := SuiteReport{Suite: name}
	for _, b := range benches {
		r, err := RunBenchmark(b, opt)
		if err != nil {
			return rep, err
		}
		rep.Results = append(rep.Results, r)
	}
	return rep, nil
}

// MeanAllocOverhead returns the arithmetic-mean alloc overhead.
func (r SuiteReport) MeanAllocOverhead() float64 {
	return mean(r.Results, BenchResult.AllocOverhead)
}

// MeanMPKOverhead returns the arithmetic-mean mpk overhead.
func (r SuiteReport) MeanMPKOverhead() float64 {
	return mean(r.Results, BenchResult.MPKOverhead)
}

// TotalTransitions sums mpk-configuration transitions across the suite.
func (r SuiteReport) TotalTransitions() uint64 {
	var t uint64
	for _, res := range r.Results {
		t += res.MPK.Transitions
	}
	return t
}

// MeanUntrustedShare averages the %MU column across the suite.
func (r SuiteReport) MeanUntrustedShare() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	var s float64
	for _, res := range r.Results {
		s += res.MPK.UntrustedShare
	}
	return s / float64(len(r.Results))
}

// Subs splits the results by Dromaeo sub-suite into one report per
// sub-suite, named after it, in the paper's row order where possible.
func (r SuiteReport) Subs() []SuiteReport {
	bySub := make(map[string][]BenchResult)
	var names []string
	for _, res := range r.Results {
		if _, ok := bySub[res.Bench.Sub]; !ok {
			names = append(names, res.Bench.Sub)
		}
		bySub[res.Bench.Sub] = append(bySub[res.Bench.Sub], res)
	}
	order := map[string]int{"dom": 0, "v8": 1, "dromaeo": 2, "sunspider": 3, "jslib": 4}
	sort.Slice(names, func(i, j int) bool {
		oi, iok := order[names[i]]
		oj, jok := order[names[j]]
		if iok && jok {
			return oi < oj
		}
		return names[i] < names[j]
	})
	out := make([]SuiteReport, len(names))
	for i, name := range names {
		out[i] = SuiteReport{Suite: name, Results: bySub[name]}
	}
	return out
}

// GeomeanScore computes a JetStream2-style overall score for one
// configuration: per-benchmark score work/seconds, combined by geometric
// mean (the suite's documented scoring rule).
func (r SuiteReport) GeomeanScore(pick func(BenchResult) float64) float64 {
	if len(r.Results) == 0 {
		return 0
	}
	logSum := 0.0
	for _, res := range r.Results {
		secs := pick(res)
		if secs <= 0 {
			secs = 1e-9
		}
		score := float64(res.Bench.Iters) / secs
		logSum += math.Log(score)
	}
	return math.Exp(logSum / float64(len(r.Results)))
}

func mean(rs []BenchResult, f func(BenchResult) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	var s float64
	for _, r := range rs {
		s += f(r)
	}
	return s / float64(len(rs))
}
