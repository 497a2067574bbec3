package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/workload"
)

// kindSpec is one operation kind of a browser workload: a Dromaeo
// benchmark and the bench(n) argument every op of that kind passes.
type kindSpec struct {
	name string
	n    float64
}

// domKinds are the Dromaeo dom-* and jslib-* benchmarks. Their n are
// sized so that every kind costs within about 1.2x of the others (0.55 to
// 0.65 ms per op on a shared 2-vCPU x86-64 host): at the suite defaults
// the kinds span 0.25 to 2.3 ms, and the latency percentiles then fall
// between the modes of the mix and jump from run to run.
var domKinds = []kindSpec{
	{"dom-attr", 61}, {"dom-modify", 87}, {"dom-query", 38}, {"dom-traverse", 22},
	{"dom-html", 72}, {"jslib-style", 10}, {"jslib-text", 15}, {"jslib-build", 20},
}

// computeKinds are engine kernels with checked heap accesses, sized so
// every kind costs about the same per op (0.9 to 1.3 ms on the same
// host). js-string is left out: it makes no vm accesses, so it would
// measure the interpreter alone. js-array and v8-deltablue are left out
// because one iteration of either costs 1.6 to 2.5 ms: the longer an op,
// the larger the share of ops a scheduling stall on a shared host lands
// in, and at 2 ms per op the stalls sat right at p99. UniPoker runs the
// js-array hash-map kernel at half its capacity.
var computeKinds = []kindSpec{
	{"v8-richards", 2}, {"ss-bitops", 2}, {"js-objects", 1}, {"UniPoker", 1}, {"v8-crypto", 1},
}

// reloadEvery is how many ops a tab runs before it is reloaded: a fresh
// browser from the same profile, the page and script loaded again. The
// engine never frees script objects (dom-query and js-objects leave 6 and
// 43 KB per op in the heap), so without reloads the heap grows for the
// whole run, the GC slows down as it grows and every latency depends on
// how long the run has lasted. Reloading bounds the heap and makes the
// run stationary; the reload is part of the op that triggers it.
const reloadEvery = 32

// counts are the exact per-op event counts of one operation.
type counts struct {
	transitions uint64 // gate transitions
	accesses    uint64 // checked vm loads + stores
	pkuFaults   uint64 // PKU faults delivered
}

func (c counts) add(o counts) counts {
	return counts{c.transitions + o.transitions, c.accesses + o.accesses, c.pkuFaults + o.pkuFaults}
}

func (c counts) sub(o counts) counts {
	return counts{c.transitions - o.transitions, c.accesses - o.accesses, c.pkuFaults - o.pkuFaults}
}

// allocCounts are cumulative split-allocator counters; deltas over a
// fixed op sequence give the per-op pkalloc metrics.
type allocCounts struct {
	mu, mt, reuse, fresh, muBytes, bytes uint64
}

func (a allocCounts) add(b allocCounts) allocCounts {
	return allocCounts{a.mu + b.mu, a.mt + b.mt, a.reuse + b.reuse, a.fresh + b.fresh,
		a.muBytes + b.muBytes, a.bytes + b.bytes}
}

func (a allocCounts) sub(b allocCounts) allocCounts {
	return allocCounts{a.mu - b.mu, a.mt - b.mt, a.reuse - b.reuse, a.fresh - b.fresh,
		a.muBytes - b.muBytes, a.bytes - b.bytes}
}

// expectation is what one kind's op must return and count: on the first
// call after a (re)load, which includes the load, and on every later call.
type expectation struct {
	firstValue, value float64
	first, steady     counts
}

// tab is one browser instance running one kind.
type tab struct {
	br    *browser.Browser
	fn    uint64 // handle of the kind's bench function
	n     float64
	calls int // ops run since the page was loaded
}

func (t *tab) counts() counts {
	st := t.br.Prog.Main().VM.Stats()
	return counts{t.br.Prog.Transitions(), st.Loads + st.Stores, st.PKUFaults}
}

func (t *tab) allocCounts() allocCounts {
	st := t.br.Prog.Allocator().Stats()
	return allocCounts{
		mu: st.Untrusted.Allocs, mt: st.Trusted.Allocs,
		reuse:   st.Untrusted.ReuseHits + st.Trusted.ReuseHits,
		fresh:   st.Untrusted.FreshAllocs + st.Trusted.FreshAllocs,
		muBytes: st.Untrusted.BytesTotal,
		bytes:   st.Untrusted.BytesTotal + st.Trusted.BytesTotal,
	}
}

// browserWorld is a dom or compute world: one browser per kind, all in
// one build configuration, driven by a seeded kind sequence.
type browserWorld struct {
	cfg    core.BuildConfig
	kinds  []kindSpec
	benchs []workload.Benchmark
	profs  []*profile.Profile
	tabs   []*tab
	seq    []int
	expect []expectation // filled by check

	// Running totals over every op, reloads included.
	total      counts
	allocTotal allocCounts

	// Set-up breakdown of the build that made this world.
	profileTime, buildTime time.Duration
}

// lookupBenchmarks resolves kind names against the Dromaeo suite, then
// JetStream2 for names Dromaeo lacks.
func lookupBenchmarks(kinds []kindSpec) ([]workload.Benchmark, error) {
	all := map[string]workload.Benchmark{}
	for _, b := range append(workload.Dromaeo(), workload.JetStream2()...) {
		if _, dup := all[b.Name]; !dup {
			all[b.Name] = b
		}
	}
	out := make([]workload.Benchmark, len(kinds))
	for i, k := range kinds {
		b, ok := all[k.name]
		if !ok {
			return nil, fmt.Errorf("no benchmark %q in Dromaeo or JetStream2", k.name)
		}
		out[i] = b
	}
	return out, nil
}

// buildBrowserWorld builds the world in cfg. With profs nil it first
// collects one profile per kind under a Profiling build, the way the
// evaluation harness does (a light run at n/4); the time spent there and
// in building the browsers is recorded separately.
func buildBrowserWorld(cfg core.BuildConfig, kinds []kindSpec, seq []int, profs []*profile.Profile) (*browserWorld, error) {
	benchs, err := lookupBenchmarks(kinds)
	if err != nil {
		return nil, err
	}
	w := &browserWorld{cfg: cfg, kinds: kinds, benchs: benchs, seq: seq}
	if profs == nil && cfg != core.Base {
		start := time.Now()
		for i, b := range benchs {
			n := math.Max(1, kinds[i].n/4)
			p, err := browser.CollectProfile(func(br *browser.Browser) error {
				t, err := loadTab(br, b, n)
				if err != nil {
					return err
				}
				_, err = t.invoke(nil)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("profiling %s: %w", b.Name, err)
			}
			profs = append(profs, p)
		}
		w.profileTime = time.Since(start)
	}
	w.profs = profs
	start := time.Now()
	w.tabs = make([]*tab, len(benchs))
	for k := range benchs {
		if w.tabs[k], err = w.newTab(k); err != nil {
			return nil, err
		}
	}
	w.buildTime = time.Since(start)
	return w, nil
}

// newTab builds a browser for kind k and loads its page and script.
func (w *browserWorld) newTab(k int) (*tab, error) {
	var prof *profile.Profile
	if w.cfg != core.Base {
		prof = w.profs[k]
	}
	br, err := browser.New(w.cfg, prof)
	if err != nil {
		return nil, err
	}
	t, err := loadTab(br, w.benchs[k], w.kinds[k].n)
	if err != nil {
		return nil, fmt.Errorf("%s (%v): %w", w.kinds[k].name, w.cfg, err)
	}
	return t, nil
}

// loadTab loads the benchmark's page and script into br and resolves
// bench.
func loadTab(br *browser.Browser, b workload.Benchmark, n float64) (*tab, error) {
	page := b.HTML
	if page == "" {
		page = workload.HarnessPage
	}
	if err := br.LoadHTML(page); err != nil {
		return nil, err
	}
	if _, err := br.ExecScript(b.Setup); err != nil {
		return nil, err
	}
	fn, err := br.LookupScriptFunc("bench")
	if err != nil {
		return nil, err
	}
	return &tab{br: br, fn: fn, n: n}, nil
}

// invoke is the tab's part of one operation: bench(n), then the
// browser's own frame work.
func (t *tab) invoke(rec *recorder) (float64, error) {
	s := rec.begin(spInvoke)
	v, err := t.br.InvokeScriptFunc(t.fn, t.n)
	rec.end(s)
	if err != nil {
		return 0, err
	}
	s = rec.begin(spHousekeeping)
	err = t.br.Housekeeping()
	rec.end(s)
	t.calls++
	return v, err
}

// run performs one op of kind k, reloading the tab first when it is due,
// and returns the value and the exact counts of the op (the reload's
// work included). first reports whether the op followed a load.
func (w *browserWorld) run(k int, rec *recorder) (v float64, c counts, first bool, err error) {
	t := w.tabs[k]
	var c0 counts
	var a0 allocCounts
	if t.calls >= reloadEvery {
		s := rec.begin(spReload)
		t, err = w.newTab(k)
		rec.end(s)
		if err != nil {
			return 0, counts{}, false, err
		}
		w.tabs[k] = t
	} else {
		c0, a0 = t.counts(), t.allocCounts()
	}
	first = t.calls == 0
	v, err = t.invoke(rec)
	c = t.counts().sub(c0)
	w.total = w.total.add(c)
	w.allocTotal = w.allocTotal.add(t.allocCounts().sub(a0))
	return v, c, first, err
}

// check learns each kind's expected counts on this world and checks its
// values against want (from a Base build): a forced reload and its first
// call, then two steady calls, whose counts must agree exactly. Every
// later op is held to them.
func (w *browserWorld) check(want []expectation) error {
	w.expect = make([]expectation, len(w.tabs))
	for k, t := range w.tabs {
		t.calls = reloadEvery
		var got [3]counts
		for r := range got {
			v, c, _, err := w.run(k, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", w.kinds[k].name, err)
			}
			if r == 0 && v != want[k].firstValue || r > 0 && v != want[k].value {
				return fmt.Errorf("%s: call %d returned %v, base build returns %v then %v",
					w.kinds[k].name, r, v, want[k].firstValue, want[k].value)
			}
			got[r] = c
		}
		if got[1] != got[2] {
			return fmt.Errorf("%s: per-op counts differ between calls: %+v vs %+v", w.kinds[k].name, got[1], got[2])
		}
		w.expect[k] = expectation{want[k].firstValue, want[k].value, got[0], got[1]}
	}
	return nil
}

// oracle returns each kind's expected bench(n) values: what a Base build
// (no split heap, no gates) returns for the same kind and n on the first
// call after loading and on later calls, which must agree.
func oracle(kinds []kindSpec) ([]expectation, error) {
	base, err := buildBrowserWorld(core.Base, kinds, nil, nil)
	if err != nil {
		return nil, err
	}
	out := make([]expectation, len(kinds))
	for k, t := range base.tabs {
		var v [3]float64
		for r := range v {
			if v[r], err = t.invoke(nil); err != nil {
				return nil, fmt.Errorf("%s: %w", kinds[k].name, err)
			}
		}
		if v[1] != v[2] {
			return nil, fmt.Errorf("%s: base build returns %v then %v", kinds[k].name, v[1], v[2])
		}
		out[k] = expectation{firstValue: v[0], value: v[1]}
	}
	return out, nil
}

// op runs operation i of the seeded sequence and checks its return value
// and its exact counts.
func (w *browserWorld) op(i int, rec *recorder) error {
	k := w.seq[i%len(w.seq)]
	v, c, first, err := w.run(k, rec)
	if err != nil {
		return fmt.Errorf("%s: %w", w.kinds[k].name, err)
	}
	want, wantC := w.expect[k].value, w.expect[k].steady
	if first {
		want, wantC = w.expect[k].firstValue, w.expect[k].first
	}
	if v != want {
		return fmt.Errorf("%s: returned %v, want %v", w.kinds[k].name, v, want)
	}
	if c != wantC {
		return fmt.Errorf("%s: counts %+v, want %+v", w.kinds[k].name, c, wantC)
	}
	return nil
}
