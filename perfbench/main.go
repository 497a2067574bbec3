// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three seeded closed-loop workloads with a single client goroutine:
//
//	dom      Dromaeo dom-* and jslib-* in the MPK build (gates, split heap)
//	compute  engine kernels in the MPK build (checked vm accesses)
//	tenants  the pkru-servo -domains request path (vkey, supervise, tracing)
//
// With --trace 0 it reports the end-to-end metrics: set-up time, ops per
// second, p50 and p99 latency and the live heap. With --trace 1 it
// reports per-layer metrics instead: self times from spans the benchmark
// records around its calls into each layer, exact per-op counts, the
// build-configuration ladder and the gate cost ladder. The last line of
// standard output is one JSON object; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) add(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	out      string
}

// Fixed sizes of a run. They are part of the benchmark's definition: a
// change that claims a gain must not alter them.
const (
	browserSetups = 25      // world builds timed for setup_s (median)
	tenantSetups  = 31      // tenants world builds timed for setup_s (median)
	timeSlices    = 10      // slices of the timed phase; medians are reported
	browserWarm   = 128     // warm-up kind permutations before the footprint
	tenantWarm    = 1 << 16 // warm-up requests before the footprint
	seqBlocks     = 512     // seeded kind permutations per browser sequence
	tenantProbe   = 8192    // requests whose vkey counts must repeat exactly
	configBlocks  = 8       // kind permutations per batch of the configuration ladder
	configRepeats = 7       // batches per configuration, interleaved
	maxLoggedErrs = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// One P: the client and the Go GC share one core. With two Ps the GC's
	// mark workers run on the second vCPU, and on a shared 2-vCPU host
	// whatever else runs there stretches every mark phase: dom p99 read
	// 2.5 to 10 ms over 4-second windows at GOMAXPROCS=2 against 1.2 to
	// 1.3 ms at GOMAXPROCS=1, with higher throughput at 1.
	runtime.GOMAXPROCS(1)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var secs, trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: dom, compute or tenants")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same operations")
	fs.IntVar(&secs, "seconds", 10, "seconds the timed phase runs")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.seconds = time.Duration(secs) * time.Second
	o.traced = trace == 1

	var res result
	var err error
	switch o.workload {
	case "dom":
		res, err = runBrowser(o, domKinds)
	case "compute":
		res, err = runBrowser(o, computeKinds)
	case "tenants":
		res, err = runTenants(o)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want dom, compute or tenants)\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printSummary(stderr, o, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printSummary writes the metrics one per line, for people.
func printSummary(w io.Writer, o options, res result) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v: correct=%v attempted=%d failed=%d\n",
		o.workload, o.seed, o.traced, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// world is one built workload world driven by the closed loop.
type world interface {
	op(i int, rec *recorder) error
}

// tally counts checked operations; the first few failures are logged.
type tally struct {
	attempted, failed int
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= maxLoggedErrs {
			fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
		}
	}
}

// loop is the closed-loop client: it issues ops next, next+1, ... back to
// back until d has elapsed, recording each op's latency into lat when lat
// is non-nil and its spans into rec when rec is non-nil. It returns the
// next op index, the ops completed and the time taken.
func loop(w world, next int, d time.Duration, rec *recorder, lat *[]int64, t *tally) (int, int, time.Duration) {
	start := time.Now()
	ops := 0
	for {
		t0 := time.Now()
		s := rec.begin(spOp)
		err := w.op(next, rec)
		rec.end(s)
		rec.finishOp()
		t1 := time.Now()
		t.record(err)
		if lat != nil {
			*lat = append(*lat, int64(t1.Sub(t0)))
		}
		next++
		ops++
		if el := t1.Sub(start); el >= d {
			return next, ops, el
		}
	}
}

// warm runs n ops from next, then reports the live Go heap after a
// forced GC with the world still reachable. The count is fixed so the
// footprint is taken at the same point of the op sequence on every run:
// the engine never frees script objects, so the heap grows with every op
// and a heap read at the end of a timed phase would measure how many ops
// the host managed, not the footprint.
func warm(w world, next, n int, t *tally) (int, float64) {
	for i := 0; i < n; i++ {
		t.record(w.op(next, nil))
		next++
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)
	return next, float64(ms.HeapAlloc) / 1e6
}

// timed runs the end-to-end phase: the closed loop for o.seconds, cut
// into timeSlices equal slices. Ops per second and the latency
// percentiles are taken per slice and the median slice is reported, so a
// burst of interference from other tenants of the host that covers less
// than half the slices does not move them.
func timed(o options, w world, next int, t *tally, m metrics, capHint int) {
	runtime.GC()
	lat := make([]int64, 0, capHint)
	var rate, p50, p99 []float64
	for s := 0; s < timeSlices; s++ {
		lat = lat[:0]
		var ops int
		var el time.Duration
		next, ops, el = loop(w, next, o.seconds/timeSlices, nil, &lat, t)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		rate = append(rate, float64(ops)/el.Seconds())
		p50 = append(p50, float64(percentile(lat, 50))/1e3)
		p99 = append(p99, float64(percentile(lat, 99))/1e3)
	}
	m.add("ops_per_s", "1/s", medianF(rate))
	m.add("p50_us", "us", medianF(p50))
	m.add("p99_us", "us", medianF(p99))
}

// tracedPhase runs the traced run's closed loop: an untraced half (ops
// per second and Go runtime cost per op), then a traced half recording
// spans, and reports the tracing overhead between the two.
func tracedPhase(o options, w world, next int, t *tally, m metrics) *recorder {
	half := o.seconds / 2
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	next, ops, el := loop(w, next, half, nil, nil, t)
	runtime.ReadMemStats(&m1)
	untraced := float64(ops) / el.Seconds()
	m.add("runtime.alloc_bytes_per_op", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ops))
	m.add("runtime.gc_per_kop", "count", float64(m1.NumGC-m0.NumGC)*1000/float64(ops))

	runtime.GC()
	rec := newRecorder()
	_, ops, el = loop(w, next, half, rec, nil, t)
	traced := float64(ops) / el.Seconds()
	m.add("trace.ops_per_s_untraced", "1/s", untraced)
	m.add("trace.ops_per_s_traced", "1/s", traced)
	m.add("trace.overhead", "ratio", ratio(untraced, traced)-1)
	return rec
}

// medianSetup builds the world n times, each from a collected heap, and
// returns the last world and the median build time.
func medianSetup[W any](n int, build func() (W, error)) (W, time.Duration, error) {
	var w W
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		b, err := build()
		if err != nil {
			return w, 0, err
		}
		times = append(times, time.Since(start))
		w = b
	}
	return w, medianDur(times), nil
}

func runBrowser(o options, kinds []kindSpec) (result, error) {
	seq := kindSequence(o.seed, len(kinds), len(kinds)*seqBlocks)
	expect, err := oracle(kinds)
	if err != nil {
		return result{}, fmt.Errorf("base-build oracle: %w", err)
	}
	var profTimes, buildTimes []time.Duration
	w, setup, err := medianSetup(browserSetups, func() (*browserWorld, error) {
		w, err := buildBrowserWorld(core.MPK, kinds, seq, nil)
		if err == nil {
			profTimes = append(profTimes, w.profileTime)
			buildTimes = append(buildTimes, w.buildTime)
		}
		return w, err
	})
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	m := metrics{}
	t := &tally{}
	correct := true
	if err := w.check(expect); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check:", err)
		correct = false
	}

	// A fixed prefix of the seeded sequence gives the exact per-op counts.
	c0, a0 := w.total, w.allocTotal
	probe := len(kinds) * reloadEvery
	for i := 0; i < probe; i++ {
		t.record(w.op(i, nil))
	}
	c, a := w.total.sub(c0), w.allocTotal.sub(a0)
	next, mem := warm(w, probe, len(kinds)*browserWarm, t)

	if !o.traced {
		m.add("setup_s", "s", setup.Seconds())
		m.add("mem_mb", "MB", mem)
		timed(o, w, next, t, m, 1<<14)
		return finish(m, t, correct), nil
	}

	m.add("profile.collect_ms", "ms", float64(medianDur(profTimes))/1e6)
	m.add("browser.build_ms", "ms", float64(medianDur(buildTimes))/1e6)
	m.add("domains.add_us_per_tenant", "us", 0)
	perOp := func(v uint64) float64 { return float64(v) / float64(probe) }
	m.add("ffi.transitions_per_op", "count", perOp(c.transitions))
	m.add("vm.accesses_per_op", "count", perOp(c.accesses))
	m.add("vm.pku_faults_per_op", "count", perOp(c.pkuFaults))
	m.add("pkalloc.mu_share", "ratio", ratio(float64(a.muBytes), float64(a.bytes)))
	m.add("pkalloc.mu_allocs_per_op", "count", perOp(a.mu))
	m.add("pkalloc.mt_allocs_per_op", "count", perOp(a.mt))
	m.add("pkalloc.reuse_ratio", "ratio", ratio(float64(a.reuse), float64(a.reuse+a.fresh)))
	idleTenantMetrics(m)

	rec := tracedPhase(o, w, next, t, m)
	m.add("browser.invoke_us", "us", rec.selfMedian(spInvoke)/1e3)
	m.add("browser.housekeeping_us", "us", rec.selfMedian(spHousekeeping)/1e3)
	m.add("browser.reload_us", "us", rec.selfMedian(spReload)/1e3)

	per, n, err := configLadder(kinds, seq, w.profs, expect, len(kinds)*configBlocks, configRepeats)
	t.attempted += n
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: config ladder:", err)
		t.failed++
	}
	base, alloc, mpk := per[core.Base], per[core.Alloc], per[core.MPK]
	m.add("pkalloc.split_us_per_op", "us", alloc-base)
	m.add("core.mpk_overhead", "ratio", ratio(mpk, base)-1)
	// Per-transition gate cost is derived on dom only: a compute op makes
	// about one transition, so its mpk-alloc difference is a fraction of a
	// microsecond inside a millisecond op, below what the batches resolve.
	gatePerTransition := 0.0
	if o.workload == "dom" {
		gatePerTransition = ratio((mpk-alloc)*1e3, perOp(c.transitions))
	}
	m.add("ffi.gate_ns_per_transition", "ns", gatePerTransition)

	med, err := gateLadder(m)
	if err != nil {
		return result{}, err
	}
	gateSim := 0.0
	if gatePerTransition != 0 {
		gateSim = gatePerTransition - m["ffi.wrpkru_model_ns"].Value
	}
	m.add("ffi.gate_sim_ns_per_transition", "ns", gateSim)
	m.add("vm.est_us_per_op", "us", med["vm.access_ns"]*perOp(c.accesses)/1e3)
	if err := writeSpans(o, rec); err != nil {
		return result{}, err
	}
	return finish(m, t, correct), nil
}

func runTenants(o options) (result, error) {
	var addTimes []time.Duration
	w, setup, err := medianSetup(tenantSetups, func() (*tenantWorld, error) {
		w, err := buildTenantWorld(o.seed)
		if err == nil {
			addTimes = append(addTimes, w.addTime...)
		}
		return w, err
	})
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	m := metrics{}
	t := &tally{}
	correct := true

	// The key table's hit, miss and eviction counts over a fixed request
	// prefix must repeat exactly: on this world and on a second fresh one.
	vk, c, retained, err := w.probeCounts(tenantProbe)
	t.attempted += tenantProbe
	if err != nil {
		return result{}, fmt.Errorf("count probe: %w", err)
	}
	again, err := buildTenantWorld(o.seed)
	if err != nil {
		return result{}, err
	}
	vk2, c2, retained2, err := again.probeCounts(tenantProbe)
	if err != nil {
		return result{}, fmt.Errorf("count probe: %w", err)
	}
	if vk != vk2 || c != c2 || retained != retained2 {
		fmt.Fprintf(os.Stderr, "perfbench: exact counts differ between two worlds of seed %d: %+v %+v vs %+v %+v\n",
			o.seed, vk, c, vk2, c2)
		correct = false
	}
	next, mem := warm(w, tenantProbe, tenantWarm, t)

	if !o.traced {
		m.add("setup_s", "s", setup.Seconds())
		m.add("mem_mb", "MB", mem)
		timed(o, w, next, t, m, 1<<19)
		return finish(m, t, correct), nil
	}

	m.add("profile.collect_ms", "ms", 0)
	m.add("browser.build_ms", "ms", 0)
	m.add("domains.add_us_per_tenant", "us", float64(medianDur(addTimes))/1e3)
	perOp := func(v uint64) float64 { return float64(v) / tenantProbe }
	m.add("ffi.transitions_per_op", "count", perOp(c.transitions))
	m.add("vm.accesses_per_op", "count", perOp(c.accesses))
	m.add("vm.pku_faults_per_op", "count", perOp(c.pkuFaults))
	// The tenants path allocates from per-domain pools only, so the split
	// allocator's MU/MT pools are idle here.
	for _, n := range []string{"pkalloc.mu_share", "pkalloc.reuse_ratio"} {
		m.add(n, "ratio", 0)
	}
	m.add("pkalloc.mu_allocs_per_op", "count", 0)
	m.add("pkalloc.mt_allocs_per_op", "count", 0)
	m.add("vkey.probe_hits", "count", float64(vk.SlotHits))
	m.add("vkey.probe_misses", "count", float64(vk.SlotMisses))
	m.add("vkey.probe_evictions", "count", float64(vk.Evictions))
	m.add("vkey.slot_hit_ratio", "ratio", ratio(float64(vk.SlotHits), float64(vk.SlotHits+vk.SlotMisses)))
	m.add("vkey.evictions_per_kreq", "count", float64(vk.Evictions)*1000/tenantProbe)
	m.add("gatetrace.retained", "count", float64(retained))

	rec := tracedPhase(o, w, next, t, m)
	m.add("browser.invoke_us", "us", 0)
	m.add("browser.housekeeping_us", "us", 0)
	m.add("browser.reload_us", "us", 0)
	m.add("resilience.admit_ns", "ns", rec.selfMedian(spAdmit))
	m.add("resilience.record_ns", "ns", rec.selfMedian(spRecord))
	m.add("gatetrace.request_ns", "ns", rec.selfMedian(spTraceStart)+rec.selfMedian(spTraceFinish))
	m.add("supervise.shield_self_ns", "ns", rec.selfMedian(spShield))
	m.add("ffi.call_self_ns", "ns", rec.selfMedian(spCallHit, spCallMiss))
	m.add("vkey.hit_call_ns", "ns", rec.selfMedian(spCallHit))
	m.add("vkey.miss_call_ns", "ns", rec.selfMedian(spCallMiss))
	m.add("vm.body_ns", "ns", rec.selfMedian(spBody))
	m.add("domains.churn_us", "us", rec.selfMedian(spChurn)/1e3)

	// The build-configuration ladder needs a browser; tenants has none.
	m.add("pkalloc.split_us_per_op", "us", 0)
	m.add("ffi.gate_ns_per_transition", "ns", 0)
	m.add("ffi.gate_sim_ns_per_transition", "ns", 0)
	m.add("core.mpk_overhead", "ratio", 0)

	med, err := gateLadder(m)
	if err != nil {
		return result{}, err
	}
	m.add("vm.est_us_per_op", "us", med["vm.access_ns"]*perOp(c.accesses)/1e3)
	if err := writeSpans(o, rec); err != nil {
		return result{}, err
	}
	return finish(m, t, correct), nil
}

// idleTenantMetrics reports the tenants-only metrics as 0 on a browser
// workload, where the vkey, supervise, resilience and gatetrace request
// layers do no work.
func idleTenantMetrics(m metrics) {
	for _, n := range []string{"resilience.admit_ns", "resilience.record_ns", "gatetrace.request_ns",
		"supervise.shield_self_ns", "ffi.call_self_ns", "vkey.hit_call_ns", "vkey.miss_call_ns", "vm.body_ns"} {
		m.add(n, "ns", 0)
	}
	m.add("domains.churn_us", "us", 0)
	for _, n := range []string{"vkey.probe_hits", "vkey.probe_misses", "vkey.probe_evictions",
		"vkey.evictions_per_kreq", "gatetrace.retained"} {
		m.add(n, "count", 0)
	}
	m.add("vkey.slot_hit_ratio", "ratio", 0)
}

// gateLadder builds and times the gate cost ladder and adds its metrics.
func gateLadder(m metrics) (map[string]float64, error) {
	rungs, err := buildLadder()
	if err != nil {
		return nil, fmt.Errorf("gate ladder: %w", err)
	}
	med, err := runLadder(rungs)
	if err != nil {
		return nil, err
	}
	ladderMetrics(rungs, med, m)
	return med, nil
}

// writeSpans writes the traced run's kept spans to the output directory.
func writeSpans(o options, rec *recorder) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.tsv", o.workload, o.seed))
	if err := rec.writeTSV(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(rec.kept), path)
	return nil
}

// finish assembles the result: correct only when every check passed and
// no op failed.
func finish(m metrics, t *tally, correct bool) result {
	if t.attempted == 0 {
		t.attempted, t.failed = 1, 1
		correct = false
	}
	return result{Correct: correct && t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}
