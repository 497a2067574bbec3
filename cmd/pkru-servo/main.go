// Command pkru-servo runs the browser simulator on an HTML page and a
// script under one of the paper's build configurations, optionally
// collecting or consuming a sharing profile:
//
//	pkru-servo -config profiling -html page.html -script app.js -profile-out app.prof
//	pkru-servo -config mpk -html page.html -script app.js -profile app.prof
//
// Without -html/-script a built-in demo page and script are used.
//
// -recover selects a compartment fault recovery policy (abort, the
// default, keeps fail-stop; retry, quarantine and heal make engine
// faults survivable) and -requests N executes the script N times as
// independent requests: a request whose script dies in the engine is
// dropped and reported, but the browser keeps serving the rest — the
// request-level isolation a real embedder wants from the supervisor.
//
// -metrics / -metrics-json export the run's telemetry in Prometheus text
// or JSON form ("-" = stdout); -listen serves the live observability
// endpoints (/metrics, /snapshot.json, /trace, /trace.json,
// /domains.json, /healthz, /debug/pprof, and — with -profile-store —
// /profile, /profile/diff, /profile/shadow) while the workload runs. If
// the script dies on an MPK violation the crash report is printed to
// stderr before exit 1.
//
// -domains N switches the binary into the multi-tenant domain workload
// (docs/domains.md) on internal/tenantworld: N logical domains — far more
// than the 13 hardware key slots — called through ffi call gates by
// worker threads while tenants churn, every request under its own trace
// context (docs/tracing.md). -inject-fault makes selected requests fault
// on the trusted heap from inside their domain ("40" = every 40th
// request, "tenant3:0.2" = 20% of tenant3's); -hostile=<tenant> runs the
// attack payload roster in one tenant behind its circuit breaker and
// prints a "resilience:" containment verdict, exiting non-zero on a
// breach (docs/recovery.md). The -domains-only flags are usage errors
// without it. -latency-out writes a per-tenant latency report,
// -trace-json the retained traces as Chrome trace_event JSON, and
// -adapt-target retunes the crossing sampler from the live gate p99.
//
// -profile-store closes the profiling loop (docs/profiling.md): the
// active generation of a generational profile store supplies the applied
// profile, the crossing sampler feeds live boundary observations back,
// and heal deltas are committed as a candidate generation. With
// -shadow-frac F > 0 the candidate is staged: the request workload is
// replayed with fraction F of requests on the candidate (shadow arm) and
// the rest on the active generation (control arm); the candidate is
// promoted only if the shadow arm's fault rate does not regress. The
// store file is rewritten at exit either way. -trace-out persists the
// trace ring — including crossing and profile-swap events — to a file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/browser"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gatetrace"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/profstore"
	"repro/internal/resilience"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/tenantworld"
	"repro/internal/trace"
	"repro/internal/workload"
)

const demoHTML = `
<body>
	<div id="app" class="demo">
		<h1 id="title">pkru-servo</h1>
		<ul id="items"><li>one</li><li>two</li></ul>
	</div>
</body>`

const demoScript = `
	var app = byId("app");
	var title = byId("title");
	print("title text: " + getText(title));
	for (var i = 0; i < 5; i++) {
		var li = createElement("li");
		appendChild(byId("items"), li);
		setText(li, "generated " + i);
	}
	reflow();
	print("items: " + childCount(byId("items")));
	childCount(byId("items"));
`

// traceCap sizes the runtime event ring backing /trace and crash reports.
const traceCap = 256

// retainedCap sizes the gatetrace retained-trace ring: enough flagged
// requests for a useful /trace.json timeline without unbounded memory.
const retainedCap = 256

// domainsOnly names the flags only the -domains workload reads.
var domainsOnly = map[string]bool{
	"hostile": true, "inject-fault": true, "churn": true, "breaker-probe-after": true,
	"domain-workers": true, "domain-cycles": true, "sample-interval": true,
}

func main() {
	cfgName := flag.String("config", "mpk", "base|alloc|mpk|profiling")
	htmlPath := flag.String("html", "", "HTML file to load (default: built-in demo)")
	scriptPath := flag.String("script", "", "script file to run (default: built-in demo)")
	profileIn := flag.String("profile", "", "profile JSON consumed by alloc/mpk builds")
	profileOut := flag.String("profile-out", "", "profile JSON written by a profiling build")
	metrics := flag.String("metrics", "", `write Prometheus metrics to this path ("-" = stdout)`)
	metricsJSON := flag.String("metrics-json", "", `write a JSON metrics snapshot to this path ("-" = stdout)`)
	listen := flag.String("listen", "", "serve /metrics, /snapshot.json, /trace, /trace.json, /domains.json, /healthz and /debug/pprof on this address while running")
	recoverName := flag.String("recover", "abort", "compartment fault recovery policy: abort|retry|quarantine|heal")
	requests := flag.Int("requests", 1, "execute the script this many times as independent requests")
	profileStore := flag.String("profile-store", "", "generational profile store JSON (created if missing); supplies the applied profile and absorbs heal deltas")
	shadowFrac := flag.Float64("shadow-frac", 0, "stage committed candidate generations on this fraction of replayed requests before promoting")
	traceOut := flag.String("trace-out", "", `write the trace ring to this path at exit ("-" = stdout)`)
	traceJSON := flag.String("trace-json", "", `write retained request traces as Chrome trace_event JSON to this path at exit ("-" = stdout)`)
	latencyOut := flag.String("latency-out", "", `write a schema-versioned per-tenant latency/throughput report to this path ("-" = stdout)`)
	tailThreshold := flag.Duration("trace-tail", 0, "additionally retain clean request traces at least this slow (0 = flagged traces only)")
	injectFault := flag.String("inject-fault", "", `-domains only: inject compartment faults ("40" = every 40th request; "tenant3:0.2" = 20% of tenant3's requests; "tenant3:5" = every 5th of tenant3's)`)
	adaptTarget := flag.Duration("adapt-target", 0, "retune the crossing sampler's interval from the live gate-latency p99 around this target (0 = off)")
	sampleInterval := flag.Int("sample-interval", 8, "initial crossing-sampler interval for the -domains workload")
	nDomains := flag.Int("domains", 0, "run the multi-tenant domain workload with this many logical domains instead of the browser")
	domainWorkers := flag.Int("domain-workers", 4, "concurrent worker threads for the -domains workload")
	domainCycles := flag.Int("domain-cycles", 2000, "domain entries per worker for the -domains workload")
	hostile := flag.String("hostile", "", "-domains only: this tenant runs the attack payload roster instead of honest work; prints a resilience verdict and exits non-zero on a containment breach")
	churn := flag.Bool("churn", true, "-domains only: rotate tenants out and back in while the workload runs (disable for deterministic rehearsals)")
	probeAfter := flag.Duration("breaker-probe-after", 0, "-domains only: base open→half-open breaker backoff (0 = the resilience default)")
	flag.Parse()

	// The tenant workload's knobs mean nothing to the browser path: naming
	// one without -domains is a usage error, not a silent no-op.
	if *nDomains <= 0 {
		flag.Visit(func(f *flag.Flag) {
			if domainsOnly[f.Name] {
				fmt.Fprintf(os.Stderr, "pkru-servo: -%s needs the -domains workload\n", f.Name)
				os.Exit(2)
			}
		})
	}
	faultSpec, err := workload.ParseFaultSpec(*injectFault)
	exitOn(err)
	policy, err := supervise.ParsePolicy(*recoverName)
	exitOn(err)

	if *nDomains > 0 {
		runDomains(tenantworld.Config{
			Tenants:        *nDomains,
			Policy:         policy,
			ProbeAfter:     *probeAfter,
			TailThreshold:  *tailThreshold,
			SampleInterval: *sampleInterval,
			Hostile:        *hostile,
			Fault:          faultSpec,
		}, domainRunConfig{
			workers:     *domainWorkers,
			cycles:      *domainCycles,
			churn:       *churn,
			adaptTarget: *adaptTarget,
			listen:      *listen,
			metrics:     *metrics,
			metricsJSON: *metricsJSON,
			latencyOut:  *latencyOut,
			traceJSON:   *traceJSON,
			traceOut:    *traceOut,
		})
		return
	}

	html, script := demoHTML, demoScript
	if *htmlPath != "" {
		data, err := os.ReadFile(*htmlPath)
		exitOn(err)
		html = string(data)
	}
	if *scriptPath != "" {
		data, err := os.ReadFile(*scriptPath)
		exitOn(err)
		script = string(data)
	}

	cfg, err := core.ParseBuildConfig(*cfgName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pkru-servo: unknown config %q\n", *cfgName)
		os.Exit(2)
	}

	var store *profstore.Store
	if *profileStore != "" {
		if *profileIn != "" {
			fmt.Fprintln(os.Stderr, "pkru-servo: -profile and -profile-store are mutually exclusive")
			os.Exit(2)
		}
		if cfg != core.Alloc && cfg != core.MPK {
			fmt.Fprintf(os.Stderr, "pkru-servo: -profile-store needs -config alloc or mpk (got %v)\n", cfg)
			os.Exit(2)
		}
		store, err = profstore.LoadFileOrNew(*profileStore)
		exitOn(err)
	}

	var prof *profile.Profile
	if store != nil {
		// The store's active generation is the applied profile; a fresh
		// store starts from the empty seed and heals its way forward.
		prof = store.Active().Sites
		fmt.Fprintf(os.Stderr, "pkru-servo: profile store %s: applying generation %d (%d site(s))\n",
			*profileStore, store.ActiveSeq(), prof.Len())
	} else if cfg == core.Alloc || cfg == core.MPK {
		prof = profile.New()
		if *profileIn != "" {
			data, err := os.ReadFile(*profileIn)
			exitOn(err)
			exitOn(json.Unmarshal(data, prof))
		} else if cfg == core.MPK {
			// No profile given: collect one from this very workload, the
			// way a developer would before shipping the enforced build.
			fmt.Fprintln(os.Stderr, "pkru-servo: no -profile; collecting one from this workload first")
			p, err := browser.CollectProfile(func(b *browser.Browser) error {
				if err := b.LoadHTML(html); err != nil {
					return err
				}
				_, err := b.ExecScript(script)
				return err
			}, browser.Options{ScriptOutput: os.Stderr})
			exitOn(err)
			prof = p
		}
	}

	opts := browser.Options{
		ScriptOutput: os.Stdout,
		Trace:        trace.NewRing(traceCap),
		Forensics:    true,
		Supervision:  supervise.Config{Policy: policy},
		Crossings:    store != nil,
	}
	var reg *telemetry.Registry
	if *metrics != "" || *metricsJSON != "" || *listen != "" || store != nil ||
		*latencyOut != "" || *traceJSON != "" {
		reg = telemetry.NewRegistry()
		opts.Telemetry = reg
	}
	// The request tracer rides whenever some consumer of its output is
	// configured. Browser requests all carry the same tenant label: the
	// embedder is single-tenant, but the traces still correlate gate spans
	// with supervisor recovery per request.
	var tracer *gatetrace.Tracer
	if *listen != "" || *latencyOut != "" || *traceJSON != "" {
		tracer = gatetrace.New(gatetrace.Config{
			Registry: reg, Capacity: retainedCap, TailThreshold: *tailThreshold})
		opts.Tracing = tracer
	}
	var rollout *profstore.Rollout
	if store != nil {
		store.SetTrace(opts.Trace)
		store.SetTelemetry(reg)
		rollout = profstore.NewRollout(store, *shadowFrac, reg)
	}

	b, err := browser.New(cfg, prof, opts)
	exitOn(err)

	stopCtl := startController(*adaptTarget, b.Prog.Crossings(), reg)

	var srv *obs.Server
	if *listen != "" {
		srv, err = obs.ListenAndServe(*listen, obs.ServerConfig{
			Registry: reg, Ring: opts.Trace, Profiles: store, Rollout: rollout, Traces: tracer})
		exitOn(err)
		fmt.Fprintf(os.Stderr, "pkru-servo: observability server on %s\n", srv.URL())
	}

	crashOn := func(err error) {
		if err == nil {
			return
		}
		fmt.Fprintln(os.Stderr, "pkru-servo:", err)
		if rep, ok := b.Prog.Forensics().Capture(err); ok {
			_ = rep.WriteText(os.Stderr)
		}
		closeServer(srv)
		os.Exit(1)
	}
	crashOn(b.LoadHTML(html))

	// The request loop: each script execution is one supervised request
	// under its own trace context. A request the supervisor could not save
	// is dropped — logged with its typed compartment error — without
	// taking the service down; any other error is a genuine crash.
	lr := tenantworld.NewRecorder()
	served, dropped := 0, 0
	loopStart := time.Now()
	for i := 1; i <= *requests; i++ {
		tc := tracer.Start("servo")
		b.Prog.Main().SetTraceContext(tc)
		reqStart := time.Now()
		result, err := b.ExecScript(script)
		reqLat := time.Since(reqStart)
		b.Prog.Main().SetTraceContext(nil)
		tc.Finish()
		var cerr *supervise.CompartmentError
		if errors.As(err, &cerr) {
			dropped++
			fmt.Fprintf(os.Stderr, "pkru-servo: request %d/%d dropped (%s): %v\n", i, *requests, cerr.Outcome, cerr.Err)
			continue
		}
		crashOn(err)
		served++
		lr.Record("servo", reqLat)
		fmt.Printf("script result: %g\n", result)
	}
	elapsed := time.Since(loopStart)
	stopCtl()
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "pkru-servo: crash averted: served %d/%d request(s), dropped %d under policy %s\n",
			served, *requests, dropped, policy)
	}

	if store != nil {
		runProfilePlane(b, store, rollout, cfg, *shadowFrac, *requests, html, script, policy, reg)
		exitOn(store.SaveFile(*profileStore))
		fmt.Fprintf(os.Stderr, "pkru-servo: profile store saved to %s (%d generation(s), active %d)\n",
			*profileStore, store.Len(), store.ActiveSeq())
	}

	st := b.Stats()
	fmt.Printf("config=%v transitions=%d dom-ops=%d sites=%d shared-sites=%d %%MU=%.2f%%\n",
		cfg, st.Transitions, st.DOMOps, st.TotalSites, st.UntrustedSites, 100*st.UntrustedShare)

	if reg != nil {
		if *metrics != "" {
			exitOn(cli.WriteTo(*metrics, reg.WritePrometheus))
		}
		if *metricsJSON != "" {
			exitOn(cli.WriteTo(*metricsJSON, reg.Snapshot().WriteJSON))
		}
	}
	if *latencyOut != "" {
		rec := bench.NewRecord("gatetrace", map[string]string{"mode": "browser", "policy": policy.String()})
		writeLatencyRecord(*latencyOut, rec, [4]uint64{uint64(served), uint64(dropped), 0, 0}, lr, elapsed)
	}
	if *traceJSON != "" {
		exitOn(cli.WriteTo(*traceJSON, tracer.WriteChromeTrace))
	}

	if cfg == core.Profiling && *profileOut != "" {
		p, err := b.Prog.RecordedProfile()
		exitOn(err)
		data, err := json.MarshalIndent(p, "", "  ")
		exitOn(err)
		exitOn(os.WriteFile(*profileOut, data, 0o644))
		fmt.Printf("profile with %d shared sites written to %s\n", p.Len(), *profileOut)
	}
	if *traceOut != "" {
		exitOn(cli.WriteTo(*traceOut, func(w io.Writer) error { opts.Trace.Dump(w); return nil }))
	}
	closeServer(srv)
}

// domainRunConfig carries the flags the -domains workload consumes
// beyond the world's own configuration.
type domainRunConfig struct {
	workers, cycles int
	churn           bool
	adaptTarget     time.Duration
	listen          string
	metrics         string
	metricsJSON     string
	latencyOut      string
	traceJSON       string
	traceOut        string
}

// tenantsView is the /tenants.json payload: per-tenant breaker state
// beside per-pool quarantine epochs, the two halves of the resilience
// story an operator wants on one page.
type tenantsView struct {
	Breakers []resilience.TenantState `json:"breakers"`
	Epochs   map[string]uint64        `json:"epochs"`
}

// runDomains drives the multi-tenant domain workload: worker threads
// serve requests round-robin across the tenants of an
// internal/tenantworld world, each probing its neighbour's pool, while a
// churn loop removes and re-adds tenants underneath them. The vkey
// telemetry, gate-latency histograms and /trace.json, /domains.json and
// /tenants.json are live on -listen for the duration.
func runDomains(cfg tenantworld.Config, o domainRunConfig) {
	if o.workers < 1 {
		o.workers = 1
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "pkru-servo:", err)
		os.Exit(2)
	}
	w, err := tenantworld.New(cfg)
	exitOn(err)
	stopCtl := startController(o.adaptTarget, w.Sampler, w.Registry)

	var srv *obs.Server
	if o.listen != "" {
		srv, err = obs.ListenAndServe(o.listen, obs.ServerConfig{
			Registry: w.Registry, Ring: w.Ring, Traces: w.Tracer,
			Domains: func() any { return w.Manager.Occupancy() },
			Tenants: func() any {
				return tenantsView{Breakers: w.Breakers.Snapshot(), Epochs: w.Manager.Allocator().DomainEpochs()}
			}})
		exitOn(err)
		fmt.Fprintf(os.Stderr, "pkru-servo: observability server on %s\n", srv.URL())
	}

	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < o.workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			th := w.NewThread()
			for c := 0; c < o.cycles; c++ {
				i := (k + c) % cfg.Tenants
				w.Serve(th, i, (i+1)%cfg.Tenants)
			}
		}(k)
	}

	// Churn loop: while the workers run, rotate tenants out and back in so
	// key recycling and pool scrubbing happen under live concurrent entry.
	// -churn=false skips it for deterministic rehearsals (the golden
	// resilience transcript depends on a fixed request schedule).
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
churn:
	for victim := 0; o.churn; victim++ {
		select {
		case <-done:
			break churn
		case <-time.After(50 * time.Microsecond):
		}
		_, err := w.Churn(victim % cfg.Tenants)
		exitOn(err)
	}
	<-done
	elapsed := time.Since(start)
	stopCtl()

	st := w.Manager.Table().Stats()
	ts := w.Tracer.Stats()
	leaks := w.Leaks.Value()
	if leaks > 0 {
		fmt.Fprintf(os.Stderr, "pkru-servo: ISOLATION FAILURE: %d cross-tenant probe(s) succeeded\n", leaks)
	}
	fmt.Printf("domains=%d slots=%d workers=%d requests=%d reads=%d denied-probes=%d leaks=%d dropped=%d refused=%d shed=%d churn=%d elapsed=%v\n",
		cfg.Tenants, st.Slots, o.workers, w.Entries.Value(), w.Reads.Value(), w.Denied.Value(), leaks,
		w.Dropped.Value(), w.Refused.Value(), w.Shed.Value(), w.Churned.Value(), elapsed.Round(time.Millisecond))
	fmt.Printf("vkeys: logical=%d active=%d parked=%d activations=%d slot-misses=%d evictions=%d recycled=%d invalidations=%d\n",
		st.Logical, st.Active, st.Parked, st.Activations, st.SlotMisses, st.Evictions, st.Recycled, st.Invalidations)
	fmt.Printf("traces: started=%d finished=%d retained=%d dropped=%d sampler-interval=%d\n",
		ts.Started, ts.Finished, ts.Retained, ts.Dropped, w.Sampler.Interval())

	// With a hostile tenant in play, the containment verdict: a breach
	// exits non-zero — CI runs this as a gate.
	contained := true
	if cfg.Hostile != "" {
		v := w.Verdict()
		for _, b := range v.Breached {
			fmt.Fprintf(os.Stderr, "pkru-servo: HOSTILE BREACH: payload %s reached its goal\n", b)
		}
		fmt.Printf("resilience: hostile=%s requests=%d faulted=%d shed=%d breaker=%s trips=%d\n",
			v.Hostile, v.Requests, v.Faulted, v.Shed, v.Breaker, v.Trips)
		fmt.Printf("resilience: hostile-epochs=%d healthy-pools-bumped=%d\n", v.HostileEpochs, v.HealthyBumped)
		fmt.Printf("resilience: healthy tenants=%d ok=%d dropped=%d leaks=%d breaches=%d\n",
			v.HealthyTenants, v.HealthyOK, v.HealthyDropped, v.Leaks, len(v.Breached))
		verdict := "CONTAINED"
		if !v.Contained {
			verdict = "BREACH"
		}
		fmt.Printf("resilience: verdict %s\n", verdict)
		contained = v.Contained
	}

	if o.latencyOut != "" {
		rec := bench.NewRecord("gatetrace", map[string]string{
			"mode": "domains", "policy": cfg.Policy.String(),
			"domains": strconv.Itoa(cfg.Tenants), "workers": strconv.Itoa(o.workers),
		})
		writeLatencyRecord(o.latencyOut, rec,
			[4]uint64{w.Entries.Value(), w.Dropped.Value(), w.Refused.Value(), w.Shed.Value()}, w.Latency, elapsed)
	}
	if o.traceJSON != "" {
		exitOn(cli.WriteTo(o.traceJSON, w.Tracer.WriteChromeTrace))
	}
	if o.traceOut != "" {
		exitOn(cli.WriteTo(o.traceOut, func(out io.Writer) error { w.Ring.Dump(out); return nil }))
	}
	if o.metrics != "" {
		exitOn(cli.WriteTo(o.metrics, w.Registry.WritePrometheus))
	}
	if o.metricsJSON != "" {
		exitOn(cli.WriteTo(o.metricsJSON, w.Registry.Snapshot().WriteJSON))
	}
	closeServer(srv)
	if leaks > 0 || !contained {
		os.Exit(1)
	}
}

// startController launches the adaptive sampling controller when a
// target is set and a sampler exists, returning its stop function. The
// controller steers the crossing sampler's interval around the live
// per-domain gate-latency p99.
func startController(target time.Duration, sampler *profstore.Sampler, reg *telemetry.Registry) (stop func()) {
	if target <= 0 || sampler == nil || reg == nil {
		return func() {}
	}
	ctl := &gatetrace.Controller{Sampler: sampler, Registry: reg, Target: target}
	done := make(chan struct{})
	go ctl.Run(done, 100*time.Millisecond, func(r gatetrace.Retuning) {
		fmt.Fprintf(os.Stderr, "pkru-servo: sampler retuned: interval %d -> %d (gate p99 %v over %d obs)\n",
			r.Old, r.New, r.P99, r.Count)
	})
	return func() { close(done) }
}

// latencyOutcomes names the -latency-out record's outcome rows, in the
// order writeLatencyRecord takes their counts; requests is their sum.
var latencyOutcomes = [4]string{"ok", "dropped", "refused", "shed"}

// writeLatencyRecord completes rec, the -latency-out BENCH record (see
// BENCH_gatetrace.json), with the run's request count by outcome (in
// latencyOutcomes order), its total and throughput, and each tenant's
// request count, throughput and p50/p95/p99, and writes it. The
// quantiles are exact nearest-rank reads of the recorder's samples: the
// gate-latency histograms are log2 buckets, accurate only to within 2x,
// too coarse to judge a 1.25x bar.
func writeLatencyRecord(path string, rec *bench.Record, outcomes [4]uint64, lr *tenantworld.Recorder, elapsed time.Duration) {
	secs := elapsed.Seconds()
	rate := func(n int) float64 {
		if secs <= 0 {
			return 0
		}
		return float64(n) / secs
	}
	requests := 0
	for i, n := range outcomes {
		rec.Add("gatetrace", latencyOutcomes[i], "count", 1, float64(n))
		requests += int(n)
	}
	rec.Add("gatetrace", "requests", "count", 1, float64(requests))
	rec.Add("gatetrace", "elapsed_s", "s", 1, secs)
	rec.Add("gatetrace", "throughput_rps", "1/s", requests, rate(requests))
	tenants := lr.Tenants()
	for _, t := range tenants {
		samples := lr.Sorted(func(x string) bool { return x == t })
		n := len(samples)
		rec.Add(t, "requests", "count", 1, float64(n))
		rec.Add(t, "p50_ns", "ns", n, float64(tenantworld.Quantile(samples, 0.50)))
		rec.Add(t, "p95_ns", "ns", n, float64(tenantworld.Quantile(samples, 0.95)))
		rec.Add(t, "p99_ns", "ns", n, float64(tenantworld.Quantile(samples, 0.99)))
		rec.Add(t, "throughput_rps", "1/s", n, rate(n))
	}
	exitOn(cli.WriteTo(path, rec.Write))
	fmt.Fprintf(os.Stderr, "pkru-servo: latency report (%d tenant(s)) written to %s\n", len(tenants), path)
}

// runProfilePlane closes the profiling loop after the serving phase: live
// crossing observations feed re-tighten bookkeeping, the heal delta (if
// any) is committed as a candidate generation, and — with a shadow
// fraction — the candidate is staged by replaying the request workload
// across a control browser (active generation) and a shadow browser
// (candidate), promoting only if the shadow arm's fault rate does not
// regress past control's.
func runProfilePlane(b *browser.Browser, store *profstore.Store, rollout *profstore.Rollout,
	cfg core.BuildConfig, frac float64, requests int, html, script string,
	policy supervise.Policy, reg *telemetry.Registry) {

	if cs := b.Prog.Crossings(); cs.Sampled() > 0 {
		cs.FeedStore(store)
		fmt.Fprintf(os.Stderr, "pkru-servo: crossings: %d sampled, %d allocation site(s) attributed\n",
			cs.Sampled(), len(cs.Sites()))
	}
	delta := b.Prog.Supervisor().Delta()
	if delta.Len() == 0 {
		fmt.Fprintf(os.Stderr, "pkru-servo: profile store: no heal delta; generation %d stands\n", store.ActiveSeq())
		return
	}
	cand := store.Commit(delta, "heal")
	fmt.Fprintf(os.Stderr, "pkru-servo: profile store: committed candidate generation %d (source heal, %d site(s))\n",
		cand.Seq, cand.Sites.Len())
	if frac <= 0 {
		fmt.Fprintf(os.Stderr, "pkru-servo: profile store: -shadow-frac 0; candidate %d held for offline promotion\n", cand.Seq)
		return
	}

	// Staged comparison: fresh browsers per arm so the control arm really
	// runs the pre-heal active generation (the serving browser has already
	// healed itself and would mask the regression being tested for).
	rollout.SetCandidate(cand.Seq)
	newArm := func(p *profile.Profile) *browser.Browser {
		ab, err := browser.New(cfg, p, browser.Options{
			ScriptOutput: io.Discard,
			Forensics:    true,
			Supervision:  supervise.Config{Policy: policy},
			Telemetry:    reg,
		})
		exitOn(err)
		exitOn(ab.LoadHTML(html))
		return ab
	}
	arms := map[string]*browser.Browser{
		profstore.ArmControl: newArm(store.Active().Sites),
		profstore.ArmShadow:  newArm(cand.Sites),
	}
	for i := 0; i < requests; i++ {
		arm := rollout.Assign()
		ab := arms[arm]
		before := len(ab.Prog.Supervisor().Events())
		_, err := ab.ExecScript(script)
		fault := false
		var cerr *supervise.CompartmentError
		if errors.As(err, &cerr) {
			fault = true
		} else {
			exitOn(err)
		}
		if len(ab.Prog.Supervisor().Events()) > before {
			fault = true
		}
		rollout.Record(arm, fault)
	}
	dec, err := rollout.Decide()
	exitOn(err)
	verdict := "rolled back"
	if dec.Promote {
		verdict = "promoted"
	}
	fmt.Fprintf(os.Stderr, "pkru-servo: profile rollout: candidate %d %s: %s (control %d/%d faulted, shadow %d/%d)\n",
		dec.Candidate, verdict, dec.Reason,
		dec.Control.Faults, dec.Control.Requests, dec.Shadow.Faults, dec.Shadow.Requests)
}

// closeServer drains the observability server before exit (nil-safe).
func closeServer(srv *obs.Server) {
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pkru-servo: observability server:", err)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pkru-servo:", err)
		os.Exit(1)
	}
}
