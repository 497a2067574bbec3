// Command pkrusafe is the toolchain CLI over textual IR (.pkir) programs,
// exposing the paper's four-stage pipeline (§3.1) as subcommands:
//
//	pkrusafe build   prog.pkir                 validate + instrument, print IR
//	pkrusafe profile prog.pkir -o prog.prof    profiling run, write profile
//	pkrusafe analyze prog.pkir -o prog.prof    static analysis, write profile
//	pkrusafe run     prog.pkir [-profile p]    enforced (mpk) run
//	pkrusafe exec    prog.pkir -config base    run under any configuration
//	pkrusafe stats   prog.pkir [-profile p]    run and print a telemetry table
//	pkrusafe trace   prog.pkir [-o t.json]     enforced run, write a Chrome trace timeline
//	pkrusafe domains N [-json]                 N-tenant virtual-key drill + stats
//
// The instrumented IR printed by `build` shows the AllocIds, gate marks
// and (with -profile) the alloc→ualloc rewrites the enforcement build
// applies. run/exec accept -metrics / -metrics-json to export the run's
// telemetry (gate latencies, per-site allocations, fault counts) in
// Prometheus text or JSON form; "-" writes to stdout. Metrics are written
// even when the program crashes, so a missed-profile fault still leaves
// its counters behind for debugging.
//
// -listen serves the live observability endpoints (/metrics,
// /snapshot.json, /trace, /trace.json, /healthz, /debug/pprof) while the
// program runs; run/exec/stats runs under -listen carry a request-scoped
// trace context, so /trace.json serves the run's retained gate timeline.
// The trace subcommand is the file-output form: it executes the program
// under the mpk configuration with every trace retained and writes the
// timeline as Chrome trace_event JSON (chrome://tracing, Perfetto); see
// docs/tracing.md.
// When an enforced run dies on an MPK violation, a forensic crash report
// — decoded PKRU bits, the faulting page's protection key, the owning
// allocation site and the trailing trace events — is printed to stderr,
// and -crash-json additionally writes it as schema-versioned JSON. See
// docs/observability.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/compile"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pkir"
	"repro/internal/profile"
	"repro/internal/static"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// options collects every flag target; each command's flag set registers
// only the flags that command accepts.
type options struct {
	profPath    string
	outPath     string
	entry       string
	cfgName     string
	traceN      int
	metrics     string
	metricsJSON string
	listen      string
	crashJSON   string
	jsonOut     bool
	recoverName string
	healOut     string
}

func (o *options) profileFlag(fs *flag.FlagSet) {
	fs.StringVar(&o.profPath, "profile", "", "profile JSON to apply")
}

func (o *options) entryFlag(fs *flag.FlagSet) {
	fs.StringVar(&o.entry, "entry", "main", "entry function")
}

func (o *options) outFlag(fs *flag.FlagSet) {
	fs.StringVar(&o.outPath, "o", "", "output path (default: <prog.pkir>.prof)")
}

func (o *options) configFlag(fs *flag.FlagSet) {
	fs.StringVar(&o.cfgName, "config", "mpk", "build configuration: base|alloc|mpk|profiling")
}

func (o *options) runFlags(fs *flag.FlagSet) {
	o.profileFlag(fs)
	o.entryFlag(fs)
	fs.IntVar(&o.traceN, "trace", 0, "keep the last N runtime events and dump them on crash")
	fs.StringVar(&o.metrics, "metrics", "", `write Prometheus metrics to this path ("-" = stdout)`)
	fs.StringVar(&o.metricsJSON, "metrics-json", "", `write a JSON metrics snapshot to this path ("-" = stdout)`)
	fs.StringVar(&o.listen, "listen", "", "serve /metrics, /snapshot.json, /trace, /healthz and /debug/pprof on this address while running")
	fs.StringVar(&o.crashJSON, "crash-json", "", `write a JSON crash report to this path if the run dies on a fault ("-" = stdout)`)
	fs.StringVar(&o.recoverName, "recover", "abort",
		"compartment fault recovery policy: abort|retry|quarantine|heal")
	fs.StringVar(&o.healOut, "heal-out", "",
		`write the applied profile updated with healed sites to this path ("-" = stdout)`)
}

// command is one subcommand. The usage text is generated from this table
// and each command's flag set, so help cannot drift from the flags the
// code actually accepts.
type command struct {
	name     string
	synopsis string
	arg      string // positional argument name; "" = "<prog.pkir>"
	flags    func(o *options) *flag.FlagSet
	run      func(o *options, path string)
}

var commands = []command{
	{
		name:     "build",
		synopsis: "validate and instrument the module, print the IR",
		flags: func(o *options) *flag.FlagSet {
			fs := newFlagSet("build")
			o.profileFlag(fs)
			return fs
		},
		run: cmdBuild,
	},
	{
		name:     "profile",
		synopsis: "profiling run; record shared allocation sites to a profile",
		flags: func(o *options) *flag.FlagSet {
			fs := newFlagSet("profile")
			o.outFlag(fs)
			o.entryFlag(fs)
			return fs
		},
		run: cmdProfile,
	},
	{
		name:     "analyze",
		synopsis: "static escape analysis; write an equivalent profile",
		flags: func(o *options) *flag.FlagSet {
			fs := newFlagSet("analyze")
			o.outFlag(fs)
			return fs
		},
		run: cmdAnalyze,
	},
	{
		name:     "run",
		synopsis: "enforced (mpk) run",
		flags: func(o *options) *flag.FlagSet {
			fs := newFlagSet("run")
			o.runFlags(fs)
			return fs
		},
		run: func(o *options, path string) { execute(o, path, core.MPK, false) },
	},
	{
		name:     "exec",
		synopsis: "run under any build configuration",
		flags: func(o *options) *flag.FlagSet {
			fs := newFlagSet("exec")
			o.configFlag(fs)
			o.runFlags(fs)
			return fs
		},
		run: func(o *options, path string) { execute(o, path, parseConfig(o.cfgName), false) },
	},
	{
		name:     "stats",
		synopsis: "run with telemetry and print the metrics as a table",
		flags: func(o *options) *flag.FlagSet {
			fs := newFlagSet("stats")
			o.configFlag(fs)
			o.runFlags(fs)
			fs.BoolVar(&o.jsonOut, "json", false, "print the snapshot as JSON instead of a table")
			return fs
		},
		run: func(o *options, path string) { execute(o, path, parseConfig(o.cfgName), true) },
	},
	{
		name:     "trace",
		synopsis: "enforced run under full request tracing; write the Chrome trace_event timeline",
		flags: func(o *options) *flag.FlagSet {
			fs := newFlagSet("trace")
			o.profileFlag(fs)
			o.entryFlag(fs)
			fs.StringVar(&o.outPath, "o", "", `timeline output path (default: <prog.pkir>.trace.json, "-" = stdout)`)
			fs.StringVar(&o.recoverName, "recover", "abort",
				"compartment fault recovery policy: abort|retry|quarantine|heal")
			return fs
		},
		run: cmdTrace,
	},
	{
		name:     "domains",
		synopsis: "drive <n> logical domains through the virtual-key drill, print multiplexing stats",
		arg:      "<n>",
		flags: func(o *options) *flag.FlagSet {
			fs := newFlagSet("domains")
			fs.BoolVar(&o.jsonOut, "json", false, "print the report as JSON instead of text")
			return fs
		},
		run: cmdDomains,
	},
}

func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ExitOnError)
}

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	name, path := os.Args[1], os.Args[2]
	for i := range commands {
		c := &commands[i]
		if c.name != name {
			continue
		}
		o := &options{}
		fs := c.flags(o)
		exitOn(fs.Parse(os.Args[3:]))
		c.run(o, path)
		return
	}
	usage()
}

// usage renders the command table and each command's flag set.
func usage() {
	w := os.Stderr
	fmt.Fprintln(w, "usage: pkrusafe <command> <prog.pkir> [flags]")
	for i := range commands {
		c := &commands[i]
		arg := c.arg
		if arg == "" {
			arg = "<prog.pkir>"
		}
		fmt.Fprintf(w, "\n  pkrusafe %s %s\n        %s\n", c.name, arg, c.synopsis)
		fs := c.flags(&options{})
		fs.SetOutput(w)
		fs.PrintDefaults()
	}
	os.Exit(2)
}

func parseConfig(name string) core.BuildConfig {
	switch name {
	case "base":
		return core.Base
	case "alloc":
		return core.Alloc
	case "mpk":
		return core.MPK
	case "profiling":
		return core.Profiling
	}
	exitOn(fmt.Errorf("unknown config %q (want base|alloc|mpk|profiling)", name))
	panic("unreachable")
}

func loadModule(path string) *ir.Module {
	src, err := os.ReadFile(path)
	exitOn(err)
	mod, err := pkir.Parse(string(src))
	exitOn(err)
	return mod
}

func loadProfile(o *options) *profile.Profile {
	prof := profile.New()
	if o.profPath != "" {
		data, err := os.ReadFile(o.profPath)
		exitOn(err)
		exitOn(json.Unmarshal(data, prof))
	}
	return prof
}

func cmdBuild(o *options, path string) {
	mod := loadModule(path)
	var applied *profile.Profile
	if o.profPath != "" {
		applied = loadProfile(o)
	}
	st, err := compile.Pipeline(mod, applied)
	exitOn(err)
	fmt.Fprintf(os.Stderr, "pkrusafe: %d allocation sites, %d gates, %d address-taken, %d sites moved to MU\n",
		st.AllocSites, st.Gates, st.AddressTaken, st.RewrittenMU)
	fmt.Print(pkir.Format(mod))
}

func cmdProfile(o *options, path string) {
	mod := loadModule(path)
	_, err := compile.Pipeline(mod, nil)
	exitOn(err)
	prog, err := core.NewProgram(ffi.NewRegistry(), core.Profiling, nil)
	exitOn(err)
	m, err := interp.New(mod, prog, interp.Options{Output: os.Stdout})
	exitOn(err)
	res, err := m.Run(o.entry)
	exitOn(err)
	fmt.Fprintf(os.Stderr, "pkrusafe: profiling run returned %v\n", res)
	recorded, err := prog.RecordedProfile()
	exitOn(err)
	data, err := json.MarshalIndent(recorded, "", "  ")
	exitOn(err)
	out := o.outPath
	if out == "" {
		out = path + ".prof"
	}
	exitOn(os.WriteFile(out, data, 0o644))
	fmt.Fprintf(os.Stderr, "pkrusafe: %d shared allocation sites written to %s\n", recorded.Len(), out)
}

func cmdAnalyze(o *options, path string) {
	mod := loadModule(path)
	_, err := compile.Pipeline(mod, nil)
	exitOn(err)
	recorded, st, err := static.Analyze(mod)
	exitOn(err)
	fmt.Fprintf(os.Stderr, "pkrusafe: static analysis converged in %d iteration(s): %d of %d sites may escape\n",
		st.Iterations, st.EscapedSites, st.TotalSites)
	data, err := json.MarshalIndent(recorded, "", "  ")
	exitOn(err)
	out := o.outPath
	if out == "" {
		out = path + ".prof"
	}
	exitOn(os.WriteFile(out, data, 0o644))
	fmt.Fprintf(os.Stderr, "pkrusafe: profile written to %s\n", out)
}

// execute runs the program under cfg. When table is set (the stats
// subcommand) the run always collects telemetry and prints it afterwards;
// otherwise telemetry is collected only when an export flag asks for it.
func execute(o *options, path string, cfg core.BuildConfig, table bool) {
	mod := loadModule(path)
	var applied *profile.Profile
	if cfg == core.MPK || cfg == core.Alloc {
		applied = loadProfile(o)
	}
	_, err := compile.Pipeline(mod, applied)
	exitOn(err)

	// The crash-report ring: always attached so a fatal fault carries its
	// trailing events even without -trace. An explicit -trace N sizes the
	// ring and additionally dumps it on crash, as before.
	ringCap := o.traceN
	if ringCap <= 0 {
		ringCap = defaultCrashRing
	}
	ring := trace.NewRing(ringCap)
	policy, err := supervise.ParsePolicy(o.recoverName)
	exitOn(err)
	// The crossing sampler rides every run: forward-gate arguments are
	// attributed to their allocation sites so the run can report what
	// actually crossed the boundary (and feed a profile store).
	opts := core.Options{Trace: ring, Forensics: true, Crossings: true,
		Supervision: supervise.Config{Policy: policy}}
	var reg *telemetry.Registry
	if table || o.metrics != "" || o.metricsJSON != "" || o.listen != "" {
		reg = telemetry.NewRegistry()
		opts.Telemetry = reg
	}
	// A served run is a traced run: the whole execution becomes one
	// retained request trace, so /trace.json has a timeline to offer.
	var tracer *gatetrace.Tracer
	if o.listen != "" {
		tracer = gatetrace.New(gatetrace.Config{Registry: reg, RetainAll: true})
		opts.Tracing = tracer
	}

	prog, err := core.NewProgram(ffi.NewRegistry(), cfg, applied, opts)
	exitOn(err)

	var srv *obs.Server
	if o.listen != "" {
		srv, err = obs.ListenAndServe(o.listen, obs.ServerConfig{Registry: reg, Ring: ring, Traces: tracer})
		exitOn(err)
		fmt.Fprintf(os.Stderr, "pkrusafe: observability server on %s\n", srv.URL())
	}

	m, err := interp.New(mod, prog, interp.Options{Output: os.Stdout})
	exitOn(err)
	tc := tracer.Start(o.entry)
	prog.Main().SetTraceContext(tc)
	res, runErr := m.Run(o.entry)
	prog.Main().SetTraceContext(nil)
	tc.Finish()

	// Telemetry is exported before the crash branch below so a faulting
	// run still leaves its counters behind (exit status stays 1).
	emitTelemetry(o, reg, table)
	emitHealedProfile(o, applied, prog.Supervisor())
	if runErr != nil {
		reportRecovery(os.Stderr, prog.Supervisor(), false)
		fmt.Fprintf(os.Stderr, "pkrusafe: program crashed: %v\n", runErr)
		if rep, ok := prog.Forensics().Capture(runErr); ok {
			exitOn(rep.WriteText(os.Stderr))
			if o.crashJSON != "" {
				exitOn(cli.WriteTo(o.crashJSON, rep.WriteJSON))
			}
		}
		if o.traceN > 0 {
			fmt.Fprintf(os.Stderr, "pkrusafe: last %d runtime event(s) before death:\n", ring.Len())
			ring.Dump(os.Stderr)
		}
		closeServer(srv)
		os.Exit(1)
	}
	reportRecovery(os.Stderr, prog.Supervisor(), true)
	reportCrossings(os.Stderr, prog)
	fmt.Fprintf(os.Stderr, "pkrusafe: %v run returned %v (%d transitions)\n", cfg, res, prog.Transitions())
	closeServer(srv)
}

// cmdTrace executes the program under the mpk configuration with every
// request trace retained and writes the run's gate timeline as Chrome
// trace_event JSON. The run itself is a single traced request labelled
// with the entry function; a crash still writes the timeline first (with
// the fault marked on it), then exits 1 — the trace of a dying run is
// exactly the artifact worth keeping.
func cmdTrace(o *options, path string) {
	mod := loadModule(path)
	applied := loadProfile(o)
	_, err := compile.Pipeline(mod, applied)
	exitOn(err)
	policy, err := supervise.ParsePolicy(o.recoverName)
	exitOn(err)

	reg := telemetry.NewRegistry()
	tracer := gatetrace.New(gatetrace.Config{Registry: reg, RetainAll: true})
	prog, err := core.NewProgram(ffi.NewRegistry(), core.MPK, applied, core.Options{
		Telemetry:   reg,
		Tracing:     tracer,
		Trace:       trace.NewRing(defaultCrashRing),
		Forensics:   true,
		Crossings:   true,
		Supervision: supervise.Config{Policy: policy},
	})
	exitOn(err)

	m, err := interp.New(mod, prog, interp.Options{Output: os.Stdout})
	exitOn(err)
	tc := tracer.Start(o.entry)
	prog.Main().SetTraceContext(tc)
	res, runErr := m.Run(o.entry)
	prog.Main().SetTraceContext(nil)
	tc.Finish()

	out := o.outPath
	if out == "" {
		out = path + ".trace.json"
	}
	exitOn(cli.WriteTo(out, tracer.WriteChromeTrace))
	ts := tracer.Stats()
	if out != "-" {
		fmt.Fprintf(os.Stderr, "pkrusafe: %d trace(s) (%d retained) written to %s\n",
			ts.Finished, ts.Retained, out)
	}
	if runErr != nil {
		reportRecovery(os.Stderr, prog.Supervisor(), false)
		fmt.Fprintf(os.Stderr, "pkrusafe: program crashed: %v\n", runErr)
		if rep, ok := prog.Forensics().Capture(runErr); ok {
			exitOn(rep.WriteText(os.Stderr))
		}
		os.Exit(1)
	}
	reportRecovery(os.Stderr, prog.Supervisor(), true)
	fmt.Fprintf(os.Stderr, "pkrusafe: mpk run returned %v (%d transitions)\n", res, prog.Transitions())
}

// cmdDomains runs the N-tenant virtual-key conformance drill and prints
// its multiplexing stats: how many logical domains rode how many hardware
// slots, what the LRU eviction traffic looked like, and whether the
// multiplexed stack ever disagreed with the ideal unbounded-keys model
// (exit status 1 if it did).
func cmdDomains(o *options, arg string) {
	n, err := strconv.Atoi(arg)
	if err != nil || n < 1 {
		exitOn(fmt.Errorf("domains: want a positive tenant count, got %q", arg))
	}
	rep, err := conformance.RunVKeyDrill(conformance.VKeyOptions{Domains: n})
	exitOn(err)
	if o.jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		exitOn(err)
		fmt.Println(string(data))
	} else {
		fmt.Printf("domains:     %d logical on %d hardware slots\n", rep.Domains, rep.Slots)
		fmt.Printf("probes:      %d (own pool, shared pool, trusted secret, every cross-tenant pair)\n", rep.Probes)
		fmt.Printf("slot misses: %d\n", rep.SlotMisses)
		fmt.Printf("evictions:   %d\n", rep.Evictions)
		fmt.Printf("recycled:    %d\n", rep.Recycled)
		fmt.Printf("divergences: %d\n", len(rep.Divergences))
	}
	if len(rep.Divergences) > 0 {
		for _, d := range rep.Divergences {
			fmt.Fprintln(os.Stderr, "pkrusafe:", d)
		}
		os.Exit(1)
	}
}

// reportCrossings prints the crossing sampler's attribution summary.
// Silent when no forward gate was crossed (base/alloc configs).
func reportCrossings(w io.Writer, prog *core.Program) {
	cs := prog.Crossings()
	if cs.Sampled() == 0 {
		return
	}
	sites := cs.Sites()
	names := make([]string, len(sites))
	for i, id := range sites {
		names[i] = id.String()
	}
	line := fmt.Sprintf("pkrusafe: crossings: %d sampled, %d allocation site(s) attributed", cs.Sampled(), len(sites))
	if len(names) > 0 {
		line += ": " + strings.Join(names, ", ")
	}
	fmt.Fprintln(w, line)
}

// reportRecovery prints the supervisor's recovery log: the "crash
// averted" report when the run survived its compartment failures, or the
// recovery attempts that preceded a crash. Silent when nothing happened.
func reportRecovery(w io.Writer, sup *supervise.Supervisor, survived bool) {
	evs := sup.Events()
	if len(evs) == 0 {
		return
	}
	if survived {
		fmt.Fprintf(w, "pkrusafe: crash averted: %d recovery action(s) under policy %s\n",
			len(evs), sup.Policy())
	} else {
		fmt.Fprintf(w, "pkrusafe: recovery exhausted after %d action(s) under policy %s\n",
			len(evs), sup.Policy())
	}
	for _, e := range evs {
		line := fmt.Sprintf("pkrusafe:   #%d %s %s", e.Seq, e.Action, e.Call)
		if e.Site != "" {
			line += " site=" + e.Site
		}
		if e.Epoch != 0 {
			// A quarantine epoch belongs to one domain pool when the fault
			// was attributable to a tenant, and to the global MU tier
			// otherwise — render which pool paid for the recovery.
			if e.Domain != "" {
				line += fmt.Sprintf(" domain=%s epoch=%d", e.Domain, e.Epoch)
			} else {
				line += fmt.Sprintf(" mu-epoch=%d", e.Epoch)
			}
		}
		fmt.Fprintln(w, line)
		if e.Averted != nil {
			fmt.Fprintf(w, "pkrusafe:       would have died: %s %s at %s (pkey %d)\n",
				e.Averted.Fault.Access, e.Averted.Fault.Code, e.Averted.Fault.Addr, e.Averted.Fault.PKey)
		}
	}
	if delta := sup.Delta(); delta.Len() > 0 {
		ids := delta.IDs()
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = id.String()
		}
		fmt.Fprintf(w, "pkrusafe: healed %d allocation site(s): %s\n", len(ids), strings.Join(names, ", "))
	}
}

// emitHealedProfile persists the applied profile merged with the healed
// sites: running again with this profile needs no healing.
func emitHealedProfile(o *options, applied *profile.Profile, sup *supervise.Supervisor) {
	if o.healOut == "" {
		return
	}
	merged := profile.New()
	if applied != nil {
		merged.Merge(applied)
	}
	merged.Merge(sup.Delta())
	exitOn(cli.WriteTo(o.healOut, func(w io.Writer) error {
		data, err := json.MarshalIndent(merged, "", "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	}))
}

// defaultCrashRing is the trace-ring capacity used when -trace is unset:
// enough tail for a crash report's forensics without meaningful memory.
const defaultCrashRing = 64

// closeServer drains the observability server before exit (nil-safe).
func closeServer(srv *obs.Server) {
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pkrusafe: observability server:", err)
	}
}

func emitTelemetry(o *options, reg *telemetry.Registry, table bool) {
	if reg == nil {
		return
	}
	if o.metrics != "" {
		exitOn(cli.WriteTo(o.metrics, reg.WritePrometheus))
	}
	if o.metricsJSON != "" {
		exitOn(cli.WriteTo(o.metricsJSON, reg.Snapshot().WriteJSON))
	}
	if table {
		if o.jsonOut {
			exitOn(reg.Snapshot().WriteJSON(os.Stdout))
		} else {
			fmt.Print(telemetry.FormatTable(reg.Snapshot()))
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pkrusafe:", err)
		os.Exit(1)
	}
}
