// Command pkru-conform runs the MPK conformance harness from the command
// line: seeded differential fuzzing of the real enforcement stack against
// the reference model, and fault-injection validation of the oracle
// itself.
//
//	pkru-conform -seed 1 -traces 256 -ops 512        differential sweep
//	pkru-conform -fault all                          prove planted bugs are caught
//	pkru-conform -supervised                         supervised-call recovery drill
//	pkru-conform -vkeys [-vkey-domains N]            N-tenant virtual-key sweep
//	pkru-conform -attacks                            Garmr attack corpus: red/green drills
//	pkru-conform -traces 64 -json -                  JSON telemetry summary
//
// On a divergence the shrunk counterexample is printed as a runnable Go
// test and the exit status is 1. -fault, -supervised and -vkeys are
// drills: a trace replayed clean, which must not diverge, then with each
// planted bug, which must; the exit status is 1 when either fails. The
// summary is exported through the repo's telemetry registry, so -json
// emits the same schema as every other tool's -metrics-json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/cli"
	"repro/internal/conformance"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

func main() {
	var (
		seed   = flag.Int64("seed", 1, "base seed; trace i uses seed+i")
		traces = flag.Int("traces", 64, "number of generated traces to replay")
		ops    = flag.Int("ops", 512, "operations per trace")
		fault  = flag.String("fault", "", "fault-injection mode: "+faultModes()+"|all")
		superv = flag.Bool("supervised", false, "run the supervised-call drill: recovery must not change enforcement semantics")
		vkeys  = flag.Bool("vkeys", false, "run the virtual-key sweep: multiplexing must not change enforcement semantics")
		atks   = flag.Bool("attacks", false, "run the Garmr attack corpus: every defense must hold its green drill and every attack its red drill")
		vkeyN  = flag.Int("vkey-domains", 0, fmt.Sprintf("tenant count for the -vkeys sweep, at most %d (0 = slots+3)", conformance.MaxTenants))
		jsonTo = flag.String("json", "", "write the telemetry summary as JSON to this path (\"-\" = stdout)")
		table  = flag.Bool("table", false, "print the telemetry summary as a table")
		quiet  = flag.Bool("q", false, "suppress per-run progress output")
	)
	flag.Parse()

	reg := telemetry.NewRegistry()
	m := &metrics{
		traces:      reg.Counter("pkruconform_traces_total", "Traces replayed differentially."),
		ops:         reg.Counter("pkruconform_ops_total", "Operations executed across all traces."),
		skipped:     reg.Counter("pkruconform_ops_skipped_total", "Operations skipped (dead slot / empty gate stack)."),
		outcomes:    reg.CounterVec("pkruconform_outcomes_total", "Real-stack outcomes by kind.", "kind"),
		divergences: reg.Counter("pkruconform_divergences_total", "Disagreements between the real stack and the model."),
		detected:    reg.CounterVec("pkruconform_faults_detected_total", "Planted faults detected by the oracle.", "fault"),
	}

	ok := true
	switch {
	case *atks:
		ok = runAttacks(*quiet)
	case *vkeys:
		ok = runVKeys(*vkeyN, m, *quiet)
	case *superv:
		ok = runSupervised(m, *quiet)
	case *fault != "":
		ok = runFaultInjection(*fault, m, *quiet)
	default:
		ok = runDifferential(*seed, *traces, *ops, m, *quiet)
	}

	if *table {
		fmt.Print(telemetry.FormatTable(reg.Snapshot()))
	}
	if *jsonTo != "" {
		if err := cli.WriteTo(*jsonTo, reg.Snapshot().WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "pkru-conform:", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// metrics groups the registry handles the harness reports into.
type metrics struct {
	traces      *telemetry.Counter
	ops         *telemetry.Counter
	skipped     *telemetry.Counter
	outcomes    *telemetry.CounterVec
	divergences *telemetry.Counter
	detected    *telemetry.CounterVec
}

func (m *metrics) record(res *conformance.Result) {
	m.traces.Inc()
	m.ops.Add(uint64(res.Ops))
	m.skipped.Add(uint64(res.Skipped))
	for kind, n := range res.Counts {
		m.outcomes.With(kind.String()).Add(uint64(n))
	}
	m.divergences.Add(uint64(len(res.Divergences)))
}

// runDifferential replays generated traces and reports the first
// divergence as a shrunk, runnable Go test.
func runDifferential(seed int64, traces, ops int, m *metrics, quiet bool) bool {
	for i := 0; i < traces; i++ {
		s := seed + int64(i)
		tr := conformance.Generate(s, ops)
		res := conformance.Run(tr, conformance.Options{})
		m.record(res)
		if len(res.Divergences) > 0 {
			fmt.Fprintf(os.Stderr, "pkru-conform: seed %d: %d divergence(s); first:\n  %v\n",
				s, len(res.Divergences), res.Divergences[0])
			sh := conformance.Shrink(tr, conformance.Options{})
			fmt.Fprintf(os.Stderr, "shrunk repro (%d ops):\n%s", len(sh.Ops), conformance.FormatGoTest("Found", sh))
			return false
		}
	}
	if !quiet {
		fmt.Printf("pkru-conform: %d traces x %d ops (seeds %d..%d): no divergence from the reference model\n",
			traces, ops, seed, seed+int64(traces)-1)
	}
	return true
}

// faultModes lists the plantable fault modes for the -fault usage line.
func faultModes() string {
	var names []string
	for _, f := range conformance.Faults() {
		names = append(names, f.String())
	}
	return strings.Join(names, "|")
}

// drill replays tr clean, then once per planted fault. The clean run must
// not diverge and must show the drill's evidence (lack names what is
// missing, "" for nothing); every planted run must diverge. It returns
// the clean run and whether the drill passed.
func drill(tr conformance.Trace, faults []conformance.Fault, lack func(*conformance.Result) string, m *metrics, quiet bool) (*conformance.Result, bool) {
	clean := conformance.Run(tr, conformance.Options{})
	m.record(clean)
	why := lack(clean)
	if len(clean.Divergences) > 0 {
		why = fmt.Sprintf("trace diverges without injection: %v", clean.Divergences[0])
	}
	if why != "" {
		fmt.Fprintln(os.Stderr, "pkru-conform:", why)
		return clean, false
	}
	ok := true
	for _, f := range faults {
		res := conformance.Run(tr, conformance.Options{Inject: f})
		m.record(res)
		if len(res.Divergences) == 0 {
			fmt.Fprintf(os.Stderr, "pkru-conform: planted fault %v NOT detected\n", f)
			ok = false
			continue
		}
		m.detected.With(f.String()).Inc()
		if !quiet {
			fmt.Printf("pkru-conform: %v detected (%d divergences; first: %v)\n", f, len(res.Divergences), res.Divergences[0])
		}
	}
	return clean, ok
}

// runFaultInjection plants each requested bug and verifies the oracle
// catches it on the directed probe trace.
func runFaultInjection(mode string, m *metrics, quiet bool) bool {
	faults := conformance.Faults()
	if mode != "all" {
		f, ok := conformance.ParseFault(mode)
		if !ok || f == conformance.InjectNone {
			fmt.Fprintf(os.Stderr, "pkru-conform: unknown fault mode %q\n", mode)
			return false
		}
		faults = []conformance.Fault{f}
	}
	_, ok := drill(conformance.DirectedTrace(), faults, func(*conformance.Result) string { return "" }, m, quiet)
	return ok
}

// runSupervised drills supervised calls on the directed trace: a retry
// recovers, a heal migrates its object and a quarantine scrubs MU, with
// the recovering stack and the model agreeing on PKRU, gate depth, each
// call's recovery record and the page keys; the planted
// skip-recovery-restore bug must be caught.
func runSupervised(m *metrics, quiet bool) bool {
	_, ok := drill(conformance.DirectedTrace(), []conformance.Fault{conformance.InjectSkipRecoveryRestore}, func(res *conformance.Result) string {
		if res.Recovered[supervise.Retry] == 0 || res.Recovered[supervise.Heal] == 0 || res.Recovery["quarantine"] == 0 {
			return fmt.Sprintf("recovery not exercised: recovered %v, actions %v", res.Recovered, res.Recovery)
		}
		return ""
	}, m, true)
	if ok && !quiet {
		fmt.Println("pkru-conform: supervised-gate drill: retry/quarantine/heal recover without semantic drift; planted skip-restore caught")
	}
	return ok
}

// runVKeys sweeps n tenants (slots+3 when 0) over the executor's vkey
// slots: the multiplexed stack must agree with the model across
// evictions, slot recycling and tenant churn, and the planted
// stale-slot-after-eviction bug must be caught.
func runVKeys(n int, m *metrics, quiet bool) bool {
	if n == 0 {
		n = conformance.VKeySlots + 3
	}
	if n < 0 || n > conformance.MaxTenants {
		fmt.Fprintf(os.Stderr, "pkru-conform: -vkey-domains %d: want 1..%d\n", n, conformance.MaxTenants)
		return false
	}
	res, ok := drill(conformance.VKeySweep(n), []conformance.Fault{conformance.InjectStaleSlot}, func(res *conformance.Result) string {
		switch st := res.VKeyStats; {
		case n <= st.Slots:
			return fmt.Sprintf("%d tenants do not exceed the %d hardware slots", n, st.Slots)
		case st.Evictions == 0:
			return "no evictions despite more tenants than slots"
		case st.Recycled == 0:
			return "churn recycled no hardware slots"
		}
		return ""
	}, m, true)
	if ok && !quiet {
		fmt.Printf("pkru-conform: vkeys at %d domains on %d slots: %d probes, %d evictions, no divergence\n",
			n, res.VKeyStats.Slots, res.Trace.Count(conformance.OpLoad), res.VKeyStats.Evictions)
		fmt.Println("pkru-conform: virtual-key drill: multiplexing is semantically invisible; planted stale-slot-after-eviction caught")
	}
	return ok
}

// runAttacks drills the Garmr attack corpus: one verdict line per
// red/green drill, non-zero exit when any drill fails — red proves each
// attack still works with its defense disabled (and that the harness
// detects the breach), green proves the armed defense kills it with the
// expected fault.
func runAttacks(quiet bool) bool {
	results := attack.RunAll()
	fail := 0
	for _, r := range results {
		if !r.Pass {
			fail++
		}
		if !quiet || !r.Pass {
			fmt.Println(r.Verdict())
		}
	}
	if fail > 0 {
		fmt.Fprintf(os.Stderr, "pkru-conform: attack corpus: %d of %d drills failed\n", fail, len(results))
		return false
	}
	if !quiet {
		fmt.Printf("pkru-conform: attack corpus: %d scenarios x red+green drills: every attack has teeth, every defense holds\n", len(results)/2)
	}
	return true
}
