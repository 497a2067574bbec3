// Command pkru-conform runs the MPK conformance harness from the command
// line: seeded differential fuzzing of the real enforcement stack against
// the reference model, and fault-injection validation of the oracle
// itself.
//
//	pkru-conform -seed 1 -traces 256 -ops 512        differential sweep
//	pkru-conform -fault all                          prove planted bugs are caught
//	pkru-conform -supervised                         supervised-gate recovery drill
//	pkru-conform -vkeys                              virtual-key multiplexing drill
//	pkru-conform -attacks                            Garmr attack corpus: red/green drills
//	pkru-conform -traces 64 -json -                  JSON telemetry summary
//
// On a divergence the shrunk counterexample is printed as a runnable Go
// test and the exit status is 1; in -fault mode the exit status is 1 when
// any planted bug goes undetected. The summary is exported through the
// repo's telemetry registry, so -json emits the same schema as every
// other tool's -metrics-json.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/attack"
	"repro/internal/conformance"
	"repro/internal/telemetry"
)

func main() {
	var (
		seed   = flag.Int64("seed", 1, "base seed; trace i uses seed+i")
		traces = flag.Int("traces", 64, "number of generated traces to replay")
		ops    = flag.Int("ops", 512, "operations per trace")
		fault  = flag.String("fault", "", "fault-injection mode: skip-gate-restore|swallow-segv|leak-trusted-alloc|stale-setpkey|stale-tlb-key|all")
		superv = flag.Bool("supervised", false, "run the supervised-gate drill: recovery must not change enforcement semantics")
		vkeys  = flag.Bool("vkeys", false, "run the virtual-key drill: multiplexing must not change enforcement semantics")
		atks   = flag.Bool("attacks", false, "run the Garmr attack corpus: every defense must hold its green drill and every attack its red drill")
		vkeyN  = flag.Int("vkey-domains", 0, "domain count for the -vkeys drill (0 = slots+3)")
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
		ok = runVKeys(*vkeyN, *quiet)
	case *superv:
		ok = runSupervised(*quiet)
	case *fault != "":
		ok = runFaultInjection(*fault, m, *quiet)
	default:
		ok = runDifferential(*seed, *traces, *ops, m, *quiet)
	}

	if *table {
		fmt.Print(telemetry.FormatTable(reg.Snapshot()))
	}
	if *jsonTo != "" {
		if err := writeJSON(*jsonTo, reg); err != nil {
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

// runFaultInjection plants each requested bug and verifies the oracle
// catches it on the directed probe trace.
func runFaultInjection(mode string, m *metrics, quiet bool) bool {
	var faults []conformance.Fault
	if mode == "all" {
		faults = conformance.Faults()
	} else {
		f, ok := conformance.ParseFault(mode)
		if !ok || f == conformance.InjectNone {
			fmt.Fprintf(os.Stderr, "pkru-conform: unknown fault mode %q\n", mode)
			return false
		}
		faults = []conformance.Fault{f}
	}
	ok := true
	for _, f := range faults {
		tr := conformance.DirectedTrace(f)
		clean := conformance.Run(tr, conformance.Options{})
		m.record(clean)
		if len(clean.Divergences) > 0 {
			fmt.Fprintf(os.Stderr, "pkru-conform: %v probe trace diverges without injection: %v\n", f, clean.Divergences[0])
			ok = false
			continue
		}
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
	return ok
}

// runSupervised drills every recovery policy through the differential
// oracle: the recovering stack and the model must agree on PKRU, gate
// depth and the full page-key map after each unwind, and the drill's own
// planted skip-restore bug must be caught.
func runSupervised(quiet bool) bool {
	if err := conformance.DrillSupervised(); err != nil {
		fmt.Fprintln(os.Stderr, "pkru-conform:", err)
		return false
	}
	if !quiet {
		fmt.Println("pkru-conform: supervised-gate drill: retry/quarantine/heal recover without semantic drift; planted skip-restore caught")
	}
	return true
}

// runVKeys drills protection-key virtualization: the multiplexed stack
// must agree with the ideal unbounded-keys model across evictions, slot
// recycling and tenant churn, and the drill's planted
// stale-slot-after-eviction bug must be caught.
func runVKeys(domains int, quiet bool) bool {
	if err := conformance.DrillVKeys(); err != nil {
		fmt.Fprintln(os.Stderr, "pkru-conform:", err)
		return false
	}
	if domains > 0 {
		rep, err := conformance.RunVKeyDrill(conformance.VKeyOptions{Domains: domains})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pkru-conform:", err)
			return false
		}
		if len(rep.Divergences) > 0 {
			fmt.Fprintf(os.Stderr, "pkru-conform: vkeys at %d domains: %s\n", domains, rep.Divergences[0])
			return false
		}
		if !quiet {
			fmt.Printf("pkru-conform: vkeys at %d domains on %d slots: %d probes, %d evictions, no divergence\n",
				rep.Domains, rep.Slots, rep.Probes, rep.Evictions)
		}
	}
	if !quiet {
		fmt.Println("pkru-conform: virtual-key drill: multiplexing is semantically invisible; planted stale-slot-after-eviction caught")
	}
	return true
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

func writeJSON(path string, reg *telemetry.Registry) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return reg.Snapshot().WriteJSON(w)
}
