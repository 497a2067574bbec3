// Command pkru-bench regenerates the paper's evaluation tables and
// figures on the simulated machine:
//
//	pkru-bench -experiment micro      §5.2 call-gate micro-benchmarks
//	pkru-bench -experiment fig3       Figure 3: gate overhead vs work
//	pkru-bench -experiment dromaeo    Table 2 + Figure 4
//	pkru-bench -experiment kraken     Figure 5
//	pkru-bench -experiment octane     Figure 6
//	pkru-bench -experiment jetstream  Figure 7 + Table 3
//	pkru-bench -experiment table1     Table 1 (all four suites)
//	pkru-bench -experiment sites      §5.3 allocation-site statistics
//	pkru-bench -experiment recovery   fault supervision overhead (fault-free)
//	pkru-bench -experiment profiling  crossing-sampler overhead (docs/profiling.md)
//	pkru-bench -experiment vkeys      virtual-key slot-miss overhead (docs/domains.md)
//	pkru-bench -experiment resilience hostile-tenant containment overhead (docs/recovery.md)
//	pkru-bench -experiment all        everything above
//
// Absolute times are the simulator's, not the paper testbed's; the
// reproduced result is the shape: which configurations win, how overhead
// tracks compartment-transition density, and where it vanishes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/workload"
)

func main() {
	experiment := flag.String("experiment", "all", "micro|fig3|table1|dromaeo|kraken|octane|jetstream|sites|ablation|recovery|profiling|vkeys|resilience|all")
	scale := flag.Float64("scale", 1.0, "workload scale factor (lower = faster)")
	repeats := flag.Int("repeats", 3, "timed repetitions per configuration (min kept)")
	microIters := flag.Int("micro-iters", 200000, "iterations per micro-benchmark measurement")
	csvDir := flag.String("csv", "", "directory to also write per-suite CSV data into")
	jsonDir := flag.String("json", "", "directory to also write each experiment's BENCH record (JSON: timings, telemetry, config, environment) into")
	flag.Parse()

	opt := bench.Options{Scale: *scale, Repeats: *repeats}
	run := func(name string) bool { return *experiment == name || *experiment == "all" }

	if run("micro") {
		rs, err := bench.RunMicro(*microIters)
		exitOn(err)
		fmt.Println(bench.FormatMicro(rs))
	}
	if run("fig3") {
		pts, err := bench.RunGateSweep(bench.DefaultSweepCounts(), *microIters/10)
		exitOn(err)
		fmt.Println(bench.FormatSweep(pts))
	}

	suites := workload.Suites()
	reports := map[string]bench.SuiteReport{}
	need := func(name string) bench.SuiteReport {
		if r, ok := reports[name]; ok {
			return r
		}
		fmt.Fprintf(os.Stderr, "running suite %s (%d benchmarks x 3 configs)...\n", name, len(suites[name]))
		r, err := bench.RunSuite(name, suites[name], opt)
		exitOn(err)
		reports[name] = r
		if *csvDir != "" {
			writeReport(*csvDir, name+".csv", func(w io.Writer) error { return bench.WriteCSV(w, r) })
		}
		if *jsonDir != "" {
			writeReport(*jsonDir, name+".json", bench.SuiteRecord(r, opt).Write)
		}
		return r
	}

	if run("dromaeo") {
		r := need("dromaeo")
		fmt.Println(bench.FormatTable2(r))
		fmt.Println(bench.FormatFigure("Figure 4: Dromaeo sub-suites", r))
	}
	if run("kraken") {
		fmt.Println(bench.FormatFigure("Figure 5: Kraken", need("kraken")))
	}
	if run("octane") {
		fmt.Println(bench.FormatFigure("Figure 6: Octane", need("octane")))
	}
	if run("jetstream") {
		r := need("jetstream2")
		fmt.Println(bench.FormatFigure("Figure 7: JetStream2", r))
		fmt.Println(bench.FormatTable3(r))
	}
	if run("table1") {
		t1 := []bench.SuiteReport{need("dromaeo"), need("jetstream2"), need("kraken"), need("octane")}
		fmt.Println(bench.FormatTable1(t1))
	}
	if run("ablation") {
		rs, err := bench.RunAblations()
		exitOn(err)
		fmt.Println(bench.FormatAblations(rs))
	}
	if run("sites") {
		r, err := bench.RunSites()
		exitOn(err)
		fmt.Println(bench.FormatSites(r))
	}
	if run("recovery") {
		rs, err := bench.RunRecovery(*microIters)
		exitOn(err)
		fmt.Println(bench.FormatRecovery(rs))
		if *jsonDir != "" {
			writeReport(*jsonDir, "recovery.json", bench.RecoveryRecord(*microIters, rs).Write)
		}
	}
	if run("profiling") {
		rs, stats, err := bench.RunProfiling(*microIters)
		exitOn(err)
		fmt.Println(bench.FormatProfiling(rs, stats))
		if *jsonDir != "" {
			writeReport(*jsonDir, "profiling.json", bench.ProfilingRecord(*microIters, rs, stats).Write)
		}
	}
	if run("vkeys") {
		rs, err := bench.RunVKeys(*microIters)
		exitOn(err)
		fmt.Println(bench.FormatVKeys(rs))
		if *jsonDir != "" {
			writeReport(*jsonDir, "vkeys.json", bench.VKeysRecord(*microIters, rs).Write)
		}
	}
	if run("resilience") {
		iters := *microIters / 10
		rs, err := bench.RunResilience(iters)
		exitOn(err)
		fmt.Println(bench.FormatResilience(rs))
		if *jsonDir != "" {
			writeReport(*jsonDir, "resilience.json", bench.ResilienceRecord(iters, rs).Write)
		}
	}
	if !anyExperiment(*experiment) {
		fmt.Fprintf(os.Stderr, "pkru-bench: unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}

// writeReport writes one report file into dir via write.
func writeReport(dir, name string, write func(io.Writer) error) {
	path := filepath.Join(dir, name)
	exitOn(cli.WriteTo(path, write))
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func anyExperiment(name string) bool {
	switch name {
	case "micro", "fig3", "table1", "dromaeo", "kraken", "octane", "jetstream", "sites", "ablation", "recovery", "profiling", "vkeys", "resilience", "all":
		return true
	}
	return false
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pkru-bench:", err)
		os.Exit(1)
	}
}
