package bench

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// quickOpts keeps harness self-tests fast.
var quickOpts = Options{Scale: 0.25, Repeats: 1}

func TestRunBenchmarkAllConfigs(t *testing.T) {
	b := workload.Kraken()[8] // audio-dft, a small kernel
	r, err := RunBenchmark(b, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Base.Seconds <= 0 || r.Alloc.Seconds <= 0 || r.MPK.Seconds <= 0 {
		t.Errorf("non-positive timings: %+v", r)
	}
	if r.MPK.Transitions == 0 {
		t.Error("mpk run recorded no transitions")
	}
	if r.Base.Transitions != 0 {
		t.Errorf("base run counted %d transitions", r.Base.Transitions)
	}
	if r.MPK.UntrustedShare <= 0 {
		t.Error("mpk run has zero %MU (profile not applied?)")
	}
}

func TestRunBenchmarkDOM(t *testing.T) {
	b := workload.Dromaeo()[0] // dom-attr
	r, err := RunBenchmark(b, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.MPK.Transitions < 100 {
		t.Errorf("dom benchmark transitions = %d, want many", r.MPK.Transitions)
	}
}

func TestRunBenchmarkParseKind(t *testing.T) {
	var codeload workload.Benchmark
	for _, b := range workload.Octane() {
		if b.Kind == workload.Parse {
			codeload = b
			break
		}
	}
	if codeload.Name == "" {
		t.Fatal("no Parse-kind benchmark in octane")
	}
	r, err := RunBenchmark(codeload, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Base.Seconds <= 0 {
		t.Error("parse benchmark did not run")
	}
}

func TestRunSuiteAndAggregates(t *testing.T) {
	benches := []workload.Benchmark{
		workload.Kraken()[8],  // audio-dft
		workload.Dromaeo()[0], // dom-attr
	}
	rep, err := RunSuite("mini", benches, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	if rep.TotalTransitions() == 0 {
		t.Error("no transitions aggregated")
	}
	if s := rep.MeanUntrustedShare(); s <= 0 || s >= 1 {
		t.Errorf("mean %%MU = %v", s)
	}
	score := rep.GeomeanScore(func(r BenchResult) float64 { return r.Base.Seconds })
	if score <= 0 {
		t.Errorf("geomean score = %v", score)
	}
	// Aggregation helpers on an empty report are defined.
	var empty SuiteReport
	if empty.MeanAllocOverhead() != 0 || empty.MeanUntrustedShare() != 0 || empty.GeomeanScore(nil) != 0 {
		t.Error("empty report aggregates non-zero")
	}
}

func TestMicroBench(t *testing.T) {
	rs, err := RunMicro(5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("micro results = %d", len(rs))
	}
	names := []string{"empty", "read_one", "callback"}
	for i, r := range rs {
		if r.Name != names[i] {
			t.Errorf("result %d = %q", i, r.Name)
		}
		if r.Factor <= 1.0 {
			t.Errorf("%s gated/ungated factor = %.2f, want > 1 (gates must cost something)", r.Name, r.Factor)
		}
	}
	out := FormatMicro(rs)
	if !strings.Contains(out, "empty") || !strings.Contains(out, "8.55x") {
		t.Errorf("micro format:\n%s", out)
	}
}

func TestGateSweepShape(t *testing.T) {
	pts, err := RunGateSweep([]int{0, 50, 200, 2000}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Figure 3's shape: overhead falls as per-transition work grows. The
	// first point must exceed the last by a clear margin. Under -race the
	// ratios measure the detector's instrumentation, not the gates, so
	// the shape is enforced only in plain builds.
	first, last := pts[0].Normalized, pts[len(pts)-1].Normalized
	if !raceEnabled && first <= last {
		t.Errorf("sweep not decreasing: first %.2f, last %.2f", first, last)
	}
	if !raceEnabled && last > 1.5 {
		t.Errorf("with 2000 loops of work, overhead should approach 1.0, got %.2f", last)
	}
	out := FormatSweep(pts)
	if !strings.Contains(out, "Figure 3") {
		t.Errorf("sweep format:\n%s", out)
	}
}

func TestTableFormatting(t *testing.T) {
	benches := []workload.Benchmark{workload.Dromaeo()[5], workload.Dromaeo()[0]}
	rep, err := RunSuite("dromaeo", benches, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	t1 := FormatTable1([]SuiteReport{rep})
	for _, want := range []string{"Table 1", "dromaeo", "transitions", "%MU"} {
		if !strings.Contains(t1, want) {
			t.Errorf("table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := FormatTable2(rep)
	for _, want := range []string{"Table 2", "dom", "v8", "mean"} {
		if !strings.Contains(t2, want) {
			t.Errorf("table 2 missing %q:\n%s", want, t2)
		}
	}
	t3 := FormatTable3(rep)
	for _, want := range []string{"Table 3", "score", "base", "mpk"} {
		if !strings.Contains(t3, want) {
			t.Errorf("table 3 missing %q:\n%s", want, t3)
		}
	}
	fig := FormatFigure("Figure 5: Kraken", rep)
	if !strings.Contains(fig, "alloc") || !strings.Contains(fig, "mpk") {
		t.Errorf("figure missing series:\n%s", fig)
	}
}

func TestRunSites(t *testing.T) {
	r, err := RunSites()
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalSites == 0 || r.SharedSites == 0 {
		t.Fatalf("sites = %+v", r)
	}
	if r.SharedSites >= r.TotalSites {
		t.Errorf("every site shared (%d/%d): partitioning is vacuous", r.SharedSites, r.TotalSites)
	}
	if r.SharedPercent <= 0 || r.SharedPercent >= 100 {
		t.Errorf("shared%% = %v", r.SharedPercent)
	}
	out := FormatSites(r)
	if !strings.Contains(out, "2.26%") || !strings.Contains(out, "shared sites") {
		t.Errorf("sites format:\n%s", out)
	}
}
