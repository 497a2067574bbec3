package bench

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func miniReport(t *testing.T) SuiteReport {
	t.Helper()
	rep, err := RunSuite("mini", []workload.Benchmark{workload.Kraken()[8]}, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestWriteJSON(t *testing.T) {
	rep := miniReport(t)
	rec := roundTrip(t, SuiteRecord(rep, quickOpts))
	if rec.Experiment != "mini" || rec.Config["suite"] != "mini" || rec.Config["repeats"] != "1" {
		t.Errorf("record header = %q, config %v", rec.Experiment, rec.Config)
	}
	// FormatFigure prints each benchmark's alloc and mpk runtimes;
	// FormatTable1 the suite's mean overheads, transitions and %MU.
	res := rep.Results[0]
	name := res.Bench.Name
	wantRow(t, rec, name, "base_s", res.Base.Seconds)
	wantRow(t, rec, name, "alloc_overhead", res.AllocOverhead())
	wantRow(t, rec, name, "mpk_overhead", res.MPKOverhead())
	wantRow(t, rec, name, "transitions", float64(res.MPK.Transitions))
	wantRow(t, rec, name, "mu_share", res.MPK.UntrustedShare)
	wantRow(t, rec, "mini", "mean_alloc_overhead", rep.MeanAllocOverhead())
	wantRow(t, rec, "mini", "mean_mpk_overhead", rep.MeanMPKOverhead())
	wantRow(t, rec, "mini", "transitions", float64(rep.TotalTransitions()))
	wantRow(t, rec, "mini", "mu_share", rep.MeanUntrustedShare())
	for _, metric := range []string{"telemetry.transitions", "telemetry.wrpkru", "telemetry.gate_p50_ns", "telemetry.mt_bytes_total"} {
		if v, ok := rowValue(rec, name, metric); !ok || v <= 0 {
			t.Errorf("%s %s = %v (present %v), want > 0", name, metric, v, ok)
		}
	}
}

func TestRunAblations(t *testing.T) {
	rs, err := RunAblations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("ablations = %d", len(rs))
	}
	// The shipped designs must actually beat (or deliberately cost more
	// than) their alternatives in the expected direction. Under -race the
	// timings measure the detector's instrumentation (100 WRPKRU spins
	// vanish in the noise of a raced gate call), so the directions are
	// enforced only in plain builds.
	byName := map[string]AblationResult{}
	for _, r := range rs {
		byName[r.Name] = r
		if r.DesignNs <= 0 || r.AltNs <= 0 {
			t.Errorf("%s: non-positive timings %+v", r.Name, r)
		}
	}
	if !raceEnabled {
		if a := byName["split allocator"]; a.AltNs < a.DesignNs {
			t.Errorf("free list measured faster than arena: %+v", a)
		}
		if a := byName["metadata store"]; a.AltNs < a.DesignNs {
			t.Errorf("linear store measured faster than interval store: %+v", a)
		}
		if a := byName["WRPKRU cost model"]; a.DesignNs < a.AltNs {
			t.Errorf("modeled gates measured cheaper than free gates: %+v", a)
		}
	}
	out := FormatAblations(rs)
	for _, want := range []string{"split allocator", "WRPKRU", "metadata store"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}
