package bench

import (
	"fmt"
	"math"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// CollectTelemetry performs one instrumented mpk run of the benchmark and
// condenses the registry into the benchmark's "telemetry.*" rows: how
// often the compartment boundary was crossed, what a crossing cost, and
// how the heap traffic split between the trusted (MT) and untrusted (MU)
// pools. The run is separate from the timed repeats — those stay
// uninstrumented, so attaching telemetry can never perturb the timings
// the tables report.
func CollectTelemetry(b workload.Benchmark, prof *profile.Profile, opt Options) ([]Row, error) {
	opt.fill()
	reg := telemetry.NewRegistry()
	br, err := browser.New(core.MPK, prof, browser.Options{StepLimit: opt.StepLimit, Telemetry: reg})
	if err != nil {
		return nil, err
	}
	if err := runOnce(br, b, math.Max(1, b.N*opt.Scale/4)); err != nil {
		return nil, fmt.Errorf("telemetry run %s: %w", b.Name, err)
	}
	var rows []Row
	add := func(metric, unit string, n int, v float64) {
		rows = append(rows, Row{Name: b.Name, Metric: "telemetry." + metric, Unit: unit, N: n, Value: v})
	}
	crossings, _ := reg.CounterValue("pkrusafe_gate_crossings_total")
	faults, _ := reg.CounterValue("pkrusafe_vm_pku_faults_total")
	wrpkru, _ := reg.CounterValue("pkrusafe_vm_wrpkru_total")
	add("transitions", "count", 1, float64(br.Stats().Transitions))
	add("gate_crossings", "count", 1, crossings)
	add("pku_faults", "count", 1, faults)
	add("wrpkru", "count", 1, wrpkru)
	qs, gates, ok := reg.HistogramQuantiles("pkrusafe_gate_latency_ns", 0.5, 0.95, 0.99)
	if !ok {
		qs = make([]float64, 3)
	}
	add("gate_p50_ns", "ns", int(gates), qs[0])
	add("gate_p95_ns", "ns", int(gates), qs[1])
	add("gate_p99_ns", "ns", int(gates), qs[2])
	snap := reg.Snapshot()
	add("mt_bytes_total", "B", 1, sumSeries(snap, "pkrusafe_site_bytes_total", "pool", "MT"))
	add("mu_bytes_total", "B", 1, sumSeries(snap, "pkrusafe_site_bytes_total", "pool", "MU"))
	return rows, nil
}

// sumSeries totals a metric's series whose label equals value.
func sumSeries(snap *telemetry.Snapshot, metric, label, value string) float64 {
	for _, m := range snap.Metrics {
		if m.Name != metric {
			continue
		}
		idx := -1
		for i, l := range m.Labels {
			if l == label {
				idx = i
			}
		}
		if idx < 0 {
			return 0
		}
		var total float64
		for _, s := range m.Series {
			if idx < len(s.LabelValues) && s.LabelValues[idx] == value {
				total += s.Value
			}
		}
		return total
	}
	return 0
}
