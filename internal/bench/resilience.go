package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/supervise"
	"repro/internal/tenantworld"
)

// resilienceTenants is the world shape of the containment experiment:
// eight tenants, one of which turns hostile in the measured scenario —
// the same shape `pkru-servo -domains=8 -hostile=...` drives end to end.
const resilienceTenants = 8

// ResilienceResult is one scenario of the containment experiment: the
// latency healthy tenants see for a full supervised gate round-trip,
// with and without a hostile tenant tripping its breaker next to them.
// The number the experiment pins down is the tax containment charges the
// innocent: HealthyP99 under "hostile" versus under "baseline".
type ResilienceResult struct {
	Name            string        `json:"name"`             // "baseline" | "hostile"
	Domains         int           `json:"domains"`          // tenants in the world
	HealthyRequests int           `json:"healthy_requests"` // measured healthy round-trips
	HealthyP50      time.Duration `json:"healthy_p50_ns"`   // healthy per-request median
	HealthyP99      time.Duration `json:"healthy_p99_ns"`   // healthy per-request tail
	Shed            uint64        `json:"shed"`             // hostile requests refused at admission
	HostileFaults   uint64        `json:"hostile_faults"`   // hostile requests that faulted in a gate
	HostileEpochs   uint64        `json:"hostile_epochs"`   // quarantine epochs of the hostile pool
}

// runResilienceScenario drives iters round-robin requests through a
// fresh tenant world; the hostile tenant ("" for none) runs the attack
// payload roster behind its breaker instead of honest work. Healthy
// requests skip the cross-tenant probe, so each is one supervised gate
// round-trip around a single load of the tenant's own pool.
func runResilienceScenario(name string, iters int, hostile string) (ResilienceResult, error) {
	w, err := tenantworld.New(tenantworld.Config{
		Tenants: resilienceTenants,
		Policy:  supervise.Quarantine,
		// A long probe backoff keeps the tripped breaker open for the whole
		// scenario: the measurement wants the steady shed state, not probes.
		ProbeAfter:     time.Hour,
		SampleInterval: 8, // pkru-servo's default
		Hostile:        hostile,
	})
	if err != nil {
		return ResilienceResult{}, err
	}
	th := w.NewThread()
	for c := 0; c < iters; c++ {
		i := c % resilienceTenants
		out := w.Serve(th, i, i)
		if tenantworld.Name(i) != hostile && (out == tenantworld.Dropped || out == tenantworld.Refused) {
			return ResilienceResult{}, fmt.Errorf("bench: healthy tenant %s %v", tenantworld.Name(i), out)
		}
	}
	v := w.Verdict()
	if len(v.Breached) > 0 {
		return ResilienceResult{}, fmt.Errorf("bench: payload %s breached containment", v.Breached[0])
	}
	lat := w.Latency.Sorted(func(t string) bool { return t != hostile })
	return ResilienceResult{
		Name:            name,
		Domains:         resilienceTenants,
		HealthyRequests: len(lat),
		HealthyP50:      tenantworld.Quantile(lat, 0.50),
		HealthyP99:      tenantworld.Quantile(lat, 0.99),
		Shed:            v.Shed,
		HostileFaults:   v.Faulted,
		HostileEpochs:   uint64(v.HostileEpochs),
	}, nil
}

// RunResilience measures the containment overhead: healthy-tenant gate
// latency in a clean eight-tenant world (baseline) versus the same world
// with one tenant mounting the attack roster until its breaker opens and
// its pool quarantines (hostile). iters is the total request count per
// scenario, spread round-robin across the tenants.
func RunResilience(iters int) ([]ResilienceResult, error) {
	base, err := runResilienceScenario("baseline", iters, "")
	if err != nil {
		return nil, err
	}
	host, err := runResilienceScenario("hostile", iters, tenantworld.Name(3))
	if err != nil {
		return nil, err
	}
	return []ResilienceResult{base, host}, nil
}

// ResilienceOverhead returns hostile healthy-p99 / baseline healthy-p99 —
// the tail-latency tax containment charges the innocent tenants. The
// acceptance bar is 1.25x.
func ResilienceOverhead(rs []ResilienceResult) float64 {
	var base, host time.Duration
	for _, r := range rs {
		switch r.Name {
		case "baseline":
			base = r.HealthyP99
		case "hostile":
			host = r.HealthyP99
		}
	}
	if base <= 0 {
		return 0
	}
	return float64(host) / float64(base)
}

// FormatResilience renders the containment-overhead results.
func FormatResilience(rs []ResilienceResult) string {
	s := "Tenant containment: healthy-tenant gate latency beside a hostile neighbour\n"
	s += fmt.Sprintf("%-10s %8s %10s %10s %10s %8s %8s %8s\n",
		"scenario", "domains", "healthy", "p50", "p99", "shed", "faults", "epochs")
	for _, r := range rs {
		s += fmt.Sprintf("%-10s %8d %10d %10v %10v %8d %8d %8d\n",
			r.Name, r.Domains, r.HealthyRequests, r.HealthyP50, r.HealthyP99,
			r.Shed, r.HostileFaults, r.HostileEpochs)
	}
	s += fmt.Sprintf("healthy p99 overhead: %.2fx (bar: 1.25x)\n", ResilienceOverhead(rs))
	return s
}

// ResilienceReportSchema versions the resilience JSON report.
const ResilienceReportSchema = 1

// WriteResilienceJSON emits the containment results as schema-versioned
// JSON (the BENCH_resilience.json seed).
func WriteResilienceJSON(w io.Writer, iters int, rs []ResilienceResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Schema     int                `json:"schema"`
		Experiment string             `json:"experiment"`
		Iters      int                `json:"iters"`
		P99Factor  float64            `json:"healthy_p99_overhead"`
		Results    []ResilienceResult `json:"results"`
	}{ResilienceReportSchema, "resilience", iters, ResilienceOverhead(rs), rs})
}
