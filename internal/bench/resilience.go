package bench

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/supervise"
	"repro/internal/tenantworld"
)

// resilienceTenants is the world shape of the containment experiment:
// eight tenants, one of which turns hostile in the measured scenario —
// the same shape `pkru-servo -domains=8 -hostile=...` drives end to end.
const resilienceTenants = 8

// resiliencePairs is how many baseline/hostile pairs the experiment
// runs, in ABBA order so neither scenario always runs on the warmer
// process.
const resiliencePairs = 4

// ResilienceResult is one scenario of the containment experiment: the
// latency healthy tenants see for a full supervised gate round-trip,
// with and without a hostile tenant tripping its breaker next to them,
// over every run of the scenario. The number the experiment pins down
// is the tax containment charges the innocent: HealthyP99 under
// "hostile" versus under "baseline".
type ResilienceResult struct {
	Name            string          // "baseline" | "hostile"
	Domains         int             // tenants in the world
	HealthyRequests int             // measured healthy round-trips per run
	HealthyP50      time.Duration   // median over runs of the healthy per-request median
	HealthyP99      time.Duration   // median over runs of the healthy per-request tail
	RunP99          []time.Duration // each run's healthy tail, in run order
	Shed            uint64          // hostile requests refused at admission per run
	HostileFaults   uint64          // hostile requests that faulted in a gate per run
	HostileEpochs   uint64          // quarantine epochs of the hostile pool per run
}

// runResilienceScenario drives iters round-robin requests through a
// fresh tenant world and returns that one run; the hostile tenant (""
// for none) runs the attack payload roster behind its breaker instead of
// honest work. Healthy requests skip the cross-tenant probe, so each is
// one supervised gate round-trip around a single load of the tenant's
// own pool.
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
// its pool quarantines (hostile). iters is the request count per run,
// spread round-robin across the tenants. One discarded hostile run warms
// the process up first; the scenarios then alternate in ABBA order for
// resiliencePairs pairs, each run on a fresh world, and each scenario
// reports its runs' median quantiles.
func RunResilience(iters int) ([]ResilienceResult, error) {
	hostile := tenantworld.Name(3)
	if _, err := runResilienceScenario("warm-up", iters, hostile); err != nil {
		return nil, err
	}
	var runs [2][]ResilienceResult
	for k := 0; k < 2*resiliencePairs; k++ {
		sc, name, h := abba(k), "baseline", ""
		if sc == 1 {
			name, h = "hostile", hostile
		}
		run, err := runResilienceScenario(name, iters, h)
		if err != nil {
			return nil, err
		}
		runs[sc] = append(runs[sc], run)
	}
	rs := make([]ResilienceResult, 2)
	for sc, scRuns := range runs {
		r := scRuns[0]
		var p50s []time.Duration
		for _, run := range scRuns {
			if run.HealthyRequests != r.HealthyRequests || run.Shed != r.Shed ||
				run.HostileFaults != r.HostileFaults || run.HostileEpochs != r.HostileEpochs {
				return nil, fmt.Errorf("bench: %s runs disagree on their request counts", r.Name)
			}
			p50s = append(p50s, run.HealthyP50)
			r.RunP99 = append(r.RunP99, run.HealthyP99)
		}
		r.HealthyP50, r.HealthyP99 = median(p50s), median(r.RunP99)
		rs[sc] = r
	}
	return rs, nil
}

// abba returns the scenario (0 baseline, 1 hostile) of run k in the
// order A B B A A B B A ...
func abba(k int) int {
	return (k/2 + k%2) % 2
}

// median is the nearest-rank median of ds, the quantile every latency
// figure of the tenant world uses.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return tenantworld.Quantile(s, 0.5)
}

// ResilienceOverhead returns the hostile scenario's median healthy p99
// over the baseline's — the tail-latency tax containment charges the
// innocent tenants. The acceptance bar is 1.25x.
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
	s += fmt.Sprintf("%-10s %8s %10s %10s %10s %8s %8s %8s  %s\n",
		"scenario", "domains", "healthy", "p50", "p99", "shed", "faults", "epochs", "p99 per run")
	for _, r := range rs {
		s += fmt.Sprintf("%-10s %8d %10d %10v %10v %8d %8d %8d  %v\n",
			r.Name, r.Domains, r.HealthyRequests, r.HealthyP50, r.HealthyP99,
			r.Shed, r.HostileFaults, r.HostileEpochs, r.RunP99)
	}
	s += fmt.Sprintf("healthy p99 overhead: %.2fx (median of %d ABBA pairs; bar: 1.25x)\n",
		ResilienceOverhead(rs), resiliencePairs)
	return s
}

// ResilienceRecord is the resilience experiment's BENCH record: each
// scenario's request counts and median healthy quantiles, each run's
// healthy p99 as its own row (name "<scenario>.run<k>", k counting that
// scenario's runs in order), and the overhead of the two medians.
func ResilienceRecord(iters int, rs []ResilienceResult) *Record {
	rec := NewRecord("resilience", map[string]string{
		"iters": strconv.Itoa(iters),
		"pairs": strconv.Itoa(resiliencePairs),
		"order": "ABBA",
	})
	for _, r := range rs {
		runs := len(r.RunP99)
		rec.Add(r.Name, "domains", "count", 1, float64(r.Domains))
		rec.Add(r.Name, "healthy_requests", "count", 1, float64(r.HealthyRequests))
		rec.Add(r.Name, "healthy_p50_ns", "ns", runs, float64(r.HealthyP50.Nanoseconds()))
		rec.Add(r.Name, "healthy_p99_ns", "ns", runs, float64(r.HealthyP99.Nanoseconds()))
		rec.Add(r.Name, "shed", "count", 1, float64(r.Shed))
		rec.Add(r.Name, "hostile_faults", "count", 1, float64(r.HostileFaults))
		rec.Add(r.Name, "hostile_epochs", "count", 1, float64(r.HostileEpochs))
		for k, p99 := range r.RunP99 {
			rec.Add(fmt.Sprintf("%s.run%d", r.Name, k+1), "healthy_p99_ns", "ns", r.HealthyRequests, float64(p99.Nanoseconds()))
		}
	}
	rec.Add("resilience", "healthy_p99_overhead", "ratio", 2*resiliencePairs, ResilienceOverhead(rs))
	return rec
}
