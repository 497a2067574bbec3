package tenantworld

import (
	"sort"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/supervise"
)

// Verdict is the containment judgement of a run with a hostile tenant:
// the hostile tenant's breaker must have tripped, only its pool's epoch
// may have bumped (under a quarantining policy), and every healthy
// tenant must have kept a 100% success rate.
type Verdict struct {
	Hostile       string
	Requests      uint64 // hostile requests attempted, shed ones included
	Faulted       uint64 // hostile requests dropped after a gate fault
	Shed          uint64 // hostile requests shed at admission
	Breaker       resilience.State
	Trips         uint64
	HostileEpochs int // quarantine epochs spent on the hostile pool

	HealthyTenants int
	HealthyBumped  int // healthy tenants whose pool was quarantined
	HealthyOK      uint64
	HealthyDropped uint64
	Leaks          uint64
	Breached       []string // payloads that reached their goal

	Contained bool
}

// Verdict judges the run so far. The hostile tenant and a deliberately
// fault-injected tenant are not "healthy": their drops and epoch bumps
// are the experiment, not collateral damage. Without a hostile tenant
// the hostile fields are zero and Contained reports only that healthy
// tenants were unharmed.
//
// Epoch accounting comes from the supervisor's per-domain quarantine
// counters, not the pools' live epochs: churn recycles pools (resetting
// their epoch to zero), which would erase the history the verdict needs.
func (w *World) Verdict() Verdict {
	v := Verdict{Hostile: w.cfg.Hostile, Leaks: w.Leaks.Value()}
	for i, name := range w.names {
		if name == w.cfg.Hostile {
			v.Requests = w.perSeq[i].Load()
			v.Faulted = w.dropBy[i].Load()
			continue
		}
		if name == w.cfg.Fault.Tenant {
			continue
		}
		v.HealthyTenants++
		if w.sup.DomainQuarantines(name) > 0 {
			v.HealthyBumped++
		}
		v.HealthyOK += w.okBy[i].Load()
		v.HealthyDropped += w.dropBy[i].Load()
	}
	w.breachMu.Lock()
	v.Breached = append(v.Breached, w.breached...)
	w.breachMu.Unlock()

	contained := v.HealthyBumped == 0 && v.HealthyDropped == 0 && v.Leaks == 0 && len(v.Breached) == 0
	if v.Hostile != "" {
		v.Shed = w.Breakers.Shed(v.Hostile)
		v.Breaker = w.Breakers.State(v.Hostile)
		for _, ts := range w.Breakers.Snapshot() {
			if ts.Tenant == v.Hostile {
				v.Trips = ts.Trips
			}
		}
		v.HostileEpochs = w.sup.DomainQuarantines(v.Hostile)
		// Abort and retry never quarantine, so only the quarantining
		// policies owe an epoch bump for containment.
		wantEpochs := w.cfg.Policy == supervise.Quarantine || w.cfg.Policy == supervise.Heal
		contained = contained && v.Breaker != resilience.Closed && (!wantEpochs || v.HostileEpochs > 0)
	}
	v.Contained = contained
	return v
}

// Recorder accumulates per-tenant request latencies. Exact samples
// rather than histogram buckets: reports are written once at exit, so
// there is no reason to pay the log2 buckets' quantization in an offline
// artifact. Safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	byTenant map[string][]time.Duration
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{byTenant: make(map[string][]time.Duration)}
}

// Record adds one latency sample for tenant.
func (r *Recorder) Record(tenant string, d time.Duration) {
	r.mu.Lock()
	r.byTenant[tenant] = append(r.byTenant[tenant], d)
	r.mu.Unlock()
}

// Tenants returns the tenants with at least one sample, sorted.
func (r *Recorder) Tenants() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.byTenant))
	for t := range r.byTenant {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Sorted returns the samples of every tenant keep accepts, merged into
// one ascending slice (a copy).
func (r *Recorder) Sorted(keep func(tenant string) bool) []time.Duration {
	r.mu.Lock()
	var out []time.Duration
	for t, samples := range r.byTenant {
		if keep(t) {
			out = append(out, samples...)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Quantile reads the q-quantile from ascending-sorted samples by
// nearest rank; exact for the sample, no interpolation.
func Quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
