package profstore

import (
	"fmt"
	"sync"

	"repro/internal/telemetry"
)

// RolloutSchema versions the /profile/shadow endpoint's JSON view.
const RolloutSchema = 1

// Rollout arm names, used as telemetry label values and Assign results.
const (
	ArmControl = "control"
	ArmShadow  = "shadow"
)

// Rollout states.
const (
	StateIdle       = "idle"
	StateShadowing  = "shadowing"
	StatePromoted   = "promoted"
	StateRolledBack = "rolled_back"
)

// ArmStats aggregates one rollout arm's request outcomes.
type ArmStats struct {
	Requests uint64 `json:"requests"`
	Faults   uint64 `json:"faults"`
}

// FaultRate returns Faults/Requests (zero when no requests ran).
func (a ArmStats) FaultRate() float64 {
	if a.Requests == 0 {
		return 0
	}
	return float64(a.Faults) / float64(a.Requests)
}

// Rollout stages a candidate profile generation: a configurable fraction
// of request workers run under the candidate (the shadow arm) while the
// rest stay on the active generation (the control arm); per-arm fault
// rates decide promotion. Assignment is deterministic — fraction
// accumulation, not randomness — so a rollout is reproducible.
type Rollout struct {
	mu        sync.Mutex
	store     *Store
	frac      float64
	candidate int
	state     string
	n         int // requests assigned so far, for the deterministic split
	arms      map[string]*ArmStats

	mReqs   *telemetry.CounterVec
	mFaults *telemetry.CounterVec
}

// NewRollout builds a rollout over store, shadowing frac (clamped to
// [0,1]) of assigned requests once a candidate is set.
func NewRollout(store *Store, frac float64, reg *telemetry.Registry) *Rollout {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	r := &Rollout{
		store:     store,
		frac:      frac,
		candidate: -1,
		state:     StateIdle,
		arms:      map[string]*ArmStats{ArmControl: {}, ArmShadow: {}},
	}
	if reg != nil {
		r.mReqs = reg.CounterVec("pkrusafe_profile_shadow_requests_total",
			"Requests served during staged profile rollout, by arm.", "arm")
		r.mFaults = reg.CounterVec("pkrusafe_profile_shadow_faults_total",
			"Requests that needed fault recovery during staged rollout, by arm.", "arm")
	}
	return r
}

// SetCandidate arms the rollout with a committed (non-active) generation
// and resets the per-arm accounting.
func (r *Rollout) SetCandidate(seq int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.candidate = seq
	r.state = StateShadowing
	r.n = 0
	r.arms = map[string]*ArmStats{ArmControl: {}, ArmShadow: {}}
}

// Assign deterministically places the next request on an arm: request i
// goes shadow iff the accumulated shadow quota crosses an integer at i.
// Outside the shadowing state every request is control.
func (r *Rollout) Assign() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateShadowing || r.frac <= 0 {
		return ArmControl
	}
	i := r.n
	r.n++
	if int(float64(i+1)*r.frac) > int(float64(i)*r.frac) {
		return ArmShadow
	}
	return ArmControl
}

// Record accounts one served request on an arm; fault marks a request
// that needed recovery (or was dropped).
func (r *Rollout) Record(arm string, fault bool) {
	r.mu.Lock()
	a := r.arms[arm]
	if a == nil {
		a = &ArmStats{}
		r.arms[arm] = a
	}
	a.Requests++
	if fault {
		a.Faults++
	}
	r.mu.Unlock()
	r.mReqs.With(arm).Inc()
	if fault {
		r.mFaults.With(arm).Inc()
	}
}

// Decision is the outcome of one staged rollout.
type Decision struct {
	Promote   bool     `json:"promote"`
	Candidate int      `json:"candidate"`
	Reason    string   `json:"reason"`
	Control   ArmStats `json:"control"`
	Shadow    ArmStats `json:"shadow"`
}

// Decide compares the arms and either promotes the candidate (shadow
// fault rate no worse than control, with at least one shadow request) or
// rolls it back. The store's active generation is updated on promotion.
func (r *Rollout) Decide() (Decision, error) {
	r.mu.Lock()
	if r.state != StateShadowing {
		state := r.state
		r.mu.Unlock()
		return Decision{}, fmt.Errorf("profstore: Decide in state %q (want %q)", state, StateShadowing)
	}
	d := Decision{Candidate: r.candidate, Control: *r.arms[ArmControl], Shadow: *r.arms[ArmShadow]}
	switch {
	case d.Shadow.Requests == 0:
		d.Reason = "no shadow traffic observed"
	case d.Shadow.FaultRate() <= d.Control.FaultRate():
		d.Promote = true
		d.Reason = fmt.Sprintf("shadow fault rate %.2f <= control %.2f over %d/%d request(s)",
			d.Shadow.FaultRate(), d.Control.FaultRate(), d.Shadow.Requests, d.Control.Requests)
	default:
		d.Reason = fmt.Sprintf("shadow fault rate %.2f regressed past control %.2f",
			d.Shadow.FaultRate(), d.Control.FaultRate())
	}
	if d.Promote {
		r.state = StatePromoted
	} else {
		r.state = StateRolledBack
	}
	store, candidate := r.store, r.candidate
	r.mu.Unlock()
	if d.Promote {
		if err := store.Promote(candidate); err != nil {
			return Decision{}, err
		}
	}
	return d, nil
}

// Status is the /profile/shadow endpoint's schema-versioned view.
type Status struct {
	Schema    int      `json:"schema"`
	State     string   `json:"state"`
	Candidate int      `json:"candidate"`
	Active    int      `json:"active"`
	Fraction  float64  `json:"fraction"`
	Control   ArmStats `json:"control"`
	Shadow    ArmStats `json:"shadow"`
}

// Status reports the rollout's current state.
func (r *Rollout) Status() Status {
	active := r.store.ActiveSeq()
	r.mu.Lock()
	defer r.mu.Unlock()
	return Status{
		Schema:    RolloutSchema,
		State:     r.state,
		Candidate: r.candidate,
		Active:    active,
		Fraction:  r.frac,
		Control:   *r.arms[ArmControl],
		Shadow:    *r.arms[ArmShadow],
	}
}
