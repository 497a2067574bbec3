// Package resilience is the per-tenant circuit breaker between admission
// and the compartment gates: it turns "this tenant's compartment keeps
// faulting" into "stop letting this tenant's requests reach a gate at
// all", so a hostile or broken tenant degrades gracefully instead of
// burning the recovery budget and the quarantine machinery on every
// request.
//
// Each tenant has a three-state breaker:
//
//	closed ──(fault rate / consecutive faults / budget burn)──▶ open
//	open ──(probe backoff elapsed)──▶ half-open
//	half-open ──(probe succeeds ×N)──▶ closed
//	half-open ──(probe faults)──▶ open (backoff doubled)
//
// While open, Allow refuses the tenant's requests with the typed
// ErrTenantQuarantined — the request is counted as shed and never enters
// a gate. The open→half-open backoff grows exponentially with every trip
// and carries deterministic per-tenant jitter so a fleet of flapping
// tenants does not probe in lockstep. State transitions are returned to
// the caller (for gatetrace instants) and mirrored into the
// pkrusafe_resilience_* metric families.
package resilience

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// State is one breaker position.
type State uint8

const (
	// Closed admits every request (the healthy steady state).
	Closed State = iota
	// Open sheds every request at admission until the probe backoff
	// elapses.
	Open
	// HalfOpen admits a bounded number of probe requests; their outcomes
	// decide between re-opening and closing.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// ErrTenantQuarantined is the typed admission refusal for a tenant whose
// breaker is open. Callers shed the request — count it, answer it with a
// degraded response — without entering any gate.
var ErrTenantQuarantined = errors.New("resilience: tenant circuit open, request shed at admission")

// Breaker thresholds. Only the base probe backoff is configurable
// (Config.ProbeAfter); the rest are fixed.
const (
	// TripFaults is how many consecutive compartment faults open a closed
	// breaker.
	TripFaults = 3
	// Window is the sliding outcome window per tenant.
	Window = 16
	// TripRate is the fault fraction of a full window that opens the
	// breaker even without a consecutive run.
	TripRate = 0.5
	// BurnLimit is the per-tenant recovery-budget burn (the domain
	// quarantines of the tenant's own calls) that opens the breaker.
	BurnLimit = 16
	// DefaultProbeAfter is the base open→half-open backoff when
	// Config.ProbeAfter is zero.
	DefaultProbeAfter = 100 * time.Millisecond
	// ProbeMax caps the exponential backoff.
	ProbeMax = 10 * time.Second
	// ProbeSuccesses is how many half-open probes must succeed in a row to
	// close the breaker.
	ProbeSuccesses = 2
	// JitterFrac is the fraction of the backoff added as deterministic
	// per-(tenant, trip) jitter.
	JitterFrac = 0.25
)

// Config parameterizes a Group. The zero value takes the defaults.
type Config struct {
	ProbeAfter time.Duration // base open→half-open backoff; zero means DefaultProbeAfter

	now func() time.Time // the clock (time.Now when nil); in-package tests inject a fake
}

func (c Config) probeAfter() time.Duration {
	if c.ProbeAfter <= 0 {
		return DefaultProbeAfter
	}
	return c.ProbeAfter
}

func (c Config) clock() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

// Transition is one breaker state change, returned by the recording
// methods so the caller can emit a gatetrace instant for it.
type Transition struct {
	Tenant string
	From   State
	To     State
	Reason string
	Trips  uint64 // total opens of this tenant's breaker so far
}

// Instant renders the transition as a gatetrace instant name, e.g.
// "breaker:open". scripts/tracecheck recognizes this prefix.
func (tr Transition) Instant() string { return "breaker:" + tr.To.String() }

// breaker is one tenant's state machine. All fields are guarded by the
// Group lock.
type breaker struct {
	tenant      string
	state       State
	consecutive int          // consecutive faults while closed
	window      [Window]bool // ring of recent outcomes, true = fault
	windowNext  int
	windowFull  bool
	burn        int // recovery-budget burn while closed

	openUntil  time.Time
	trips      uint64
	shed       uint64
	probes     uint64
	closes     uint64
	inFlight   int // admitted half-open probes awaiting an outcome
	probeGoods int // consecutive half-open successes
}

// TenantState is one breaker in a Snapshot, JSON-ready for
// /tenants.json.
type TenantState struct {
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	Trips  uint64 `json:"trips"`
	Shed   uint64 `json:"shed"`
	Probes uint64 `json:"probes"`
	Burn   int    `json:"burn,omitempty"`
}

// Group manages one breaker per tenant. It is safe for concurrent use. A
// nil *Group admits everything and records nothing, so callers can wire
// it unconditionally.
type Group struct {
	mu       sync.Mutex
	cfg      Config
	breakers map[string]*breaker
	tel      *groupTelemetry
}

type groupTelemetry struct {
	state  *telemetry.GaugeVec
	trips  *telemetry.CounterVec
	shed   *telemetry.CounterVec
	probes *telemetry.CounterVec
	closes *telemetry.CounterVec
}

// NewGroup builds a breaker group.
func NewGroup(cfg Config) *Group {
	return &Group{cfg: cfg, breakers: make(map[string]*breaker)}
}

// SetTelemetry attaches the group to a metrics registry (nil detaches):
// per-tenant state gauge plus trip/shed/probe/close counters.
func (g *Group) SetTelemetry(reg *telemetry.Registry) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if reg == nil {
		g.tel = nil
		return
	}
	g.tel = &groupTelemetry{
		state: reg.GaugeVec("pkrusafe_resilience_state",
			"Breaker state per tenant (0 closed, 1 open, 2 half-open).", "tenant"),
		trips: reg.CounterVec("pkrusafe_resilience_trips_total",
			"Breaker opens per tenant.", "tenant"),
		shed: reg.CounterVec("pkrusafe_resilience_shed_total",
			"Requests shed at admission per tenant while the breaker was open.", "tenant"),
		probes: reg.CounterVec("pkrusafe_resilience_probes_total",
			"Half-open probe requests admitted per tenant.", "tenant"),
		closes: reg.CounterVec("pkrusafe_resilience_closes_total",
			"Breaker closes (recoveries) per tenant.", "tenant"),
	}
}

// breakerLocked returns (lazily creating) the tenant's breaker.
func (g *Group) breakerLocked(tenant string) *breaker {
	b, ok := g.breakers[tenant]
	if !ok {
		b = &breaker{tenant: tenant}
		g.breakers[tenant] = b
	}
	return b
}

// Allow decides admission for one request of the tenant. A closed
// breaker admits; an open breaker sheds with ErrTenantQuarantined until
// the probe backoff elapses, at which point the breaker goes half-open
// and the request is admitted as a probe; a half-open breaker admits
// only as many concurrent probes as it still needs successes. The
// returned transition is non-nil when this call moved the breaker
// (open→half-open).
func (g *Group) Allow(tenant string) (*Transition, error) {
	if g == nil {
		return nil, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.breakerLocked(tenant)
	switch b.state {
	case Closed:
		return nil, nil
	case Open:
		if g.cfg.clock().Before(b.openUntil) {
			b.shed++
			if g.tel != nil {
				g.tel.shed.With(tenant).Inc()
			}
			return nil, fmt.Errorf("%w: %s", ErrTenantQuarantined, tenant)
		}
		tr := g.moveLocked(b, HalfOpen, "probe-backoff-elapsed")
		b.inFlight = 1
		b.probeGoods = 0
		b.probes++
		if g.tel != nil {
			g.tel.probes.With(tenant).Inc()
		}
		return tr, nil
	default: // HalfOpen
		if b.inFlight >= ProbeSuccesses-b.probeGoods {
			b.shed++
			if g.tel != nil {
				g.tel.shed.With(tenant).Inc()
			}
			return nil, fmt.Errorf("%w: %s", ErrTenantQuarantined, tenant)
		}
		b.inFlight++
		b.probes++
		if g.tel != nil {
			g.tel.probes.With(tenant).Inc()
		}
		return nil, nil
	}
}

// RecordSuccess records one successful request outcome for the tenant.
// In half-open it counts toward closing; the returned transition is
// non-nil when the breaker closed.
func (g *Group) RecordSuccess(tenant string) *Transition {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.breakerLocked(tenant)
	b.pushOutcome(false)
	switch b.state {
	case Closed:
		b.consecutive = 0
		return nil
	case HalfOpen:
		if b.inFlight > 0 {
			b.inFlight--
		}
		b.probeGoods++
		if b.probeGoods >= ProbeSuccesses {
			b.consecutive = 0
			b.burn = 0
			b.windowFull = false
			b.windowNext = 0
			b.window = [Window]bool{}
			b.closes++
			if g.tel != nil {
				g.tel.closes.With(tenant).Inc()
			}
			return g.moveLocked(b, Closed, "probes-succeeded")
		}
		return nil
	default: // Open: a late success from a request admitted before the
		// trip changes nothing.
		return nil
	}
}

// RecordFault records one compartment-fault outcome for the tenant. The
// returned transition is non-nil when the breaker opened (or re-opened
// from half-open, with the backoff doubled).
func (g *Group) RecordFault(tenant string) *Transition {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.breakerLocked(tenant)
	b.pushOutcome(true)
	switch b.state {
	case Closed:
		b.consecutive++
		if b.consecutive >= TripFaults {
			return g.tripLocked(b, "consecutive-faults")
		}
		if b.windowFull {
			faults := 0
			for _, f := range b.window {
				if f {
					faults++
				}
			}
			if float64(faults) >= TripRate*Window {
				return g.tripLocked(b, "fault-rate")
			}
		}
		return nil
	case HalfOpen:
		if b.inFlight > 0 {
			b.inFlight--
		}
		return g.tripLocked(b, "probe-faulted")
	default: // Open: a late fault from a request admitted before the trip.
		return nil
	}
}

// RecordBurn charges n recovery actions against the tenant's burn
// budget; crossing the limit opens the breaker even when the fault
// pattern alone would not. The tenant world charges the domain
// quarantines of the tenant's own calls.
func (g *Group) RecordBurn(tenant string, n int) *Transition {
	if g == nil || n <= 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.breakerLocked(tenant)
	if b.state != Closed {
		return nil
	}
	b.burn += n
	if b.burn >= BurnLimit {
		return g.tripLocked(b, "budget-burn")
	}
	return nil
}

// pushOutcome records one outcome in the sliding window.
func (b *breaker) pushOutcome(fault bool) {
	b.window[b.windowNext] = fault
	b.windowNext++
	if b.windowNext == len(b.window) {
		b.windowNext = 0
		b.windowFull = true
	}
}

// tripLocked opens the breaker: the backoff is exponential in the trip
// count with deterministic per-(tenant, trip) jitter, so repeated trips
// back off further and a fleet of flapping tenants never probes in
// lockstep.
func (g *Group) tripLocked(b *breaker, reason string) *Transition {
	b.trips++
	b.consecutive = 0
	b.inFlight = 0
	b.probeGoods = 0
	backoff := g.cfg.probeAfter()
	for i := uint64(1); i < b.trips && backoff < ProbeMax; i++ {
		backoff *= 2
	}
	if backoff > ProbeMax {
		backoff = ProbeMax
	}
	backoff += time.Duration(float64(backoff) * JitterFrac * jitter(b.tenant, b.trips))
	b.openUntil = g.cfg.clock().Add(backoff)
	if g.tel != nil {
		g.tel.trips.With(b.tenant).Inc()
	}
	return g.moveLocked(b, Open, reason)
}

// jitter derives a deterministic fraction in [0, 1) from the tenant name
// and trip count — stable across runs (no global PRNG), distinct across
// tenants.
func jitter(tenant string, trip uint64) float64 {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(trip >> (8 * i))
	}
	h.Write(buf[:])
	return float64(h.Sum32()%1000) / 1000
}

// moveLocked commits a state change and returns the transition.
func (g *Group) moveLocked(b *breaker, to State, reason string) *Transition {
	tr := &Transition{Tenant: b.tenant, From: b.state, To: to, Reason: reason, Trips: b.trips}
	b.state = to
	if g.tel != nil {
		g.tel.state.With(b.tenant).Set(float64(to))
	}
	return tr
}

// State returns the tenant's current breaker state (Closed for a tenant
// never seen, and always Closed on a nil group).
func (g *Group) State(tenant string) State {
	if g == nil {
		return Closed
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.breakers[tenant]
	if !ok {
		return Closed
	}
	return b.state
}

// Shed returns how many of the tenant's requests were refused at
// admission.
func (g *Group) Shed(tenant string) uint64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.breakers[tenant]
	if !ok {
		return 0
	}
	return b.shed
}

// Forget drops the tenant's breaker (tenant churned out).
func (g *Group) Forget(tenant string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.breakers, tenant)
}

// Snapshot returns every tenant's breaker state, sorted by tenant name —
// the view /tenants.json serves.
func (g *Group) Snapshot() []TenantState {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]TenantState, 0, len(g.breakers))
	for _, b := range g.breakers {
		out = append(out, TenantState{
			Tenant: b.tenant,
			State:  b.state.String(),
			Trips:  b.trips,
			Shed:   b.shed,
			Probes: b.probes,
			Burn:   b.burn,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
