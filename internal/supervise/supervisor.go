package supervise

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/ffi"
	"repro/internal/obs"
	"repro/internal/pkalloc"
	"repro/internal/profile"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Deps are the collaborators a Supervisor recovers through.
type Deps struct {
	// Alloc is the program's split allocator (required for Quarantine and
	// Heal: pool reset and trusted-region ownership checks).
	Alloc *pkalloc.Allocator
	// Recorder is the forensics shadow store. Heal needs it to resolve a
	// fault address to the allocation site to migrate, and to attach the
	// would-have-been crash report to the recovery event.
	Recorder *obs.Recorder
	// Ring, when non-nil, receives Recover/Heal trace events.
	Ring *trace.Ring
	// Telemetry, when non-nil, registers the recovery metric families.
	Telemetry *telemetry.Registry
}

// Event is one recovery action the supervisor took, kept in order for
// reports and tests. Averted, when non-nil, is the crash report the run
// would have died with had the policy been Abort.
type Event struct {
	Seq     int    `json:"seq"`
	Policy  string `json:"policy"`
	Action  string `json:"action"` // "retry", "quarantine" or "heal"
	Call    string `json:"call"`
	Attempt int    `json:"attempt"`
	Cause   string `json:"cause"`
	Site    string `json:"site,omitempty"` // healed allocation site
	// Domain labels the pool a quarantine epoch belongs to: the tenant
	// whose pool was scrubbed, or "" for the global MU tier. Without it
	// the bare epoch number is ambiguous across pools.
	Domain  string      `json:"domain,omitempty"`
	Epoch   uint64      `json:"epoch,omitempty"` // pool epoch after a quarantine
	Averted *obs.Report `json:"averted,omitempty"`
}

// Supervisor applies one recovery policy to supervised calls. It is safe
// for concurrent use by many threads; a nil *Supervisor is a no-op
// pass-through so callers can wire it unconditionally.
type Supervisor struct {
	cfg   Config
	alloc *pkalloc.Allocator
	rec   *obs.Recorder
	ring  *trace.Ring
	tel   *supTelemetry

	mu         sync.Mutex
	healed     map[profile.AllocID]bool
	delta      *profile.Profile
	events     []Event
	budgetLeft int
	domainQuar map[string]int // per-domain quarantine counts, for escalation
}

type supTelemetry struct {
	attempts    *telemetry.Counter
	outcomes    *telemetry.CounterVec
	actions     *telemetry.CounterVec
	healedSites *telemetry.Counter
	quarantines *telemetry.CounterVec
}

// New builds a supervisor. A Config with the Abort policy yields nil: no
// recovery point is installed and supervised calls are plain calls.
func New(cfg Config, deps Deps) *Supervisor {
	if cfg.Policy == Abort {
		return nil
	}
	s := &Supervisor{
		cfg:        cfg,
		alloc:      deps.Alloc,
		rec:        deps.Recorder,
		ring:       deps.Ring,
		healed:     make(map[profile.AllocID]bool),
		delta:      profile.New(),
		budgetLeft: Budget,
		domainQuar: make(map[string]int),
	}
	if reg := deps.Telemetry; reg != nil {
		s.tel = &supTelemetry{
			attempts: reg.Counter("pkrusafe_recovery_attempts_total",
				"Supervised call bodies executed (first attempts plus re-executions)."),
			outcomes: reg.CounterVec("pkrusafe_recovery_outcomes_total",
				"Supervised calls by terminal outcome.", "outcome"),
			actions: reg.CounterVec("pkrusafe_recovery_actions_total",
				"Recovery actions taken, by kind.", "action"),
			healedSites: reg.Counter("pkrusafe_recovery_healed_sites_total",
				"Distinct allocation sites migrated MT to MU by healing."),
			quarantines: reg.CounterVec("pkrusafe_recovery_quarantines_total",
				"Pool quarantines performed, by domain (\"mu\" is the global tier).", "domain"),
		}
	}
	return s
}

// Policy returns the configured policy (Abort for a nil supervisor).
func (s *Supervisor) Policy() Policy {
	if s == nil {
		return Abort
	}
	return s.cfg.Policy
}

// Call invokes lib.fn through t under supervision: a recovery point at
// the current (trusted) frame, policy-driven recovery on failure.
func (s *Supervisor) Call(t *ffi.Thread, lib, fn string, args ...uint64) ([]uint64, error) {
	if s == nil {
		return t.Call(lib, fn, args...)
	}
	var res []uint64
	err := s.Shield(t, lib+"."+fn, func() error {
		var e error
		res, e = t.Call(lib, fn, args...)
		return e
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Shield runs body under a recovery point on t. label names the protected
// work in events and errors (pkru-servo uses one Shield per request). The
// body may be re-executed by the Retry and Heal policies, so it must be
// safe to run again after an unwind — a cross-compartment call is.
func (s *Supervisor) Shield(t *ffi.Thread, label string, body func() error) error {
	if s == nil {
		return body()
	}
	cp := t.Checkpoint()
	for attempt := 1; ; attempt++ {
		if tel := s.tel; tel != nil {
			tel.attempts.Inc()
		}
		err := runProtected(body)
		if err == nil {
			if attempt > 1 {
				s.noteOutcome(OutcomeRecovered)
			}
			return nil
		}
		// Gate tampering and runtime aborts are deliberate kills, not
		// compartment failures; never recover across them.
		if errors.Is(err, ffi.ErrGateTampered) || errors.Is(err, ffi.ErrAborted) {
			return err
		}
		// Only compartment failures — memory faults and callee panics —
		// are recoverable events. An ordinary error returned by the callee
		// is part of its API and propagates unchanged.
		if !isCompartmentFailure(err) {
			return err
		}
		// The request-scoped trace is the forensic record an operator will
		// read: the fault and the recovery action that answered it land on
		// the same trace the gate spans are already on, and a faulted
		// trace is always retained. The fault is formatted only when
		// there is a trace to record it on.
		tc := t.TraceContext()
		if tc != nil {
			tc.MarkFault(err.Error())
		}
		// Unwind to the recovery point: truncate anything left on the
		// thread's frame stack and re-verify PKRU before trusted code
		// continues. Gates self-unwind on both error returns and panics,
		// so this normally only proves the state; a verification failure
		// is terminal.
		if uerr := t.Unwind(cp); uerr != nil {
			return uerr
		}
		// Post-unwind backstop: Unwind verified the write it performed, but
		// if the rights now in force still escalate the checkpoint's — a
		// compartment excursion survived re-derivation, meaning the
		// bookkeeping itself was suborned — recovery must not resume
		// trusted code on them. This generalizes the gates'
		// write-then-readback to the whole recovery path.
		if t.VM.Rights().Escalates(cp.Rights()) {
			t.Runtime().Abort()
			return fmt.Errorf("%w: post-unwind rights %v escalate checkpoint %v",
				ffi.ErrGateTampered, t.VM.Rights(), cp.Rights())
		}
		// The faulting domain is resolved from the request's trace context:
		// its tenant label is the domain the gates of this request entered,
		// so a Quarantine policy can scrub that tenant's pool alone instead
		// of every tenant's heap. A label that names no domain pool (the
		// legacy two-compartment workload, or an unattributable fault)
		// falls back to the global MU tier inside quarantine().
		before := s.eventCount()
		done, terr := s.recoverOnce(label, tc.Tenant(), err, attempt)
		if ev, ok := s.lastEventSince(before); ok {
			tc.MarkRecovery(ev.Action, ev.Cause)
		}
		if done {
			return terr
		}
	}
}

// eventCount returns the current length of the recovery log.
func (s *Supervisor) eventCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// lastEventSince returns the newest recovery event if any were noted
// after the log held n entries.
func (s *Supervisor) lastEventSince(n int) (Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) <= n {
		return Event{}, false
	}
	return s.events[len(s.events)-1], true
}

// isCompartmentFailure reports whether err is the kind of failure
// supervision exists for: an unhandled memory fault or a recovered panic.
func isCompartmentFailure(err error) bool {
	var f *vm.Fault
	var pe *PanicError
	return errors.As(err, &f) || errors.As(err, &pe)
}

// runProtected executes body, converting a panic into a *PanicError so an
// untrusted Func crashing mid-call travels the same recovery path as a
// fault.
func runProtected(body func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v}
		}
	}()
	return body()
}

// recoverOnce applies one round of the policy to a failed attempt.
// domain is the tenant the failure was attributed to ("" when none). It
// returns done=true with the terminal error when the call must fail, or
// done=false when the caller should re-execute the body.
func (s *Supervisor) recoverOnce(label, domain string, cause error, attempt int) (done bool, terr error) {
	if !s.takeBudget() {
		return true, s.terminal(label, domain, OutcomeBudgetExceeded, attempt, cause)
	}
	switch s.cfg.Policy {
	case Retry:
		if attempt > MaxRetries {
			return true, s.terminal(label, domain, OutcomeRetriesExceeded, attempt, cause)
		}
		s.note(Event{Action: "retry", Call: label, Attempt: attempt, Cause: cause.Error(), Domain: domain})
		return false, nil

	case Quarantine:
		if qerr := s.quarantine(label, domain, attempt, cause); qerr != nil {
			return true, s.terminal(label, domain, OutcomeQuarantined, attempt, qerr)
		}
		return true, s.terminal(label, domain, OutcomeQuarantined, attempt, cause)

	case Heal:
		entry, rep, ok := s.resolveSite(cause)
		if !ok {
			// Nothing to heal (panic, MAPERR, untracked or non-MT
			// address): scrub the faulting tenant's pool (or MU) anyway so
			// whatever the failing callee left behind cannot poison later
			// requests, and fail the call.
			_ = s.quarantine(label, domain, attempt, cause)
			return true, s.terminal(label, domain, OutcomeUnhealable, attempt, cause)
		}
		if attempt > MaxRetries {
			return true, s.terminal(label, domain, OutcomeRetriesExceeded, attempt, cause)
		}
		if herr := s.healSite(entry, rep, label, attempt, cause); herr != nil {
			return true, s.terminal(label, domain, OutcomeHealFailed, attempt, herr)
		}
		return false, nil

	default:
		return true, cause
	}
}

// quarantine scrubs the blast radius of a compartment failure. When the
// failure is attributed to a domain with its own pool, only that pool is
// reset (per-tenant epoch bump) — one hostile tenant's fault must not
// invalidate its neighbours' heaps. A failure with no attributable pool
// lands on the global tier: the shared MU pool, the original
// whole-untrusted-world quarantine. A domain that keeps getting
// quarantined escalates to the global tier too (every EscalateAfter-th
// quarantine of it).
func (s *Supervisor) quarantine(label, domain string, attempt int, cause error) error {
	if s.alloc == nil {
		return fmt.Errorf("supervise: no allocator to quarantine: %w", cause)
	}
	if domain != "" {
		epoch, qerr := s.alloc.QuarantineDomain(domain)
		switch {
		case qerr == nil:
			s.mu.Lock()
			s.domainQuar[domain]++
			n := s.domainQuar[domain]
			s.mu.Unlock()
			s.note(Event{Action: "quarantine", Call: label, Attempt: attempt,
				Cause: cause.Error(), Domain: domain, Epoch: epoch})
			if s.ring != nil {
				s.ring.Emit(trace.Event{Kind: trace.Recover, A: epoch, Note: "quarantine:" + domain})
			}
			if tel := s.tel; tel != nil {
				tel.quarantines.With(domain).Inc()
			}
			if n%EscalateAfter == 0 {
				return s.quarantineGlobal(label, attempt, cause, "escalated:"+domain)
			}
			return nil
		case errors.Is(qerr, pkalloc.ErrNoDomainPool):
			// No pool by that name: fall through to the global tier.
		default:
			return qerr
		}
	}
	return s.quarantineGlobal(label, attempt, cause, "quarantine")
}

// quarantineGlobal resets the shared MU pool — the escalation tier, and
// the only tier for failures no domain pool claims.
func (s *Supervisor) quarantineGlobal(label string, attempt int, cause error, note string) error {
	if qerr := s.alloc.QuarantineUntrusted(); qerr != nil {
		return qerr
	}
	epoch := s.alloc.UntrustedEpoch()
	s.note(Event{Action: "quarantine", Call: label, Attempt: attempt, Cause: cause.Error(), Epoch: epoch})
	if s.ring != nil {
		s.ring.Emit(trace.Event{Kind: trace.Recover, A: epoch, Note: note})
	}
	if tel := s.tel; tel != nil {
		tel.quarantines.With("mu").Inc()
	}
	return nil
}

// DomainQuarantines returns how many times the named domain's pool has
// been quarantined by this supervisor (not the pool epoch: a pool
// quarantined by another supervisor, or before this one was built,
// counts only there).
func (s *Supervisor) DomainQuarantines(domain string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.domainQuar[domain]
}

// resolveSite decides whether cause is a healable fault: a PKUERR on the
// trusted key whose address the provenance shadow maps to a live MT
// allocation. It also captures the crash report the run would have died
// with, before healing mutates the page keys the report renders.
func (s *Supervisor) resolveSite(cause error) (entry sEntry, rep *obs.Report, ok bool) {
	var f *vm.Fault
	if !errors.As(cause, &f) {
		return sEntry{}, nil, false
	}
	if f.Info.Sig != sig.SIGSEGV || f.Info.Code != sig.CodePKUErr {
		return sEntry{}, nil, false
	}
	if s.alloc == nil || s.rec == nil {
		return sEntry{}, nil, false
	}
	if f.Info.PKey != uint8(s.alloc.TrustedKey()) {
		return sEntry{}, nil, false
	}
	e, found := s.rec.Lookup(f.Info.Addr)
	if !found || !s.alloc.TrustedRegion().Contains(e.Base) {
		return sEntry{}, nil, false
	}
	rep, _ = s.rec.Capture(cause)
	return sEntry{base: e.Base, size: e.Size, id: e.ID}, rep, true
}

// sEntry is the slice of provenance.Entry the supervisor needs; a local
// type keeps the obs/provenance split out of the public API.
type sEntry struct {
	base vm.Addr
	size uint64
	id   profile.AllocID
}

// healSite migrates one misclassified object MT→MU in place: the pages
// spanning [base, base+size) are retagged to the shared key 0 through
// vm.Space.SetPageKey — page-level only, so pkalloc's region ownership is
// untouched and the object's address stays valid for the retried call —
// and the site is marked untrusted so future allocations from it draw
// from MU (core.Program.AllocAt consults Healed). Healing is page
// granular, like the enforcement itself (§3.4): trusted objects sharing a
// page with the healed one become reachable from U, the same exposure a
// profiler-driven rewrite of that site would have produced one run later.
func (s *Supervisor) healSite(e sEntry, rep *obs.Report, label string, attempt int, cause error) error {
	lo := e.base.PageBase()
	hi := (e.base + vm.Addr(e.size) + vm.PageMask).PageBase()
	if hi == lo {
		hi = lo + vm.PageSize
	}
	if err := s.alloc.Space().SetPageKey(lo, uint64(hi-lo), 0); err != nil {
		return err
	}
	s.mu.Lock()
	first := !s.healed[e.id]
	s.healed[e.id] = true
	if first {
		s.delta.Add(e.id, e.size)
	}
	s.mu.Unlock()
	s.note(Event{Action: "heal", Call: label, Attempt: attempt, Cause: cause.Error(),
		Site: e.id.String(), Averted: rep})
	if s.ring != nil {
		s.ring.Emit(trace.Event{Kind: trace.Heal, A: uint64(e.base), Note: e.id.String()})
	}
	if tel := s.tel; tel != nil && first {
		tel.healedSites.Inc()
	}
	return nil
}

// Healed reports whether the site has been migrated MT→MU by healing.
// Safe on a nil supervisor.
func (s *Supervisor) Healed(id profile.AllocID) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healed[id]
}

// Delta returns the healed sites as a profile delta — exactly the entries
// a profiling re-run would have added. Merging it into the applied
// profile and persisting removes the need to heal on the next run.
func (s *Supervisor) Delta() *profile.Profile {
	out := profile.New()
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out.Merge(s.delta)
	return out
}

// Events returns the recovery log in order.
func (s *Supervisor) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Averted returns the crash reports attached to heal events: the
// forensics of runs that would have died under the Abort policy.
func (s *Supervisor) Averted() []*obs.Report {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*obs.Report
	for _, e := range s.events {
		if e.Averted != nil {
			out = append(out, e.Averted)
		}
	}
	return out
}

func (s *Supervisor) takeBudget() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budgetLeft <= 0 {
		return false
	}
	s.budgetLeft--
	return true
}

func (s *Supervisor) note(e Event) {
	s.mu.Lock()
	e.Seq = len(s.events) + 1
	e.Policy = s.cfg.Policy.String()
	s.events = append(s.events, e)
	s.mu.Unlock()
	if tel := s.tel; tel != nil {
		tel.actions.With(e.Action).Inc()
	}
}

func (s *Supervisor) noteOutcome(outcome string) {
	if tel := s.tel; tel != nil {
		tel.outcomes.With(outcome).Inc()
	}
}

func (s *Supervisor) terminal(label, domain, outcome string, attempts int, cause error) error {
	s.noteOutcome(outcome)
	return &CompartmentError{Call: label, Domain: domain, Policy: s.cfg.Policy,
		Outcome: outcome, Attempts: attempts, Err: cause}
}
