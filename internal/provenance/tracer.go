package provenance

import (
	"sync"

	"repro/internal/mpk"
	"repro/internal/profile"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// TracerStats counts profiler activity.
type TracerStats struct {
	RecordedFaults uint64 // PKU faults attributed to a tracked object
	UnknownFaults  uint64 // PKU faults on MT with no tracked object
	ChainedFaults  uint64 // faults handed to the pre-existing handler
}

// Tracer is the dynamic-analysis runtime of §4.3: it resolves faulting
// addresses through the program's live-object shadow store, which the
// compiler-inserted allocation callbacks feed, and services
// SIGSEGV/SIGTRAP during profiling runs.
//
// The fault loop reproduces §4.3.2 exactly: on a protection-key violation
// against the trusted key it looks up the faulting object, records its
// AllocId in the profile, grants temporary full access, arms the trap
// flag, and lets the access retry; the subsequent SIGTRAP restores the
// pre-fault rights so every later untrusted access faults (and is
// recorded) too. Faults that are not MPK violations fall through to any
// previously registered handler.
type Tracer struct {
	mu         sync.Mutex
	shadow     *Shadow
	prof       *profile.Profile
	trustedKey mpk.Key

	// saved pre-fault state per thread context, restored on SIGTRAP.
	saved map[sig.Context]savedState

	prevSegv sig.Handler
	prevTrap sig.Handler
	ring     *trace.Ring

	stats TracerStats

	// telemetry handles (all nil-safe; nil when no registry is attached).
	siteFaults *telemetry.CounterVec // recorded faults by allocation site
	resumeLat  *telemetry.Histogram  // fault record → single-step resume latency
}

// savedState is what onSegv stashes for the matching onTrap: the pre-fault
// rights plus the record→resume span being timed.
type savedState struct {
	pkru uint32
	span telemetry.Span
}

// NewTracer creates a tracer recording into prof, resolving faults on
// trustedKey through shadow.
func NewTracer(prof *profile.Profile, trustedKey mpk.Key, shadow *Shadow) *Tracer {
	return &Tracer{
		shadow:     shadow,
		prof:       prof,
		trustedKey: trustedKey,
		saved:      make(map[sig.Context]savedState),
	}
}

// SetTelemetry attaches the tracer to a metrics registry: recorded faults
// are counted per allocation site, and each record→resume round trip is
// observed into a latency histogram. A nil registry detaches.
func (t *Tracer) SetTelemetry(reg *telemetry.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if reg == nil {
		t.siteFaults, t.resumeLat = nil, nil
		return
	}
	t.siteFaults = reg.CounterVec("pkrusafe_profiler_site_faults_total",
		"PKU faults attributed to a tracked object, by allocation site.", "site")
	t.resumeLat = reg.Histogram("pkrusafe_profiler_resume_latency_ns",
		"Latency from fault recording to the single-step resume restoring rights.", "ns")
}

// Install registers the tracer's handlers on the table, retaining any
// previously registered handlers as fallbacks (§4.3.1: "if any conflicting
// fault handlers were registered before ours, we keep a reference"). Call
// it as late as possible, after the application installs its own handlers.
func (t *Tracer) Install(table *sig.Table) {
	t.prevSegv = table.Register(sig.SIGSEGV, sig.HandlerFunc(t.onSegv))
	t.prevTrap = table.Register(sig.SIGTRAP, sig.HandlerFunc(t.onTrap))
}

// Profile returns the profile the tracer records into.
func (t *Tracer) Profile() *profile.Profile { return t.prof }

// SetTrace attaches an event ring recording fault handling (nil detaches).
func (t *Tracer) SetTrace(r *trace.Ring) { t.ring = r }

// Stats returns a snapshot of profiler counters.
func (t *Tracer) Stats() TracerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

func (t *Tracer) onSegv(info *sig.Info, ctx sig.Context) sig.Action {
	if info.Code != sig.CodePKUErr || mpk.Key(info.PKey) != t.trustedKey {
		// Not an MPK violation against MT: chain to the application's own
		// handler, or decline if there is none.
		t.mu.Lock()
		t.stats.ChainedFaults++
		prev := t.prevSegv
		t.mu.Unlock()
		if prev != nil {
			return prev.Handle(info, ctx)
		}
		return sig.Unhandled
	}
	e, found := t.shadow.Lookup(vm.Addr(info.Addr))
	t.mu.Lock()
	if found {
		t.prof.Add(e.ID, e.Size)
		t.stats.RecordedFaults++
		if t.siteFaults != nil {
			t.siteFaults.With(e.ID.String()).Inc()
		}
		if t.ring != nil {
			t.ring.Emit(trace.Event{Kind: trace.Record, A: uint64(e.Base), Note: e.ID.String()})
		}
	} else {
		t.stats.UnknownFaults++
	}
	if t.ring != nil {
		t.ring.Emit(trace.Event{Kind: trace.Fault, A: info.Addr, B: uint64(info.PKey)})
	}
	t.saved[ctx] = savedState{
		pkru: ctx.PKRU(),
		span: telemetry.StartSpan(t.resumeLat),
	}
	t.mu.Unlock()
	// Temporarily switch back to T and single-step the faulting access.
	ctx.SetPKRU(uint32(mpk.PermitAll))
	ctx.SetTrapFlag(true)
	return sig.Handled
}

func (t *Tracer) onTrap(info *sig.Info, ctx sig.Context) sig.Action {
	t.mu.Lock()
	prev, ok := t.saved[ctx]
	if ok {
		delete(t.saved, ctx)
	}
	prevTrap := t.prevTrap
	t.mu.Unlock()
	if !ok {
		// Not our single-step; chain.
		if prevTrap != nil {
			return prevTrap.Handle(info, ctx)
		}
		return sig.Unhandled
	}
	ctx.SetPKRU(prev.pkru)
	ctx.SetTrapFlag(false)
	prev.span.End()
	if t.ring != nil {
		t.ring.Emit(trace.Event{Kind: trace.Resume, A: info.Addr})
	}
	return sig.Handled
}
