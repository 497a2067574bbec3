// Package gatetrace is the request-scoped tracing layer of the PKRU-Safe
// runtime: one Context per request (or per top-level CLI run) collects
// every gate traversal, compartment fault, supervisor recovery action and
// vkey slot eviction that request caused, as timed spans under one trace
// ID and one tenant label.
//
// The aggregate planes — the telemetry registry, the global trace ring,
// the crossing sampler — answer "how expensive are the gates on average".
// They cannot answer the question an operator actually asks: *why was
// this request slow, and what exactly happened to the one that faulted?*
// Garmr's lesson (PAPERS.md) is that the dangerous behaviour lives at the
// gates; libmpk's is that slot pressure is a dynamic property of the
// workload. Both are per-request, per-domain phenomena, so the evidence
// trail must be too.
//
// The layer is tail-based: every finished Context updates the per-domain
// gate-latency and per-tenant request-latency histograms (with exemplar
// trace IDs, so a tail bucket in /metrics names a trace to go look at),
// but only the traces worth reading — those that faulted, recovered,
// suffered an eviction, or ran slower than the configured threshold — are
// retained in full. Retained traces export as Chrome trace_event JSON
// (see export.go) viewable in chrome://tracing or Perfetto.
//
// Every method on a nil *Tracer or nil *Context is a no-op, so the gate
// machinery instruments unconditionally and pays one pointer test when
// tracing is off — the same discipline as package telemetry.
package gatetrace

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpk"
	"repro/internal/telemetry"
)

// Metric family names registered by New. Exported so the obs plane and
// the adaptive controller agree on them without string duplication.
const (
	// GateLatencyMetric is the per-domain gate enter→restore latency
	// histogram (label: domain). Distinct from ffi's per-library family:
	// this one is attributed to the *compartment domain* a traced request
	// crossed into, which is the axis slot pressure and tenant blame live
	// on.
	GateLatencyMetric = "pkrusafe_domain_gate_latency_ns"
	// RequestLatencyMetric is the per-tenant whole-request latency
	// histogram (label: tenant).
	RequestLatencyMetric = "pkrusafe_request_latency_ns"
)

// Config parameterizes New.
type Config struct {
	// Capacity bounds the retained-trace ring (default 64).
	Capacity int
	// TailThreshold, when > 0, additionally retains any trace whose total
	// latency meets it — the "slow but clean" tail. Zero keeps only
	// flagged traces (fault / recovery / eviction).
	TailThreshold time.Duration
	// RetainAll keeps every finished trace (CLI `pkrusafe trace` mode).
	RetainAll bool
	// Registry receives the gate- and request-latency histogram families.
	// Nil disables metrics but not retention.
	Registry *telemetry.Registry
}

// Tracer mints contexts, owns the latency histograms and the retained
// ring, and maps rights registers back to the context currently driving
// them (for eviction attribution). Safe for concurrent use.
type Tracer struct {
	cfg     Config
	epoch   time.Time
	gateLat *telemetry.HistogramVec
	reqLat  *telemetry.HistogramVec
	nextID  atomic.Uint64

	mu       sync.Mutex
	retained []*Trace // ring, oldest overwritten
	next     uint64   // total retained ever
	started  uint64
	finished uint64
	dropped  uint64 // finished but not retained
	binds    map[mpk.RightsRegister]*Context
}

// Span is one timed (or instant) region inside a trace: a gate traversal,
// a recovery action, an eviction, a fault.
type Span struct {
	Name    string        `json:"name"`
	Domain  string        `json:"domain,omitempty"`
	Start   time.Duration `json:"start"` // offset from the context's start
	Dur     time.Duration `json:"dur"`
	Instant bool          `json:"instant,omitempty"`
	Detail  string        `json:"detail,omitempty"`
}

// Trace is one finished, retained request trace.
type Trace struct {
	ID        string        `json:"id"`
	Tenant    string        `json:"tenant"`
	Offset    time.Duration `json:"offset"` // start, relative to tracer epoch
	Total     time.Duration `json:"total"`
	Faulted   bool          `json:"faulted,omitempty"`
	Recovered bool          `json:"recovered,omitempty"`
	Evicted   bool          `json:"evicted,omitempty"`
	Breaker   bool          `json:"breaker,omitempty"` // moved a tenant circuit breaker
	Spans     []Span        `json:"spans"`
}

// Stats is a snapshot of the tracer's retention accounting.
type Stats struct {
	Started  uint64 `json:"started"`
	Finished uint64 `json:"finished"`
	Retained uint64 `json:"retained"`
	Dropped  uint64 `json:"dropped"`
}

// New builds a tracer. Nil-tolerant callers may pass the result around
// unconditionally; a nil *Tracer disables everything.
func New(cfg Config) *Tracer {
	if cfg.Capacity < 1 {
		cfg.Capacity = 64
	}
	t := &Tracer{
		cfg:   cfg,
		epoch: time.Now(),
		binds: make(map[mpk.RightsRegister]*Context),
	}
	if reg := cfg.Registry; reg != nil {
		t.gateLat = reg.HistogramVec(GateLatencyMetric,
			"Gate enter-to-restore latency of traced crossings, by compartment domain.", "ns", "domain")
		t.reqLat = reg.HistogramVec(RequestLatencyMetric,
			"Whole-request latency of traced requests, by tenant.", "ns", "tenant")
	}
	return t
}

// Start opens a request-scoped context under the given tenant label.
// Returns nil on a nil tracer — and every Context method is nil-safe, so
// the caller threads the result through unconditionally.
func (t *Tracer) Start(tenant string) *Context {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.started++
	t.mu.Unlock()
	return &Context{
		tr:     t,
		id:     "t" + strconv.FormatUint(t.nextID.Add(1), 10),
		tenant: tenant,
		start:  time.Now(),
	}
}

// Bind associates a rights register with the context currently driving
// it, so an eviction triggered *by* some other tenant's activation can be
// attributed to the request that *suffered* it. Unbind when the request
// ends (Context.Finish does not know its registers).
func (t *Tracer) Bind(reg mpk.RightsRegister, c *Context) {
	if t == nil || reg == nil {
		return
	}
	t.mu.Lock()
	if c == nil {
		delete(t.binds, reg)
	} else {
		t.binds[reg] = c
	}
	t.mu.Unlock()
}

// Unbind removes a register's context association.
func (t *Tracer) Unbind(reg mpk.RightsRegister) { t.Bind(reg, nil) }

// ContextFor returns the context bound to reg, if any. Nil-safe on both
// sides; used by layers (domains, vkey eviction sink) that see a register
// but not the request that is driving it.
func (t *Tracer) ContextFor(reg mpk.RightsRegister) *Context {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.binds[reg]
}

// ObserveEviction matches vkey.EvictionSink: wire it with
// table.SetEvictionSink(tracer.ObserveEviction). The eviction is recorded
// on the context whose register triggered the activation that evicted the
// victim — that request paid the retag latency and will pay the re-fault,
// so that is the trace the eviction belongs to.
func (t *Tracer) ObserveEviction(trigger mpk.RightsRegister, victim string, slot mpk.Key) {
	t.ContextFor(trigger).MarkEviction(victim, slot)
}

// Retained returns the retained traces, oldest first.
func (t *Tracer) Retained() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.retained))
	start := uint64(0)
	if t.next > n {
		start = t.next - n
	}
	out := make([]*Trace, 0, t.next-start)
	for s := start; s < t.next; s++ {
		out = append(out, t.retained[s%n])
	}
	return out
}

// Stats returns the retention accounting.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{Started: t.started, Finished: t.finished, Retained: t.next, Dropped: t.dropped}
}

// observeGate records one gate traversal's latency into the per-domain
// histogram. The trace ID rides along as the bucket exemplar, so the tail
// buckets of /metrics name retained traces to go read.
func (t *Tracer) observeGate(domain string, dur time.Duration, id string) {
	if t == nil {
		return
	}
	t.gateLat.With(domain).ObserveEx(uint64(dur), id)
}

// finish files a completed context: histograms always, full retention
// only for traces worth reading.
func (t *Tracer) finish(c *Context, total time.Duration) {
	if t == nil {
		return
	}
	t.reqLat.With(c.tenant).ObserveEx(uint64(total), c.id)
	keep := t.cfg.RetainAll || c.faulted || c.recovered || c.evicted || c.breaker ||
		(t.cfg.TailThreshold > 0 && total >= t.cfg.TailThreshold)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished++
	if !keep {
		t.dropped++
		return
	}
	tr := &Trace{
		ID:        c.id,
		Tenant:    c.tenant,
		Offset:    c.start.Sub(t.epoch),
		Total:     total,
		Faulted:   c.faulted,
		Recovered: c.recovered,
		Evicted:   c.evicted,
		Breaker:   c.breaker,
		Spans:     c.spans, // ownership transfers; the context is finished
	}
	if len(t.retained) < t.cfg.Capacity {
		t.retained = append(t.retained, tr)
	} else {
		t.retained[t.next%uint64(len(t.retained))] = tr
	}
	t.next++
}

// Context is one in-flight request trace. All methods are safe on nil and
// safe for concurrent use (a request's gates may run on a worker while
// the supervisor marks recovery from the shield frame).
type Context struct {
	tr     *Tracer
	id     string
	tenant string
	start  time.Time

	mu        sync.Mutex
	spans     []Span
	faulted   bool
	recovered bool
	evicted   bool
	breaker   bool
	done      bool
}

// ID returns the trace ID ("" on nil).
func (c *Context) ID() string {
	if c == nil {
		return ""
	}
	return c.id
}

// Tenant returns the tenant label ("" on nil).
func (c *Context) Tenant() string {
	if c == nil {
		return ""
	}
	return c.tenant
}

// since returns the offset of now from the context's start.
func (c *Context) since() time.Duration { return time.Since(c.start) }

// add appends a span (skipped after Finish: a late gate exit racing the
// request's own completion must not mutate a filed trace).
func (c *Context) add(s Span) {
	c.mu.Lock()
	if !c.done {
		c.spans = append(c.spans, s)
	}
	c.mu.Unlock()
}

// GateSpan opens a timed gate-traversal span into the named domain and
// returns its closer, shaped for the gate's defer-based exit half:
//
//	end := ctx.GateSpan("libu")
//	defer end()
//
// The closer also observes the per-domain gate-latency histogram.
func (c *Context) GateSpan(domain string) func() {
	if c == nil {
		return func() {}
	}
	start := c.since()
	return func() {
		dur := c.since() - start
		c.add(Span{Name: "gate:" + domain, Domain: domain, Start: start, Dur: dur})
		c.tr.observeGate(domain, dur, c.id)
	}
}

// Span opens a generic timed span (request bodies, domain enter/leave
// pairs) and returns its closer.
func (c *Context) Span(name, domain string) func() {
	if c == nil {
		return func() {}
	}
	start := c.since()
	return func() {
		c.add(Span{Name: name, Domain: domain, Start: start, Dur: c.since() - start})
	}
}

// Instant records a zero-duration event.
func (c *Context) Instant(name, domain, detail string) {
	if c == nil {
		return
	}
	c.add(Span{Name: name, Domain: domain, Start: c.since(), Instant: true, Detail: detail})
}

// MarkFault flags the trace as faulted and records the fault instant.
// A faulted trace is always retained.
func (c *Context) MarkFault(detail string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.faulted = true
	c.mu.Unlock()
	c.Instant("fault", "", detail)
}

// MarkRecovery flags the trace as recovered and records the supervisor's
// action ("retry", "quarantine", "heal") with its cause.
func (c *Context) MarkRecovery(action, cause string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.recovered = true
	c.mu.Unlock()
	c.Instant("recover:"+action, "", cause)
}

// MarkBreaker flags the trace as having moved a tenant's circuit
// breaker and records the transition instant, named "breaker:<state>"
// ("breaker:open", "breaker:half-open", "breaker:closed") — the naming
// scripts/tracecheck validates. A breaker-moving trace is always
// retained: the request that tripped (or recovered) a tenant is exactly
// the one an operator wants to read.
func (c *Context) MarkBreaker(toState, tenant, reason string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.breaker = true
	c.mu.Unlock()
	c.Instant("breaker:"+toState, tenant, reason)
}

// MarkEviction flags the trace as having triggered a vkey slot eviction.
func (c *Context) MarkEviction(victim string, slot mpk.Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.evicted = true
	c.mu.Unlock()
	c.Instant("evict:"+victim, victim, "slot="+strconv.Itoa(int(slot)))
}

// Flagged reports whether the trace has hit a retention-forcing event.
func (c *Context) Flagged() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faulted || c.recovered || c.evicted || c.breaker
}

// Finish closes the context: the per-tenant request-latency histogram is
// updated and the trace is retained or dropped per the tracer's policy.
// Finish is idempotent; spans arriving after it are discarded.
func (c *Context) Finish() {
	if c == nil {
		return
	}
	total := c.since()
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	c.done = true
	c.mu.Unlock()
	c.tr.finish(c, total)
}
