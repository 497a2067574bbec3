// Package tenantworld is the multi-tenant fixture behind `pkru-servo
// -domains` and the resilience experiment (pkru-bench -experiment
// resilience): N logical domains multiplexed onto the hardware key slots,
// each fronted by an untrusted ffi library bound to the tenant's
// compartment, served through supervised domain call gates behind
// per-tenant circuit breakers, with the full observability plane wired
// (metrics registry, event ring, crossing sampler, request tracer).
//
// A World is built once, then driven by the caller: Serve runs one
// request for one tenant on a caller-owned thread, Churn removes and
// re-adds a tenant underneath concurrent requests, and Verdict judges
// whether a hostile tenant's blast radius stayed inside that tenant.
package tenantworld

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/domains"
	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/profstore"
	"repro/internal/resilience"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// ringCap sizes the runtime event ring and retainedCap the gatetrace
// retained-trace ring: enough flagged requests for a useful timeline
// without unbounded memory.
const ringCap, retainedCap = 256, 256

// Config selects the world's shape and workload.
type Config struct {
	// Tenants is the number of logical domains, named tenant000, ….
	Tenants int
	// Policy is the supervisor's compartment fault recovery policy.
	Policy supervise.Policy
	// ProbeAfter is the base open→half-open breaker backoff (0 = the
	// resilience default).
	ProbeAfter time.Duration
	// TailThreshold additionally retains clean request traces at least
	// this slow (0 = flagged traces only).
	TailThreshold time.Duration
	// SampleInterval is the crossing sampler's initial interval.
	SampleInterval int
	// Hostile names the tenant whose requests run the attack payload
	// roster instead of honest work ("" = none).
	Hostile string
	// Fault selects the honest requests that touch the trusted heap from
	// inside their domain: a deliberate compartment fault for the policy
	// to answer.
	Fault workload.FaultSpec
}

// Validate rejects a configuration before any tenant is built.
func (c Config) Validate() error {
	if c.Tenants < 1 {
		return fmt.Errorf("tenantworld: %d tenants, need at least 1", c.Tenants)
	}
	if c.Hostile == "" {
		return nil
	}
	for i := 0; i < c.Tenants; i++ {
		if Name(i) == c.Hostile {
			return nil
		}
	}
	return fmt.Errorf("tenantworld: hostile %s names no tenant (have tenant000..%s)", c.Hostile, Name(c.Tenants-1))
}

// Name is tenant i's domain and library name.
func Name(i int) string { return fmt.Sprintf("tenant%03d", i) }

// Outcome is where one Serve call landed.
type Outcome int

const (
	Skipped Outcome = iota // churn had removed the tenant; nothing counted
	OK                     // completed, possibly after a recovery action
	Dropped                // the recovery policy gave the request up
	Refused                // churn freed the key before gate entry; failed closed
	Shed                   // an open breaker refused it at admission
)

func (o Outcome) String() string {
	return [...]string{"skipped", "ok", "dropped", "refused", "shed"}[o]
}

// World is one built multi-tenant world. Its exported components are
// shared with the caller for observability wiring and reporting.
type World struct {
	Manager  *domains.Manager
	Registry *telemetry.Registry
	Ring     *trace.Ring
	Tracer   *gatetrace.Tracer
	Sampler  *profstore.Sampler
	Breakers *resilience.Group
	// Latency holds every successful request's gate round-trip latency.
	Latency *Recorder

	// Request-path counters, live on Registry. Entries and Dropped read
	// the per-tenant counts at export.
	Entries, Reads, Denied, Leaks, Churned, Dropped, Refused, Shed, Breaches *telemetry.Counter

	cfg      Config
	rt       *ffi.Runtime
	sup      *supervise.Supervisor
	setup    *vm.Thread // trusted: seeds buffers and touches churn victims
	secret   vm.Addr    // trusted word the fault injector and payloads aim at
	names    []string
	payloads []attack.Payload
	// bufs holds each tenant's current buffer, swapped when churn
	// recreates the pool. Requests racing a churn see either address; a
	// stale one simply faults (a denied probe), the safe outcome.
	bufs []atomic.Uint64

	reqSeq atomic.Uint64   // global request sequence
	perSeq []atomic.Uint64 // tenant-local request sequence
	okBy   []atomic.Uint64 // per-tenant OK requests
	dropBy []atomic.Uint64 // per-tenant dropped requests

	breachMu sync.Mutex
	breached []string // payloads that reached their goal, "name (class)"
}

// New builds the world and adds every tenant.
func New(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	space := vm.NewSpace()
	m, err := domains.NewManager(space)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	m.SetTelemetry(reg)
	ring := trace.NewRing(ringCap)
	tracer := gatetrace.New(gatetrace.Config{
		Registry: reg, Capacity: retainedCap, TailThreshold: cfg.TailThreshold})
	m.SetTracing(tracer)

	w := &World{
		Manager: m, Registry: reg, Ring: ring, Tracer: tracer,
		Latency: NewRecorder(),

		Entries:  reg.Counter("pkruservo_domain_entries_total", "Domain requests completed by the tenant workload."),
		Reads:    reg.Counter("pkruservo_domain_reads_total", "In-domain reads of the tenant's own pool that succeeded."),
		Denied:   reg.Counter("pkruservo_domain_denied_total", "Cross-tenant probes correctly denied by the hardware keys."),
		Leaks:    reg.Counter("pkruservo_domain_leaks_total", "Cross-tenant probes that wrongly succeeded (must stay 0)."),
		Churned:  reg.Counter("pkruservo_domain_churn_total", "Tenants removed and re-added while the workload ran."),
		Dropped:  reg.Counter("pkruservo_domain_dropped_total", "Requests the recovery policy could not save."),
		Refused:  reg.Counter("pkruservo_domain_refused_total", "Requests refused at the gate because churn freed the tenant's key mid-flight."),
		Shed:     reg.Counter("pkruservo_domain_shed_total", "Requests shed at admission by an open tenant breaker, never gated."),
		Breaches: reg.Counter("pkruservo_hostile_breach_total", "Hostile payloads that reached their goal (must stay 0)."),

		cfg:      cfg,
		setup:    vm.NewThread(space, nil), // PermitAll
		names:    make([]string, cfg.Tenants),
		bufs:     make([]atomic.Uint64, cfg.Tenants),
		payloads: attack.TenantPayloads(),
		perSeq:   make([]atomic.Uint64, cfg.Tenants),
		okBy:     make([]atomic.Uint64, cfg.Tenants),
		dropBy:   make([]atomic.Uint64, cfg.Tenants),
	}
	w.Entries.Func(sum(w.okBy))
	w.Dropped.Func(sum(w.dropBy))

	// Tenant libraries are untrusted and domain-bound, so every call into
	// one gates through the vkey table with the tenant's rights.
	w.rt = ffi.NewRuntime(ffi.NewRegistry(), m.Allocator(), nil, ffi.GatesOn)
	w.rt.SetTelemetry(reg)
	w.rt.SetTrace(ring)
	w.Sampler = profstore.NewSampler(profstore.SamplerConfig{
		Interval: cfg.SampleInterval, Telemetry: reg, Ring: ring})
	w.rt.SetCrossingSink(w.Sampler)
	w.sup = supervise.New(supervise.Config{Policy: cfg.Policy},
		supervise.Deps{Alloc: m.Allocator(), Ring: ring, Telemetry: reg})
	// The admission-control tier: a tenant whose compartment keeps
	// faulting is shed at its breaker — typed refusal, no gate entry, no
	// recovery budget spent — while every other tenant keeps its
	// throughput.
	w.Breakers = resilience.NewGroup(resilience.Config{ProbeAfter: cfg.ProbeAfter})
	w.Breakers.SetTelemetry(reg)

	if w.secret, err = m.AllocTrusted(64); err != nil {
		return nil, err
	}
	if err := w.setup.Store64(w.secret, 0xfeed); err != nil {
		return nil, err
	}
	for i := range w.names {
		w.names[i] = Name(i)
		// Libraries are defined once: churn rebinds them, because the ffi
		// registry is not safe to mutate under concurrent calls.
		lib, err := w.rt.Registry.Library(w.names[i], ffi.Untrusted)
		if err != nil {
			return nil, err
		}
		lib.Define("work", w.work)
		lib.Define("hostile", w.hostile)
		if err := w.addTenant(i); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// addTenant creates tenant i's domain and its 64-byte buffer holding i,
// and binds the tenant's library to the domain.
func (w *World) addTenant(i int) error {
	d, err := w.Manager.AddDomain(w.names[i])
	if err != nil {
		return err
	}
	buf, err := w.Manager.Alloc(d, 64)
	if err != nil {
		return err
	}
	if err := w.setup.Store64(buf, uint64(i)); err != nil {
		return err
	}
	w.Manager.BindLibrary(w.rt, w.names[i], d)
	w.bufs[i].Store(uint64(buf))
	return nil
}

// work is every tenant library's honest entry point. It runs with the
// tenant's domain rights: its own pool readable, every other tenant's
// pool and the trusted heap denied. args: own buffer, probe address
// (skipped when equal to own), secret address, inject flag.
func (w *World) work(t *ffi.Thread, args []uint64) ([]uint64, error) {
	own, probe, secretAddr, inject := args[0], args[1], args[2], args[3]
	v, err := t.Load64(vm.Addr(own))
	if err == nil {
		w.Reads.Inc()
	}
	if probe != own {
		if _, perr := t.Load64(vm.Addr(probe)); perr != nil {
			w.Denied.Inc()
		} else {
			w.Leaks.Inc()
		}
	}
	if inject != 0 {
		// Deliberate compartment failure: trusted memory from inside the
		// domain. The fault propagates out through the gate (which
		// self-unwinds) to the supervisor's recovery point.
		if _, ferr := t.Load64(vm.Addr(secretAddr)); ferr != nil {
			return nil, ferr
		}
	}
	return []uint64{v}, err
}

// hostile is the entry point a compromised tenant's library runs: one
// attack payload per request, rotated by the tenant-local sequence
// number. Every payload must die with a PKUERR inside the tenant's own
// compartment; one that reaches its goal is an isolation breach. args:
// payload index, secret address, victim address.
func (w *World) hostile(t *ffi.Thread, args []uint64) ([]uint64, error) {
	p := w.payloads[args[0]%uint64(len(w.payloads))]
	breached, err := p.Run(t, attack.PayloadTargets{
		Secret: vm.Addr(args[1]), Victim: vm.Addr(args[2])})
	if err != nil {
		return nil, err
	}
	if breached {
		w.Breaches.Inc()
		w.breachMu.Lock()
		w.breached = append(w.breached, fmt.Sprintf("%s (%s)", p.Name, p.Class))
		w.breachMu.Unlock()
	}
	return []uint64{0}, nil
}

// NewThread returns a request thread with the WRPKRU guard armed: the
// payload roster includes rogue WRPKRUs, and the defense under test must
// be on.
func (w *World) NewThread() *ffi.Thread {
	th := w.rt.NewThread()
	th.VM.SetPKRUGuard(true)
	return th
}

// Serve runs one request for tenant i on th: admission at the tenant's
// breaker, a request-scoped trace bound to th, a supervised gate call
// into the tenant's library, and the breaker record of the outcome. An
// honest request reads the tenant's own buffer and, when probe != i,
// probes tenant probe's buffer, which must be denied. Only OK requests
// record a latency sample: the supervised gate round-trip.
func (w *World) Serve(th *ffi.Thread, i, probe int) Outcome {
	name := w.names[i]
	if _, ok := w.Manager.Domain(name); !ok {
		return Skipped
	}
	seq := int(w.reqSeq.Add(1))
	tseq := int(w.perSeq[i].Add(1))
	if w.cfg.Fault.Tenant != "" {
		seq = tseq // a tenant-scoped spec counts the tenant's own stream
	}
	inject := w.cfg.Fault.Hits(name, seq)

	tc := w.Tracer.Start(name)
	tr, aerr := w.Breakers.Allow(name)
	if aerr != nil {
		w.Shed.Inc()
		tc.Finish()
		return Shed
	}
	w.mark(tc, name, tr)
	th.SetTraceContext(tc)
	w.Tracer.Bind(th.VM, tc)
	start := time.Now()
	var err error
	if name == w.cfg.Hostile {
		err = w.sup.Shield(th, name+".hostile", func() error {
			_, herr := th.Call(name, "hostile",
				uint64(tseq-1), uint64(w.secret), w.bufs[(i+1)%len(w.names)].Load())
			return herr
		})
	} else {
		err = w.sup.Shield(th, name+".work", func() error {
			inj := uint64(0)
			if inject {
				inj, inject = 1, false // fault once; the retry succeeds
			}
			own, probeAddr := w.bufs[i].Load(), w.bufs[probe].Load()
			if probe == i {
				probeAddr = own
			}
			_, werr := th.Call(name, "work", own, probeAddr, uint64(w.secret), inj)
			return werr
		})
	}
	lat := time.Since(start)
	w.Tracer.Unbind(th.VM)
	th.SetTraceContext(nil)
	defer tc.Finish()
	// The domain quarantines this request's own recovery performed burn
	// the tenant's breaker budget. A quarantine always ends the call, so
	// they come back on its CompartmentError.
	var cerr *supervise.CompartmentError
	if errors.As(err, &cerr) {
		burned := 0
		for _, a := range cerr.Actions {
			if a.Action == "quarantine" && a.Domain == name {
				burned++
			}
		}
		w.mark(tc, name, w.Breakers.RecordBurn(name, burned))
	}
	var fault *vm.Fault
	switch {
	case err == nil:
		w.okBy[i].Add(1)
		w.Latency.Record(name, lat)
		w.mark(tc, name, w.Breakers.RecordSuccess(name))
		return OK
	case cerr != nil || errors.As(err, &fault):
		// The policy gave the request up (or, under abort, the injected
		// fault surfaced raw). Dropped, not fatal.
		w.dropBy[i].Add(1)
		w.mark(tc, name, w.Breakers.RecordFault(name))
		return Dropped
	default:
		// Not the tenant's fault: the breaker does not charge it.
		w.Refused.Inc()
		return Refused
	}
}

// sum reads the total of per-tenant counts.
func sum(by []atomic.Uint64) func() uint64 {
	return func() uint64 {
		var n uint64
		for i := range by {
			n += by[i].Load()
		}
		return n
	}
}

// mark publishes a breaker transition: a gatetrace instant on the
// request's trace (flagging it for retention) and the pinning side
// effect. While a breaker is open or half-open probing, the healthy,
// latency-critical tenants keep their hardware slots instead of losing
// them to the probe traffic's activations; closing releases them.
// Pinning is best-effort — a tenant churned away mid-loop just skips.
func (w *World) mark(tc *gatetrace.Context, name string, tr *resilience.Transition) {
	if tr == nil {
		return
	}
	tc.MarkBreaker(tr.To.String(), name, tr.Reason)
	if tr.To != resilience.Open && tr.To != resilience.Closed {
		return
	}
	for _, other := range w.names {
		switch {
		case other == name:
		case tr.To == resilience.Open:
			_ = w.Manager.Pin(other)
		default:
			_ = w.Manager.Unpin(other)
		}
	}
}

// Churn removes tenant i and adds it back, recycling its key slot and
// pool under whatever requests are in flight. It reports false without
// error when the tenant could not be removed (its key has live frames).
func (w *World) Churn(i int) (bool, error) {
	name := w.names[i]
	// Touch the victim first so it holds a hardware slot when removed:
	// removing an active tenant exercises slot recycling and bound-thread
	// revocation rather than just discarding a parked key.
	if d, ok := w.Manager.Domain(name); ok {
		if restore, err := w.Manager.Enter(w.setup, d); err == nil {
			_ = restore()
		}
	}
	if err := w.Manager.RemoveDomain(name); err != nil {
		return false, nil
	}
	if err := w.addTenant(i); err != nil {
		return false, fmt.Errorf("tenant re-add: %w", err)
	}
	w.Churned.Inc()
	return true, nil
}
