package ffi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gatetrace"
	"repro/internal/mpk"
	"repro/internal/pkalloc"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vkey"
	"repro/internal/vm"
)

// GateMode selects how much of PKRU-Safe's instrumentation is active,
// matching the paper's three Servo configurations (§5.3).
type GateMode uint8

const (
	// GatesOff: no call gates; every compartment runs with full rights.
	// Combined with a single-pool allocator this is the "base" config,
	// with the split allocator it is the "alloc" config.
	GatesOff GateMode = iota
	// GatesOn: full call-gate instrumentation (the "mpk" config).
	GatesOn
)

// ErrGateTampered is returned (and the program aborted) when a call gate's
// PKRU verification fails, the simulated analogue of the gate's hardened
// check-and-exit sequence.
var ErrGateTampered = errors.New("ffi: call gate PKRU verification failed")

// ErrAborted is returned for any call after the runtime has aborted.
var ErrAborted = errors.New("ffi: program aborted")

// DefaultGateCost is the default WRPKRU cost in spin iterations (see
// SetGateCost). The value is calibrated so that the Empty micro-benchmark
// lands near the paper's measured call-gate factor: WRPKRU serializes the
// pipeline, costing far more than the call it wraps, and the simulator
// must reproduce that *ratio* even though its baseline call is ~25x more
// expensive than a native one.
const DefaultGateCost = 100

// Runtime binds a registry of libraries to an address space, allocator and
// signal table, and mints threads that can call across the boundary.
type Runtime struct {
	Registry *Registry
	Alloc    *pkalloc.Allocator
	Sigs     *sig.Table

	mode          GateMode
	untrustedPKRU mpk.PKRU
	gateCost      int
	ring          *trace.Ring
	transitions   atomic.Uint64
	aborted       atomic.Bool
	exitAudit     atomic.Bool
	tel           *runtimeTelemetry
	sink          CrossingSink

	domainMu sync.RWMutex
	domains  map[string]DomainBinding // per-library compartment bindings
	nDomains atomic.Int32             // len(domains), read lock-free on the call path
	// vtable is the virtual-key table behind the domain bindings (one per
	// runtime). A gate that leaves or returns to a domain compartment
	// switches through it, so the domain's rights are re-derived —
	// re-activating its logical key — instead of replayed from saved PKRU
	// bits whose slot grants an eviction may have rebound to another tenant.
	vtable atomic.Pointer[vkey.Table]
}

// DomainBinding ties an untrusted library to a virtualized compartment:
// calls into the library gate through the vkey table — binding the
// calling thread for eviction-time revocation and atomically activating
// the domain's logical key and installing its rights — and the library's
// allocations route to the named per-domain pool instead of the shared MU.
type DomainBinding struct {
	// Pool is the pkalloc domain pool the library allocates from; empty
	// keeps the shared MU pool.
	Pool string
	// Table is the virtual-key table multiplexing the domain; every bound
	// library of one runtime must share a single table.
	Table *vkey.Table
	// Key is the domain's logical protection key in Table.
	Key vkey.ID
}

// BindLibraryDomain attaches (or, with a zero binding, detaches) a
// per-library domain binding. Calls into a bound untrusted library always
// gate — even from other untrusted code — because crossing between two
// mutually-distrusting domains needs a rights switch just like crossing
// the T/U boundary.
func (rt *Runtime) BindLibraryDomain(lib string, b DomainBinding) {
	rt.domainMu.Lock()
	defer rt.domainMu.Unlock()
	if rt.domains == nil {
		rt.domains = make(map[string]DomainBinding)
	}
	if b.Pool == "" && b.Table == nil {
		delete(rt.domains, lib)
	} else {
		rt.domains[lib] = b
	}
	if b.Table != nil {
		rt.vtable.Store(b.Table)
	}
	rt.nDomains.Store(int32(len(rt.domains)))
}

// domainBinding returns the binding for lib, if any. The unbound case —
// every run that never calls BindLibraryDomain — is a single atomic
// load, so the two-compartment call path pays nothing for the domains
// feature.
func (rt *Runtime) domainBinding(lib string) (DomainBinding, bool) {
	if rt.nDomains.Load() == 0 {
		return DomainBinding{}, false
	}
	rt.domainMu.RLock()
	defer rt.domainMu.RUnlock()
	b, ok := rt.domains[lib]
	return b, ok
}

// CrossingSink receives one observation per forward (T→U) gate traversal:
// the target library, the argument words the call carried across the
// boundary, and the gate's enter→restore latency — the same duration the
// ring's exit event, the gate-latency histogram and the request trace
// receive. The profiling plane's crossing sampler implements this to
// attribute boundary crossings to allocation sites; the interface lives
// here so implementations need not import ffi. Observations are delivered
// from the gate's exit path, after rights are restored, so a sink may
// safely inspect trusted state.
type CrossingSink interface {
	ObserveCrossing(lib string, args []uint64, latency time.Duration)
}

// SetCrossingSink attaches a forward-gate observation sink (nil detaches).
// With no sink attached the gated call path pays one pointer test.
func (rt *Runtime) SetCrossingSink(s CrossingSink) { rt.sink = s }

// runtimeTelemetry holds the registry handles the FFI layer reports into.
// A nil *runtimeTelemetry (the default) disables reporting; the gated call
// path then pays one pointer test.
type runtimeTelemetry struct {
	vm      *vm.Metrics
	enterU  *telemetry.Counter      // forward gates: trusted → untrusted
	enterT  *telemetry.Counter      // reverse gates: untrusted → trusted
	gateLat *telemetry.HistogramVec // gate enter→restore latency by domain
}

// gateDomain is the compartment domain a library's gates enter — its
// bound pool, else the library itself — with the "gate:<domain>" name of
// their exit records and the domain's gate-latency series, resolved once
// per library, domain and telemetry attachment instead of per gate. Every
// observer attributes a gate to its domain, because that is the axis slot
// pressure and per-tenant latency blame live on.
type gateDomain struct {
	tel  *runtimeTelemetry
	name string // the domain
	note string // "gate:" + name
	lat  *telemetry.Histogram
}

// domainOf returns the domain l's gates enter under binding b.
func (t *Thread) domainOf(l *Library, b DomainBinding) *gateDomain {
	name, tel := l.Name, t.rt.tel
	if b.Pool != "" {
		name = b.Pool
	}
	if d := l.domain.Load(); d != nil && d.tel == tel && d.name == name {
		return d
	}
	d := &gateDomain{tel: tel, name: name, note: "gate:" + name}
	if tel != nil {
		d.lat = tel.gateLat.With(name)
	}
	l.domain.Store(d)
	return d
}

// SetTelemetry attaches the runtime (and every thread minted afterwards)
// to a metrics registry: gate crossings are counted by direction, each
// timed gate's enter→restore latency is observed into its domain's
// gatetrace.GateLatencyMetric series, and threads promote their
// access/fault counters into the registry. A nil registry detaches.
func (rt *Runtime) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		rt.tel = nil
		return
	}
	crossings := reg.CounterVec("pkrusafe_gate_crossings_total",
		"Compartment boundary crossings through call gates, by direction.", "direction")
	rt.tel = &runtimeTelemetry{
		vm:     vm.NewMetrics(reg),
		enterU: crossings.With("enter_untrusted"),
		enterT: crossings.With("enter_trusted"),
		gateLat: reg.HistogramVec(gatetrace.GateLatencyMetric,
			"Gated call latency from gate enter to rights restore, by compartment domain.", "ns", "domain"),
	}
}

// NewRuntime creates a runtime. The untrusted PKRU value denies all access
// to the allocator's trusted key while keeping the default key 0 (MU and
// everything else) accessible.
func NewRuntime(reg *Registry, alloc *pkalloc.Allocator, sigs *sig.Table, mode GateMode) *Runtime {
	if sigs == nil {
		sigs = new(sig.Table)
	}
	return &Runtime{
		Registry:      reg,
		Alloc:         alloc,
		Sigs:          sigs,
		mode:          mode,
		untrustedPKRU: mpk.PermitAll.With(alloc.TrustedKey(), mpk.DenyAll),
		gateCost:      DefaultGateCost,
	}
}

// SetGateCost sets the simulated cost of one WRPKRU in spin iterations
// (each roughly a nanosecond). Each gate traversal executes two WRPKRUs —
// enter and restore — as the paper's assembly stubs do. Zero makes gates
// free, which is useful for ablation benchmarks.
func (rt *Runtime) SetGateCost(n int) {
	if n < 0 {
		n = 0
	}
	rt.gateCost = n
}

// GateCost returns the per-WRPKRU spin count.
func (rt *Runtime) GateCost() int { return rt.gateCost }

// SetTrace attaches an event ring recording gate traversals (nil detaches).
func (rt *Runtime) SetTrace(r *trace.Ring) { rt.ring = r }

// gateSink defeats dead-code elimination of the WRPKRU spin.
var gateSink atomic.Uint64

// wrpkruDelay models the pipeline-serializing cost of a WRPKRU write.
func wrpkruDelay(n int) {
	acc := uint64(1)
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	gateSink.Store(acc)
}

// Mode returns the runtime's gate mode.
func (rt *Runtime) Mode() GateMode { return rt.mode }

// UntrustedPKRU returns the rights value gates install when entering U.
func (rt *Runtime) UntrustedPKRU() mpk.PKRU { return rt.untrustedPKRU }

// Transitions returns the number of compartment boundary crossings
// performed through gates (each forward or reverse gate entry counts one).
func (rt *Runtime) Transitions() uint64 { return rt.transitions.Load() }

// Aborted reports whether a gate detected tampering and killed the program.
func (rt *Runtime) Aborted() bool { return rt.aborted.Load() }

// Abort kills the program: every subsequent cross-library call fails with
// ErrAborted. Gate verification calls this on PKRU mismatch; it is also
// the hook a watchdog would use.
func (rt *Runtime) Abort() { rt.aborted.Store(true) }

// SetExitAudit arms (or disarms) the gate-exit PKRU audit: before a gate's
// exit half restores the caller's rights, the rights the callee left
// behind are compared against the rights the gate installed (for a domain,
// its latest re-derivation, which may sit on a new slot after an
// eviction). Any escalation — the callee (or a handler it suborned)
// widened its own PKRU and the widening survived to the gate — aborts the
// runtime with ErrGateTampered instead of silently resuming trusted code.
// The same comparison guards the other edge: a gate entered from inside a
// gated compartment, such as a callback into trusted code, aborts when the
// caller holds more than the runtime installed for it. This generalizes
// the supervisor's write-then-readback check from the one recovery path
// to every gated return. Default off: the baseline gates match the
// paper's stubs, which verify only what they themselves write.
func (rt *Runtime) SetExitAudit(on bool) { rt.exitAudit.Store(on) }

// NewThread mints an execution context starting in the trusted compartment
// with full rights.
func (rt *Runtime) NewThread() *Thread {
	t := &Thread{rt: rt, VM: vm.NewThread(rt.Alloc.Space(), rt.Sigs)}
	if tel := rt.tel; tel != nil {
		t.VM.SetMetrics(tel.vm)
	}
	return t
}

// Thread is one execution context: a simulated CPU and its compartment
// stack, one gateFrame per library call in progress. The stack records
// whose *code* is running independently of the rights in force; the two
// differ in the gates-off builds, where untrusted library code still runs
// (and still allocates from its own heap, MU) even though no rights are
// dropped — exactly as SpiderMonkey keeps using its own malloc in the
// paper's base configuration. It is the only compartment stack: the vkey
// table keeps just the compartment each register is in now.
type Thread struct {
	rt     *Runtime
	VM     *vm.Thread
	frames []gateFrame // innermost call last
	tc     *gatetrace.Context
	stage  []byte // ReadString/WriteString staging, at most maxStage bytes
}

// gateFrame is one call into a library, plain or gated, popped on every
// return path, panics included. A gated frame records one traversal, and
// every observer of the gate reads its one enter timestamp. A static
// compartment's rights are held by the gate above it, which saves them at
// entry and reinstalls them on exit; a plain call inherits its caller's
// compartment.
type gateFrame struct {
	lib    *Library  // whose code runs: its name and trust
	gates  int       // gated frames up to and including this one
	key    vkey.ID   // domain compartment the code runs in; vkey.Trusted if static
	rights mpk.PKRU  // a gated frame's rights as the runtime last installed them
	enter  time.Time // a timed gate's enter clock read; zero otherwise
}

// SetTraceContext attaches the request-scoped trace context the thread is
// currently executing on behalf of (nil detaches). Every gate traversal
// while the context is attached becomes a timed span on it, so the
// request's trace correlates gate enter/exit with whatever the supervisor
// and the vkey table record in between.
func (t *Thread) SetTraceContext(c *gatetrace.Context) { t.tc = c }

// TraceContext returns the attached trace context, if any.
func (t *Thread) TraceContext() *gatetrace.Context { return t.tc }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// CurrentTrust reports whose code is logically executing (independent of
// gate mode). A fresh thread starts in trusted code.
func (t *Thread) CurrentTrust() Trust {
	if n := len(t.frames); n > 0 {
		return t.frames[n-1].lib.Trust
	}
	return Trusted
}

// InUntrusted reports whether untrusted-library code is currently running.
func (t *Thread) InUntrusted() bool { return t.CurrentTrust() == Untrusted }

// CurrentLib returns the library whose code is logically running, or ""
// in the initial trusted frame.
func (t *Thread) CurrentLib() string {
	if n := len(t.frames); n > 0 {
		return t.frames[n-1].lib.Name
	}
	return ""
}

// Depth returns the number of gate traversals live on this thread (always
// zero with gates off); plain calls on the stack do not count.
func (t *Thread) Depth() int {
	if n := len(t.frames); n > 0 {
		return t.frames[n-1].gates
	}
	return 0
}

// compartment returns the logical key of the domain compartment the
// thread's code runs in, or vkey.Trusted in a static one.
func (t *Thread) compartment() vkey.ID {
	if n := len(t.frames); n > 0 {
		return t.frames[n-1].key
	}
	return vkey.Trusted
}

// Call invokes lib.fn with the gate discipline the annotations imply:
//
//   - calling an untrusted library enters U through a forward gate;
//   - calling a trusted library while in U enters T through a reverse gate
//     (the instrumentation added to address-taken/exported T functions);
//   - all other calls are plain calls.
//
// In GatesOff mode every call is plain (no rights change), matching the
// base/alloc builds, but the logical trust of the callee is still tracked.
func (t *Thread) Call(lib, fn string, args ...uint64) ([]uint64, error) {
	if t.rt.aborted.Load() {
		return nil, ErrAborted
	}
	l, f, err := t.rt.Registry.Lookup(lib, fn)
	if err != nil {
		return nil, err
	}
	// The syscall-filter analogue: untrusted code requesting a trusted
	// entry point must be on the registry's allow-list. Checked before any
	// gate work so a filtered call leaves no partial gate state behind.
	if t.InUntrusted() {
		if ferr := t.rt.Registry.checkFilter(t.CurrentLib(), l, fn); ferr != nil {
			t.tc.Instant("gate-refused", l.Name, ferr.Error())
			return nil, ferr
		}
	}
	if t.rt.mode == GatesOn {
		target := mpk.PermitAll
		gated := l.Trust != t.CurrentTrust()
		var dom DomainBinding
		if l.Trust == Untrusted {
			target = t.rt.untrustedPKRU
			if b, ok := t.rt.domainBinding(l.Name); ok && b.Table != nil {
				// Cross-domain calls gate even U→U: a different current
				// compartment means a different sandbox, and entering it
				// with the caller's PKRU would merge the two. Only a call
				// that stays within the library's own domain is plain.
				dom = b
				gated = gated || t.compartment() != b.Key
			}
		}
		if gated {
			return t.throughGate(l, target, dom, f, args)
		}
	}
	return t.plainCall(l, f, args)
}

// CallNoGate invokes lib.fn without any gate, regardless of annotations.
// It models untrusted code jumping directly to a trusted function that was
// not instrumented: the callee runs with the caller's (untrusted) rights
// and crashes the moment it touches MT (§3.3). Exposed for the security
// evaluation and the interpreter's uninstrumented-callee path.
func (t *Thread) CallNoGate(lib, fn string, args ...uint64) ([]uint64, error) {
	if t.rt.aborted.Load() {
		return nil, ErrAborted
	}
	l, f, err := t.rt.Registry.Lookup(lib, fn)
	if err != nil {
		return nil, err
	}
	return t.plainCall(l, f, args)
}

// plainCall runs f under a frame for l but no rights change. The pop
// rides a defer so a panicking callee leaves the stack balanced while the
// panic propagates.
func (t *Thread) plainCall(l *Library, f Func, args []uint64) ([]uint64, error) {
	t.frames = append(t.frames, gateFrame{lib: l, gates: t.Depth(), key: t.compartment()})
	defer func() { t.frames = t.frames[:len(t.frames)-1] }()
	return f(t, args)
}

// throughGate performs one gated call: install and verify the target
// rights, run, restore the caller's. The exit half runs under a defer, so
// the gate unwinds itself — popping its frame and restoring the caller's
// rights — even when the callee panics. That is the property the fault
// supervisor's recovery points build on: by the time a panic (or an error
// return) reaches the trusted frame, every gate it crossed has already
// restored the rights it saved.
//
// A domain binding with a Table makes this a domain gate: entry binds
// t.VM to the vkey table for eviction-time revocation and
// activates-and-installs the domain's rights atomically with respect to
// eviction. Every exit restores the compartment of the frame below: a
// domain is re-derived through vkey.Leave instead of replaying the saved
// PKRU — whose slot grants an eviction may have rebound to a different
// tenant while the callee ran (the Garmr stale-PKRU hazard) — and a
// static compartment gets the saved rights back, which are then always a
// static value. A reverse gate into trusted code inside a domain therefore
// returns to full rights, and the domain below it is re-derived when the
// trusted code returns.
//
// With a ring attached a traversal makes two records, GateEnter and one
// GateExit, stamped with the gate's own enter and exit clock reads; a
// timed traversal hands the same enter→restore duration to the exit
// record and to every other observer.
func (t *Thread) throughGate(l *Library, target mpk.PKRU, dom DomainBinding, f Func, args []uint64) (res []uint64, err error) {
	prev := t.VM.Rights()
	// The gate-entry audit, the exit audit's other edge: the caller must
	// still hold no more than the runtime last installed for the gate it
	// runs under. Otherwise a callee that widened its own PKRU could carry
	// the widening across a callback, whose gate would save it and
	// reinstall it — or, in a domain, re-derive over it — on its way back.
	if t.rt.exitAudit.Load() {
		if g := t.gatedFrame(); g != nil && prev.Escalates(g.rights) {
			t.rt.aborted.Store(true)
			return nil, fmt.Errorf("%w: entry audit: caller holds %v, runtime installed %v",
				ErrGateTampered, prev, g.rights)
		}
	}
	if tel := t.rt.tel; tel != nil {
		if l.Trust == Untrusted {
			tel.enterU.Inc()
		} else {
			tel.enterT.Inc()
		}
	}
	// Forward crossings alone feed the crossing sink: what trusted data
	// flowed into U and through which gate. The gate is timed — one clock
	// read before the enter WRPKRU — only when someone reads its duration
	// or its timestamps: the ring stamps both records from the gate's reads.
	tc, sink, ring := t.tc, t.rt.sink, t.rt.ring
	if l.Trust != Untrusted {
		sink = nil
	}
	timed := t.rt.tel != nil || tc != nil || sink != nil || ring != nil
	var gd *gateDomain
	if timed {
		gd = t.domainOf(l, dom)
	}
	fr := gateFrame{lib: l, gates: t.Depth() + 1}
	if timed {
		fr.enter = time.Now()
	}
	// The table switches the register whenever a domain compartment is
	// entered, left or returned to; gates between static compartments
	// never touch it.
	below, tab := t.compartment(), dom.Table
	if tab == nil && below != vkey.Trusted {
		tab = t.rt.vtable.Load()
	}
	var enterErr error
	switch {
	case dom.Table != nil:
		if target, _, enterErr = dom.Table.Enter(t.VM, dom.Key); enterErr == nil {
			fr.key = dom.Key
		} else if !errors.Is(enterErr, mpk.ErrRightsAudit) {
			// Activation failed before any rights were written — the key
			// was freed, or no slot could be found. Fail closed without
			// running the callee; nothing was installed, so there is no
			// frame to unwind and the runtime stays alive.
			t.observeGate(&fr, gd, fr.elapsed(), tc, nil, nil)
			if tc != nil {
				tc.Instant("gate-refused", gd.name, enterErr.Error())
			}
			return nil, fmt.Errorf("ffi: entering domain for %s: %w", l.Name, enterErr)
		}
	case tab != nil:
		// Leaving a domain for a static compartment: the register stops
		// counting as inside the key, whose frame below stays live.
		_, enterErr = tab.Leave(t.VM, vkey.Trusted, vkey.Trusted, target)
	default:
		enterErr = mpk.InstallAudited(t.VM, target)
	}
	fr.rights = target
	t.frames = append(t.frames, fr)
	wrpkruDelay(t.rt.gateCost)
	if ring != nil {
		ring.EmitAt(trace.Event{Kind: trace.GateEnter, A: uint64(uint32(target))}, fr.enter)
	}
	defer func() {
		top := t.frames[len(t.frames)-1]
		t.frames = t.frames[:len(t.frames)-1]
		// The gate-exit audit: before restoring anything, check the rights
		// the callee left behind against the rights the runtime last
		// installed for this frame — the gate's own at entry, or a domain's
		// re-derivation when a nested gate returned into it. An escalation
		// means the compartment widened its own PKRU and the widening
		// survived to the gate — restore would paper over it and trusted
		// code would resume as if the excursion never happened.
		if t.rt.exitAudit.Load() && enterErr == nil && t.VM.Rights().Escalates(top.rights) {
			t.rt.aborted.Store(true)
			if err == nil {
				err = fmt.Errorf("%w: exit audit: callee left %v, runtime installed %v",
					ErrGateTampered, t.VM.Rights(), top.rights)
			}
		}
		// The exit half is audited exactly like the entry: restoring the
		// caller's rights without proving the write stuck is the Garmr
		// gate-exit class — trusted code would resume on a poisoned PKRU.
		restored := prev
		var rerr error
		if tab != nil {
			restored, rerr = tab.Leave(t.VM, top.key, below, prev)
		} else {
			rerr = mpk.InstallAudited(t.VM, prev)
		}
		if rerr != nil {
			t.rt.aborted.Store(true)
		} else if below != vkey.Trusted {
			t.gatedFrame().rights = restored
		}
		wrpkruDelay(t.rt.gateCost)
		// The exit clock read precedes the ring's record, so every
		// observer gets the enter→restore duration and the record's
		// offset from GateEnter's is that duration.
		dur := top.elapsed()
		if ring != nil {
			ring.EmitAt(trace.Event{Kind: trace.GateExit, A: uint64(uint32(restored)), B: uint64(dur), Note: gd.note}, top.enter.Add(dur))
		}
		t.observeGate(&top, gd, dur, tc, sink, args)
	}()
	// The gate's self-check: the PKRU we installed must be the one the gate
	// was compiled to enforce. On real hardware this defeats whole-function
	// reuse of gates under CFI; here it guards against runtime tampering.
	if enterErr != nil {
		t.rt.aborted.Store(true)
		return nil, fmt.Errorf("%w: %v", ErrGateTampered, enterErr)
	}
	t.rt.transitions.Add(1)
	return f(t, args)
}

// gatedFrame returns the nearest gated frame, whose gate holds the
// compartment the thread's code runs in, or nil when no gate is live.
// Its rights are the ones the runtime last installed for that
// compartment: an eviction while a nested gate ran may have re-derived
// a domain onto another slot.
func (t *Thread) gatedFrame() *gateFrame {
	for i := len(t.frames) - 1; i >= 0; i-- {
		below := 0
		if i > 0 {
			below = t.frames[i-1].gates
		}
		if t.frames[i].gates > below {
			return &t.frames[i]
		}
	}
	return nil
}

// elapsed is a timed gate's exit clock read: the enter→now duration every
// observer of the gate gets. An untimed gate reads no clock and reports 0.
func (fr *gateFrame) elapsed() time.Duration {
	if fr.enter.IsZero() {
		return 0
	}
	return time.Since(fr.enter)
}

// observeGate gives every observer of a finished timed gate its one
// duration: the domain's latency series, with the trace ID as exemplar
// when a request is traced, the request trace and the crossing sink.
func (t *Thread) observeGate(fr *gateFrame, gd *gateDomain, dur time.Duration, tc *gatetrace.Context, sink CrossingSink, args []uint64) {
	if fr.enter.IsZero() {
		return
	}
	gd.lat.ObserveEx(uint64(dur), tc.ID())
	tc.Gate(gd.note, fr.enter, dur)
	if sink != nil {
		sink.ObserveCrossing(fr.lib.Name, args, dur)
	}
}

// Checkpoint captures the state a recovery point must restore: the
// compartment-stack depth at a trusted frame plus the PKRU in force
// there. It is an opaque token minted by Thread.Checkpoint and consumed
// by Thread.Unwind.
type Checkpoint struct {
	depth  int // frames on the thread's compartment stack
	rights mpk.PKRU
}

// Rights returns the PKRU value in force when the checkpoint was taken.
func (cp Checkpoint) Rights() mpk.PKRU { return cp.rights }

// Checkpoint records a recovery point at the current frame. Take it in
// trusted code immediately before a supervised cross-compartment call.
func (t *Thread) Checkpoint() Checkpoint {
	return Checkpoint{depth: len(t.frames), rights: t.VM.Rights()}
}

// Unwind forces the thread back to a checkpointed frame: any frames
// pushed since the checkpoint are discarded (a domain frame among them
// releases its logical key), the checkpointed frame's compartment is
// reinstalled through a WRPKRU — a domain re-derived, a static
// compartment given the checkpointed PKRU — and, like a gate's own
// self-check, the installed value is read back and verified. Because gates self-unwind on
// both error returns and panics, the stack is normally already at
// checkpoint depth and Unwind only has to prove it; the truncation is the
// backstop that makes recovery sound even if an untrusted callee
// corrupted the bookkeeping. A verification failure aborts the runtime
// and returns ErrGateTampered: recovery must never resume trusted code
// with untrusted rights. Unwinding to a checkpoint deeper than the
// current stack is a caller bug and also errors.
func (t *Thread) Unwind(cp Checkpoint) error {
	if cp.depth > len(t.frames) {
		return fmt.Errorf("ffi: unwind to depth %d above current %d", cp.depth, len(t.frames))
	}
	to := vkey.Trusted
	if cp.depth > 0 {
		to = t.frames[cp.depth-1].key
	}
	var installed mpk.PKRU
	var err error
	if tab := t.rt.vtable.Load(); tab != nil {
		// Each discarded domain gate frame releases its key, so no key
		// stays busy for a frame that is gone; every switch lands in the
		// checkpointed compartment.
		for i := len(t.frames) - 1; i >= cp.depth && err == nil; i-- {
			if fr := t.frames[i]; fr.key != vkey.Trusted && (i == 0 || fr.gates > t.frames[i-1].gates) {
				_, err = tab.Leave(t.VM, fr.key, to, cp.rights)
			}
		}
		if err == nil {
			installed, err = tab.Leave(t.VM, vkey.Trusted, to, cp.rights)
		}
	} else {
		err = mpk.InstallAudited(t.VM, cp.rights)
	}
	t.frames = t.frames[:cp.depth]
	wrpkruDelay(t.rt.gateCost)
	if err != nil {
		t.rt.aborted.Store(true)
		return fmt.Errorf("%w: %v", ErrGateTampered, err)
	}
	if to != vkey.Trusted {
		t.gatedFrame().rights = installed
	}
	if t.rt.ring != nil {
		t.rt.ring.Emit(trace.Event{Kind: trace.Recover, A: uint64(uint32(cp.rights)), Note: "unwind"})
	}
	return nil
}

// Malloc allocates from the pool appropriate to the running code's
// compartment: untrusted code gets MU (libc malloc) — or its library's
// private domain pool when one is bound — and trusted code gets MT.
func (t *Thread) Malloc(size uint64) (vm.Addr, error) {
	if t.InUntrusted() {
		if lib := t.CurrentLib(); lib != "" {
			if b, ok := t.rt.domainBinding(lib); ok && b.Pool != "" {
				return t.rt.Alloc.DomainAlloc(b.Pool, size)
			}
		}
		return t.rt.Alloc.UntrustedAlloc(size)
	}
	return t.rt.Alloc.Alloc(size)
}

// Free releases an allocation from whichever pool owns it.
func (t *Thread) Free(addr vm.Addr) error { return t.rt.Alloc.Free(addr) }

// accessError is a failed checked access: the op that failed and the
// *vm.Fault it raised. Denied accesses are routine — every cross-tenant
// probe ends in one — and most are never printed, so the text is built
// only when Error is called.
type accessError struct {
	op  string
	err error
}

func (e *accessError) Error() string { return "ffi: " + e.op + ": " + e.err.Error() }

func (e *accessError) Unwrap() error { return e.err }

// callErr names op on a checked access's error; nil stays nil.
func callErr(op string, err error) error {
	if err == nil {
		return nil
	}
	return &accessError{op: op, err: err}
}

// Load64 reads a word through the thread's checked view of memory.
func (t *Thread) Load64(addr vm.Addr) (uint64, error) {
	v, err := t.VM.Load64(addr)
	return v, callErr("load64", err)
}

// Store64 writes a word through the thread's checked view of memory.
func (t *Thread) Store64(addr vm.Addr, v uint64) error {
	return callErr("store64", t.VM.Store64(addr, v))
}

// Load8 reads a byte through the thread's checked view of memory.
func (t *Thread) Load8(addr vm.Addr) (byte, error) {
	v, err := t.VM.Load8(addr)
	return v, callErr("load8", err)
}

// Store8 writes a byte through the thread's checked view of memory.
func (t *Thread) Store8(addr vm.Addr, v byte) error {
	return callErr("store8", t.VM.Store8(addr, v))
}

// ReadBytes reads n bytes at addr through the checked view.
func (t *Thread) ReadBytes(addr vm.Addr, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := t.VM.Read(addr, buf); err != nil {
		return nil, callErr("read", err)
	}
	return buf, nil
}

// WriteBytes writes buf at addr through the checked view.
func (t *Thread) WriteBytes(addr vm.Addr, buf []byte) error {
	return callErr("write", t.VM.Write(addr, buf))
}

// maxStage bounds the staging buffer a thread keeps. The strings calls
// stage are names, attribute values and short texts; a longer one, such
// as a script source staged once per load, crosses through a buffer of
// its own that is not kept.
const maxStage = 256

// staged returns an n-byte buffer for one string crossing: the thread's
// reusable staging buffer when n fits maxStage.
func (t *Thread) staged(n int) []byte {
	if n > maxStage {
		return make([]byte, n)
	}
	if cap(t.stage) < n {
		t.stage = make([]byte, min(max(n, 2*cap(t.stage)), maxStage))
	}
	return t.stage[:n]
}

// ReadString reads n bytes at addr through the checked view as a string,
// staged through the thread's reusable buffer: the string is the one Go
// allocation.
func (t *Thread) ReadString(addr vm.Addr, n int) (string, error) {
	if n < 0 {
		return "", fmt.Errorf("ffi: read: negative length %d", n)
	}
	buf := t.staged(n)
	if err := t.VM.Read(addr, buf); err != nil {
		return "", callErr("read", err)
	}
	return string(buf), nil
}

// WriteString writes s at addr through the checked view, staged through
// the thread's reusable buffer.
func (t *Thread) WriteString(addr vm.Addr, s string) error {
	buf := t.staged(len(s))
	copy(buf, s)
	return callErr("write", t.VM.Write(addr, buf))
}
