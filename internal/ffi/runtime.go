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
	// runtime). Gate exits on a runtime with virtualized domains route
	// through it so the caller's compartment is re-derived — re-activating
	// its logical key — instead of replaying saved PKRU bits whose slot
	// grants an eviction may have rebound to another tenant.
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
// boundary, and the gate's enter→restore latency. The profiling plane's
// crossing sampler implements this to attribute boundary crossings to
// allocation sites; the interface lives here so implementations need not
// import ffi. Observations are delivered from the gate's exit path, after
// rights are restored, so a sink may safely inspect trusted state.
type CrossingSink interface {
	ObserveCrossing(lib string, args []uint64, latency time.Duration)
}

// SetCrossingSink attaches a forward-gate observation sink (nil detaches).
// With no sink attached the gated call path pays one pointer test.
func (rt *Runtime) SetCrossingSink(s CrossingSink) { rt.sink = s }

// CrossingSink returns the attached sink, if any.
func (rt *Runtime) CrossingSink() CrossingSink { return rt.sink }

// runtimeTelemetry holds the registry handles the FFI layer reports into.
// A nil *runtimeTelemetry (the default) disables reporting; the gated call
// path then pays one pointer test.
type runtimeTelemetry struct {
	vm      *vm.Metrics
	enterU  *telemetry.Counter      // forward gates: trusted → untrusted
	enterT  *telemetry.Counter      // reverse gates: untrusted → trusted
	gateLat *telemetry.HistogramVec // gate enter→exit latency by target library
}

// SetTelemetry attaches the runtime (and every thread minted afterwards)
// to a metrics registry: gate crossings are counted by direction, each
// gated call's enter→exit latency is observed into a per-library
// histogram, and threads promote their access/fault counters into the
// registry. A nil registry detaches.
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
		gateLat: reg.HistogramVec("pkrusafe_gate_latency_ns",
			"Gated call latency from gate enter to rights restore, by target library.", "ns", "lib"),
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

// Trace returns the attached event ring, if any.
func (rt *Runtime) Trace() *trace.Ring { return rt.ring }

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
// behind are compared against the rights the gate installed. Any
// escalation — the callee (or a handler it suborned) widened its own PKRU
// and the widening survived to the gate — aborts the runtime with
// ErrGateTampered instead of silently resuming trusted code. This
// generalizes the supervisor's write-then-readback check from the one
// recovery path to every gated return. Default off: the baseline gates
// match the paper's stubs, which verify only what they themselves write.
func (rt *Runtime) SetExitAudit(on bool) { rt.exitAudit.Store(on) }

// ExitAudit reports whether the gate-exit PKRU audit is armed.
func (rt *Runtime) ExitAudit() bool { return rt.exitAudit.Load() }

// NewThread mints an execution context starting in the trusted compartment
// with full rights.
func (rt *Runtime) NewThread() *Thread {
	t := &Thread{rt: rt, VM: vm.NewThread(rt.Alloc.Space(), rt.Sigs)}
	if tel := rt.tel; tel != nil {
		t.VM.SetMetrics(tel.vm)
	}
	return t
}

// Thread is one execution context: a simulated CPU, the per-thread
// compartment stack the gates push saved PKRU values onto, and a logical
// trust stack recording whose *code* is currently running. The two differ
// in the gates-off builds: untrusted library code still runs (and still
// allocates from its own heap, MU) even though no rights are dropped —
// exactly as SpiderMonkey keeps using its own malloc in the paper's base
// configuration.
type Thread struct {
	rt    *Runtime
	VM    *vm.Thread
	stack []mpk.PKRU // saved rights, pushed by gates
	trust []Trust    // logical compartment of the running code
	libs  []string   // library whose code is running, parallel to trust
	tc    *gatetrace.Context
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
	if len(t.trust) == 0 {
		return Trusted
	}
	return t.trust[len(t.trust)-1]
}

// InUntrusted reports whether untrusted-library code is currently running.
func (t *Thread) InUntrusted() bool { return t.CurrentTrust() == Untrusted }

// Depth returns the current compartment-stack depth: the number of gate
// traversals live on this thread (always zero with gates off).
func (t *Thread) Depth() int { return len(t.stack) }

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
		var dom *DomainBinding
		if l.Trust == Untrusted {
			target = t.rt.untrustedPKRU
			if b, ok := t.rt.domainBinding(l.Name); ok && b.Table != nil {
				// Cross-domain calls gate even U→U: a different current
				// compartment means a different sandbox, and entering it
				// with the caller's PKRU would merge the two. Only a call
				// that stays within the library's own domain is plain.
				dom = &b
				gated = gated || b.Table.Current(t.VM) != b.Key
			}
		}
		if gated {
			return t.throughGate(l.Name, l.Trust, target, dom, f, args)
		}
	}
	return t.plainCall(l.Name, l.Trust, f, args)
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
	return t.plainCall(l.Name, l.Trust, f, args)
}

// plainCall runs f with the callee's logical trust pushed but no rights
// change. The pop rides a defer so a panicking callee leaves the trust
// stack balanced while the panic propagates.
func (t *Thread) plainCall(libName string, trust Trust, f Func, args []uint64) ([]uint64, error) {
	t.trust = append(t.trust, trust)
	t.libs = append(t.libs, libName)
	defer func() {
		t.trust = t.trust[:len(t.trust)-1]
		t.libs = t.libs[:len(t.libs)-1]
	}()
	return f(t, args)
}

// throughGate performs one gated call: push current rights, install and
// verify the target rights, run, restore. The exit half runs under a
// defer, so the gate unwinds itself — popping its compartment-stack frame
// and restoring the caller's rights — even when the callee panics. That is
// the property the fault supervisor's recovery points build on: by the
// time a panic (or an error return) reaches the trusted frame, every gate
// it crossed has already restored the rights it saved.
//
// A non-nil dom makes this a domain gate: entry binds t.VM to the vkey
// table for eviction-time revocation and activates-and-installs the
// domain's rights atomically with respect to eviction, and the exit half
// re-derives the caller's compartment through vkey.Leave instead of
// replaying the saved PKRU — whose slot grants an eviction may have
// rebound to a different tenant while the callee ran (the Garmr
// stale-PKRU hazard). Plain gates on a runtime with virtualized domains
// re-derive through vkey.Refresh for the same reason; only a runtime with
// no domain bindings replays saved bits, which are then always one of the
// two static compartment values.
func (t *Thread) throughGate(libName string, trust Trust, target mpk.PKRU, dom *DomainBinding, f Func, args []uint64) (res []uint64, err error) {
	var sp telemetry.Span
	if tel := t.rt.tel; tel != nil {
		if trust == Untrusted {
			tel.enterU.Inc()
		} else {
			tel.enterT.Inc()
		}
		sp = telemetry.StartSpan(tel.gateLat.With(libName), t.rt.ring, "gate:"+libName)
	}
	// The request-scoped trace span is attributed to the compartment
	// *domain* — the tenant pool when one is bound, the target library
	// otherwise — because that is the axis slot pressure and per-tenant
	// latency blame live on.
	domainLabel := libName
	if dom != nil && dom.Pool != "" {
		domainLabel = dom.Pool
	}
	endTraceSpan := t.tc.GateSpan(domainLabel)
	// Forward crossings are the profiling plane's signal: what trusted data
	// flowed into U and through which gate. The timestamp is taken before
	// the enter WRPKRU so the reported latency matches the gate-latency
	// histogram's enter→restore span.
	sink := t.rt.sink
	var crossStart time.Time
	if sink != nil && trust == Untrusted {
		crossStart = time.Now()
	} else {
		sink = nil
	}
	prev := t.VM.Rights()
	var enterErr error
	domEntered := false
	if dom != nil {
		if target, enterErr = dom.Table.Enter(t.VM, dom.Key); enterErr == nil {
			domEntered = true
		} else if !errors.Is(enterErr, mpk.ErrRightsAudit) {
			// Activation failed before any rights were written — the key
			// was freed, or no slot could be found. Fail closed without
			// running the callee; nothing was installed, so there are no
			// gate frames to unwind and the runtime stays alive.
			sp.End()
			endTraceSpan()
			t.tc.Instant("gate-refused", domainLabel, enterErr.Error())
			return nil, fmt.Errorf("ffi: entering domain for %s: %w", libName, enterErr)
		}
	}
	t.stack = append(t.stack, prev)
	t.trust = append(t.trust, trust)
	t.libs = append(t.libs, libName)
	if dom == nil {
		enterErr = mpk.InstallAudited(t.VM, target)
	}
	wrpkruDelay(t.rt.gateCost)
	if t.rt.ring != nil {
		t.rt.ring.Emit(trace.Event{Kind: trace.GateEnter, A: uint64(uint32(target))})
	}
	defer func() {
		t.trust = t.trust[:len(t.trust)-1]
		t.libs = t.libs[:len(t.libs)-1]
		t.stack = t.stack[:len(t.stack)-1]
		// The gate-exit audit: before restoring anything, check the rights
		// the callee left behind against the rights this gate installed.
		// An escalation means the compartment widened its own PKRU and the
		// widening survived to the gate — restore would paper over it and
		// trusted code would resume as if the excursion never happened.
		if t.rt.exitAudit.Load() && enterErr == nil && t.VM.Rights().Escalates(target) {
			t.rt.aborted.Store(true)
			if err == nil {
				err = fmt.Errorf("%w: exit audit: callee left %v, gate installed %v",
					ErrGateTampered, t.VM.Rights(), target)
			}
		}
		// The exit half is audited exactly like the entry: restoring the
		// caller's rights without proving the write stuck is the Garmr
		// gate-exit class — trusted code would resume on a poisoned PKRU.
		restored := prev
		var rerr error
		switch {
		case domEntered:
			restored, rerr = dom.Table.Leave(t.VM, prev)
		case t.rt.vtable.Load() != nil:
			restored, rerr = t.rt.vtable.Load().Refresh(t.VM, prev)
		default:
			rerr = mpk.InstallAudited(t.VM, prev)
		}
		if rerr != nil {
			t.rt.aborted.Store(true)
		}
		wrpkruDelay(t.rt.gateCost)
		if t.rt.ring != nil {
			t.rt.ring.Emit(trace.Event{Kind: trace.GateExit, A: uint64(uint32(restored))})
		}
		sp.End()
		endTraceSpan()
		if sink != nil {
			sink.ObserveCrossing(libName, args, time.Since(crossStart))
		}
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

// Checkpoint captures the state a recovery point must restore: the gate
// and trust stack depths at a trusted frame plus the PKRU in force there.
// It is an opaque token minted by Thread.Checkpoint and consumed by
// Thread.Unwind.
type Checkpoint struct {
	gateDepth  int
	trustDepth int
	vDepth     int // vkey compartment-stack depth, when domains are bound
	rights     mpk.PKRU
}

// Rights returns the PKRU value in force when the checkpoint was taken.
func (cp Checkpoint) Rights() mpk.PKRU { return cp.rights }

// Checkpoint records a recovery point at the current frame. Take it in
// trusted code immediately before a supervised cross-compartment call.
func (t *Thread) Checkpoint() Checkpoint {
	cp := Checkpoint{gateDepth: len(t.stack), trustDepth: len(t.trust), rights: t.VM.Rights()}
	if vt := t.rt.vtable.Load(); vt != nil {
		cp.vDepth = vt.Depth(t.VM)
	}
	return cp
}

// Unwind forces the thread back to a checkpointed frame: any gate and
// trust frames pushed since the checkpoint are discarded, the
// checkpointed PKRU is reinstalled through a WRPKRU, and — like a gate's
// own self-check — the installed value is read back and verified. Because
// gates self-unwind on both error returns and panics, the stacks are
// normally already at checkpoint depth and Unwind only has to prove it;
// the truncation is the backstop that makes recovery sound even if an
// untrusted callee corrupted the bookkeeping. A verification failure
// aborts the runtime and returns ErrGateTampered: recovery must never
// resume trusted code with untrusted rights. Unwinding to a checkpoint
// deeper than the current stacks is a caller bug and also errors.
func (t *Thread) Unwind(cp Checkpoint) error {
	if cp.gateDepth > len(t.stack) || cp.trustDepth > len(t.trust) {
		return fmt.Errorf("ffi: unwind to depth %d/%d above current %d/%d",
			cp.gateDepth, cp.trustDepth, len(t.stack), len(t.trust))
	}
	t.stack = t.stack[:cp.gateDepth]
	t.trust = t.trust[:cp.trustDepth]
	if cp.trustDepth <= len(t.libs) {
		t.libs = t.libs[:cp.trustDepth]
	}
	var err error
	if vt := t.rt.vtable.Load(); vt != nil {
		// Discard domain frames pushed since the checkpoint, then restore
		// the checkpointed compartment by re-derivation: any domain frame
		// still live at checkpoint depth is re-activated rather than
		// resurrected from the saved PKRU bits.
		vt.TruncateTo(t.VM, cp.vDepth)
		_, err = vt.Refresh(t.VM, cp.rights)
	} else {
		err = mpk.InstallAudited(t.VM, cp.rights)
	}
	wrpkruDelay(t.rt.gateCost)
	if err != nil {
		t.rt.aborted.Store(true)
		return fmt.Errorf("%w: %v", ErrGateTampered, err)
	}
	if t.rt.ring != nil {
		t.rt.ring.Emit(trace.Event{Kind: trace.Recover, A: uint64(uint32(cp.rights)), Note: "unwind"})
	}
	return nil
}

// CurrentLib returns the library whose code is logically running, or ""
// in the initial trusted frame.
func (t *Thread) CurrentLib() string {
	if len(t.libs) == 0 {
		return ""
	}
	return t.libs[len(t.libs)-1]
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
