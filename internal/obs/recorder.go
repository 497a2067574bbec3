package obs

import (
	"errors"
	"sync"

	"repro/internal/mpk"
	"repro/internal/provenance"
	"repro/internal/sig"
	"repro/internal/trace"
	"repro/internal/vm"
)

// pageRadius is how many pages on each side of the faulting address the
// report's pkey ownership map covers.
const pageRadius = 2

// ThreadState lets the recorder ask a running thread whose code is
// logically executing. It is implemented by package core's thread adapter
// so obs never imports the FFI layer.
type ThreadState interface {
	// CompartmentName returns "trusted" or "untrusted".
	CompartmentName() string
	// GateDepth returns the number of live gate traversals on the thread.
	GateDepth() int
}

// Config parameterizes NewRecorder.
type Config struct {
	// Space is the address space faults are resolved against (required).
	Space *vm.Space
	// TrustedKey is the protection key tagging the MT pool.
	TrustedKey mpk.Key
	// BuildConfig names the run's configuration for the report header.
	BuildConfig string
	// Ring, when non-nil, supplies the report's trace tail.
	Ring *trace.Ring
	// Shadow is the program's allocation shadow store, which names the
	// object a fault lands in.
	Shadow *provenance.Shadow
}

// faultState is what the signal handler captures while the faulting
// thread's gate stack is still intact — by the time the *vm.Fault error
// propagates out of the run, the gates have already unwound.
type faultState struct {
	info        sig.Info
	compartment string
	gateDepth   int
	known       bool
}

// Recorder is the fault forensics engine: it observes every SIGSEGV
// delivery through a chaining handler and renders it, with the object the
// program's allocation shadow store places at the faulting address, into
// a Report when a run dies. All methods are nil-safe so callers instrument
// unconditionally; a nil *Recorder costs nothing.
type Recorder struct {
	space      *vm.Space
	trustedKey mpk.Key
	config     string
	ring       *trace.Ring
	shadow     *provenance.Shadow

	mu       sync.Mutex
	threads  map[sig.Context]ThreadState
	prevSegv sig.Handler
	last     faultState
	haveLast bool
}

// NewRecorder creates a recorder for one program instance.
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{
		space:      cfg.Space,
		trustedKey: cfg.TrustedKey,
		config:     cfg.BuildConfig,
		ring:       cfg.Ring,
		shadow:     cfg.Shadow,
		threads:    make(map[sig.Context]ThreadState),
	}
}

// Install registers the recorder's SIGSEGV observer on the table,
// chaining to any previously installed handler. The observer is passive:
// it snapshots fault context and always defers the verdict, so fault
// semantics are unchanged. Install it before any repairing handler (the
// profiling tracer): handlers registered later dispatch first, so faults
// the tracer repairs never reach the recorder — only faults nothing
// claims, the ones about to kill the run.
func (r *Recorder) Install(table *sig.Table) {
	if r == nil {
		return
	}
	r.prevSegv = table.Register(sig.SIGSEGV, sig.HandlerFunc(r.onSegv))
}

// BindThread associates a fault-delivery context (the vm thread) with its
// compartment view so reports can say whose code was running.
func (r *Recorder) BindThread(ctx sig.Context, st ThreadState) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.threads[ctx] = st
	r.mu.Unlock()
}

// onSegv snapshots the fault context and defers to the previous handler
// (or declines), leaving delivery semantics untouched.
func (r *Recorder) onSegv(info *sig.Info, ctx sig.Context) sig.Action {
	r.mu.Lock()
	r.last = faultState{info: *info}
	if st := r.threads[ctx]; st != nil {
		r.last.compartment = st.CompartmentName()
		r.last.gateDepth = st.GateDepth()
		r.last.known = true
	}
	r.haveLast = true
	prev := r.prevSegv
	r.mu.Unlock()
	if prev != nil {
		return prev.Handle(info, ctx)
	}
	return sig.Unhandled
}

// Capture builds a crash report from the error a run died with. It
// reports ok=false when err does not carry a *vm.Fault (the run did not
// die on a memory fault) or the recorder is nil.
func (r *Recorder) Capture(err error) (rep *Report, ok bool) {
	if r == nil || err == nil {
		return nil, false
	}
	var f *vm.Fault
	if !errors.As(err, &f) {
		return nil, false
	}

	rep = &Report{
		Schema: ReportSchema,
		Config: r.config,
		Error:  err.Error(),
		Fault: FaultInfo{
			Signal: f.Info.Sig.String(),
			Code:   codeName(f.Info),
			Addr:   hexAddr(f.Info.Addr),
			Access: f.Info.Access.String(),
			PKey:   f.Info.PKey,
		},
		PKRU: decodePKRU(f.PKRU),
	}

	r.mu.Lock()
	if r.haveLast && r.last.info == f.Info {
		rep.Compartment = CompartmentInfo{
			Known:     r.last.known,
			Name:      r.last.compartment,
			GateDepth: r.last.gateDepth,
		}
	}
	r.mu.Unlock()
	if e, found := r.shadow.Lookup(vm.Addr(f.Info.Addr)); found {
		rep.Provenance = ProvenanceInfo{
			Found:  true,
			Site:   e.ID.String(),
			Base:   hexAddr(uint64(e.Base)),
			Size:   e.Size,
			Offset: f.Info.Addr - uint64(e.Base),
		}
	}
	rep.Provenance.LiveObjects = r.shadow.Len()

	if r.space != nil {
		for _, p := range r.space.PageMapAround(vm.Addr(f.Info.Addr), pageRadius) {
			rep.Pages = append(rep.Pages, PageInfo{
				Base:     hexAddr(uint64(p.Base)),
				Faulting: p.Base == vm.Addr(f.Info.Addr).PageBase(),
				Reserved: p.Reserved,
				Resident: p.Resident,
				PKey:     uint8(p.PKey),
				Region:   p.Region,
			})
		}
		for _, reg := range r.space.Regions() {
			rep.Regions = append(rep.Regions, RegionInfo{
				Name: reg.Name,
				Base: hexAddr(uint64(reg.Base)),
				Size: reg.Size,
				PKey: uint8(reg.PKey),
			})
		}
	}

	if r.ring != nil {
		events, dropped := r.ring.SnapshotDropped()
		rep.Trace = traceInfo(events, dropped)
	}
	return rep, true
}

// codeName renders the siginfo code the way strsignal-adjacent tooling
// prints it.
func codeName(info sig.Info) string {
	if info.Sig != sig.SIGSEGV {
		return ""
	}
	switch info.Code {
	case sig.CodeMapErr:
		return "SEGV_MAPERR"
	case sig.CodeAccErr:
		return "SEGV_ACCERR"
	case sig.CodePKUErr:
		return "SEGV_PKUERR"
	}
	return "SEGV_UNKNOWN"
}

// decodePKRU expands a raw PKRU value into per-key AD/WD bits.
func decodePKRU(p mpk.PKRU) PKRUInfo {
	info := PKRUInfo{Value: hexAddr(uint64(uint32(p)))}
	for k := mpk.Key(0); k < mpk.NumKeys; k++ {
		rights := p.Rights(k)
		info.Keys = append(info.Keys, KeyRights{
			Key:    uint8(k),
			AD:     rights&mpk.AccessDisable != 0,
			WD:     rights&mpk.WriteDisable != 0,
			Rights: rights.String(),
		})
	}
	return info
}
