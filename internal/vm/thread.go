package vm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/mpk"
	"repro/internal/sig"
	"repro/internal/telemetry"
)

// Fault is the error produced when a data access cannot be completed and no
// signal handler repairs the condition — the simulated equivalent of the
// process dying on an unhandled SIGSEGV.
type Fault struct {
	Info sig.Info // the siginfo that was (or would have been) delivered
	PKRU mpk.PKRU // thread rights at the time of the fault
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vm: unhandled %s (pkru=%#08x)", f.Info.String(), uint32(f.PKRU))
}

// Stats counts the memory events a thread has performed. All fields are
// monotone counters.
type Stats struct {
	Loads     uint64 // completed load accesses
	Stores    uint64 // completed store accesses
	PKUFaults uint64 // SIGSEGV deliveries with SEGV_PKUERR
	MapFaults uint64 // SIGSEGV deliveries with SEGV_MAPERR
	Traps     uint64 // SIGTRAP deliveries (single-step completions)
	WRPKRU    uint64 // writes to the PKRU register

	// FaultRetries counts accesses re-executed after a handler reported
	// sig.Handled. A retry is not a new fault: one access repaired and
	// re-run on the first attempt contributes one PKU/map fault and one
	// retry. Values approaching MaxFaultRetries per access indicate a
	// handler that claims repairs without changing the rights.
	FaultRetries uint64

	// RoguePKRU counts PKRU writes the WRPKRU guard suppressed: attempts
	// to widen rights from outside a privileged gate bracket (see
	// SetPKRUGuard).
	RoguePKRU uint64
	// SigClamped counts signal returns whose restored PKRU the sanitizer
	// clamped back to the dispatch-time rights (see SetSigPolicy).
	SigClamped uint64
	// Migrations counts CPU-context restores (see RestoreContext).
	Migrations uint64
}

// Thread is a simulated CPU context: the PKRU register, the trap flag used
// for single-stepping, and the signal table faults are delivered through.
// A Thread is owned by one goroutine at a time; its counters may be read
// concurrently.
type Thread struct {
	space *Space
	sigs  *sig.Table

	pkru atomic.Uint32
	trap atomic.Bool

	loads        atomic.Uint64
	stores       atomic.Uint64
	pkuFaults    atomic.Uint64
	mapFaults    atomic.Uint64
	traps        atomic.Uint64
	wrpkru       atomic.Uint64
	faultRetries atomic.Uint64
	roguePKRU    atomic.Uint64
	sigClamped   atomic.Uint64
	migrations   atomic.Uint64

	// Hardening state (see harden.go). guard and privileged implement the
	// WRPKRU guard; sigPolicy selects the signal-frame sanitizer; the
	// grant fields carry the profiling covenant between a SEGV grant and
	// its single-step retirement; revalidate audits migration restores.
	guard         atomic.Bool
	privileged    atomic.Int32
	endPrivileged func()
	sigPolicy     atomic.Int32
	grantArmed    bool
	grantBase     uint32
	revalidate    func(saved mpk.PKRU) (mpk.PKRU, error)

	// published is set once PublishTo has attached the counters above.
	published atomic.Bool

	// cache is the thread's translation cache (see tlb). staleKeys, when
	// non-nil, plants the InjectStaleTranslation bug.
	cache     [threadTLBSize]tlbEntry
	staleKeys *[threadTLBSize]mpk.Key
}

// NewThread creates a thread on the given address space. The signal table
// may be shared between threads (process-wide dispositions) and may be nil,
// in which case every fault is fatal. The initial PKRU permits everything.
func NewThread(space *Space, sigs *sig.Table) *Thread {
	if sigs == nil {
		sigs = new(sig.Table)
	}
	t := &Thread{space: space, sigs: sigs}
	t.endPrivileged = func() { t.privileged.Add(-1) }
	return t
}

// Space returns the address space the thread executes against.
func (t *Thread) Space() *Space { return t.space }

// PKRU returns the current rights register as a raw 32-bit value,
// implementing sig.Context (and RDPKRU).
func (t *Thread) PKRU() uint32 { return t.pkru.Load() }

// SetPKRU writes the rights register (WRPKRU), implementing sig.Context.
// With the WRPKRU guard armed (SetPKRUGuard), a write that widens rights
// from outside a privileged gate bracket is suppressed and counted — the
// rogue-WRPKRU defense Garmr requires of every PKU sandbox.
func (t *Thread) SetPKRU(v uint32) {
	if t.guard.Load() && t.privileged.Load() == 0 && mpk.PKRU(v).Escalates(t.Rights()) {
		t.roguePKRU.Add(1)
		return
	}
	t.pkru.Store(v)
	t.wrpkru.Add(1)
}

// Rights returns the rights register as an mpk.PKRU value.
func (t *Thread) Rights() mpk.PKRU { return mpk.PKRU(t.pkru.Load()) }

// SetRights writes the rights register from an mpk.PKRU value.
func (t *Thread) SetRights(p mpk.PKRU) { t.SetPKRU(uint32(p)) }

// TrapFlag reports whether the single-step trap flag is set, implementing
// sig.Context.
func (t *Thread) TrapFlag() bool { return t.trap.Load() }

// SetTrapFlag arms or disarms single-stepping, implementing sig.Context.
func (t *Thread) SetTrapFlag(v bool) { t.trap.Store(v) }

// Stats returns a snapshot of the thread's event counters.
func (t *Thread) Stats() Stats {
	return Stats{
		Loads:        t.loads.Load(),
		Stores:       t.stores.Load(),
		PKUFaults:    t.pkuFaults.Load(),
		MapFaults:    t.mapFaults.Load(),
		Traps:        t.traps.Load(),
		WRPKRU:       t.wrpkru.Load(),
		FaultRetries: t.faultRetries.Load(),
		RoguePKRU:    t.roguePKRU.Load(),
		SigClamped:   t.sigClamped.Load(),
		Migrations:   t.migrations.Load(),
	}
}

// PublishTo attaches the thread's event counters to the pkrusafe_vm_*
// counter families on reg, which read them at export time; the access
// and fault paths push nothing into the registry. A thread publishes
// once: later calls are no-ops, so no count is reported twice. Each
// family reports the sum over every thread published to it.
func (t *Thread) PublishTo(reg *telemetry.Registry) {
	if reg == nil || !t.published.CompareAndSwap(false, true) {
		return
	}
	reg.Counter("pkrusafe_vm_loads_total", "Completed load accesses.").Func(t.loads.Load)
	reg.Counter("pkrusafe_vm_stores_total", "Completed store accesses.").Func(t.stores.Load)
	reg.Counter("pkrusafe_vm_pku_faults_total", "SIGSEGV deliveries with SEGV_PKUERR.").Func(t.pkuFaults.Load)
	reg.Counter("pkrusafe_vm_map_faults_total", "SIGSEGV deliveries with SEGV_MAPERR.").Func(t.mapFaults.Load)
	reg.Counter("pkrusafe_vm_traps_total", "SIGTRAP deliveries (single-step completions).").Func(t.traps.Load)
	reg.Counter("pkrusafe_vm_wrpkru_total", "Writes to the PKRU register.").Func(t.wrpkru.Load)
	reg.Counter("pkrusafe_vm_fault_retries_total",
		"Accesses re-executed after a signal handler repaired a fault.").Func(t.faultRetries.Load)
	reg.Counter("pkrusafe_vm_rogue_pkru_total",
		"PKRU writes suppressed by the WRPKRU guard (widening outside a gate).").Func(t.roguePKRU.Load)
	reg.Counter("pkrusafe_vm_sig_clamped_total",
		"Signal returns whose restored PKRU was clamped by the sanitizer.").Func(t.sigClamped.Load)
	reg.Counter("pkrusafe_vm_migrations_total",
		"CPU-context restores (scheduler migrations).").Func(t.migrations.Load)
}

// MaxFaultRetries bounds how many times a single access may fault, be
// reported sig.Handled, and be re-executed before the access is abandoned
// with a terminal *Fault. It guards against livelock under a handler that
// claims to repair a fault without actually changing the rights or the
// mapping: after MaxFaultRetries fruitless repairs the final siginfo is
// surfaced as if no handler existed. A genuinely repairing handler (the
// profiling tracer's grant-step-restore loop) needs exactly one retry per
// fault, so the bound is far above anything a correct handler reaches.
// Retries are counted in Stats.FaultRetries and exported through
// telemetry as pkrusafe_vm_fault_retries_total.
const MaxFaultRetries = 8

// access performs one checked data access of len(buf) bytes at addr,
// faulting per page exactly as the MMU would.
func (t *Thread) access(addr Addr, buf []byte, kind sig.AccessKind) error {
	for off := 0; off < len(buf); {
		a := addr + Addr(off)
		p, err := t.checkPage(a, kind)
		if err != nil {
			return err
		}
		po := int(uint64(a) & PageMask)
		off += copyChunk(p, po, buf[off:], kind == sig.AccessWrite)
	}
	if kind == sig.AccessWrite {
		t.stores.Add(1)
	} else {
		t.loads.Add(1)
	}
	// Single-step: with the trap flag armed, raise SIGTRAP once the access
	// retires so the profiler can restore the pre-fault rights (§4.3.2).
	if t.trap.Load() {
		t.traps.Add(1)
		f := &Fault{Info: sig.Info{Sig: sig.SIGTRAP, Addr: uint64(addr), Access: kind}}
		entry := t.Rights()
		if t.sigs.Dispatch(&f.Info, t) == sig.Unhandled {
			t.trap.Store(false)
			f.PKRU = t.Rights()
			return f
		}
		t.sigreturn(entry, true)
	}
	return nil
}

// checkPage resolves the page for a, delivering SIGSEGV and retrying while
// a handler repairs the condition. The common no-fault case is decided
// here, through the thread's translation cache and against the page's
// current key, without constructing a sig.Info — that struct is passed to
// handlers by pointer and therefore heap-escapes, which would cost an
// allocation on every access.
func (t *Thread) checkPage(a Addr, kind sig.AccessKind) (*page, error) {
	if t.staleKeys == nil {
		if p := tlb(t.cache[:]).lookup(t.space, a); p != nil && t.allowed(p.key(), kind) {
			return p, nil
		}
	}
	return t.checkPageSlow(a, kind)
}

// InjectStaleTranslation plants (or clears) the stale-translation bug: the
// translation cache keeps the key each page had when its entry was
// filled and judges every hit by it, so a retag is missed until the entry
// is displaced — a revoked page stays reachable and a granted one keeps
// faulting. Exists solely so the conformance oracle can prove it catches
// this class; never set in production paths. Call it while the thread is
// idle.
func (t *Thread) InjectStaleTranslation(on bool) {
	t.cache = [threadTLBSize]tlbEntry{}
	t.staleKeys = nil
	if on {
		t.staleKeys = new([threadTLBSize]mpk.Key)
	}
}

// translate resolves a for the fault path: the resident page, or nil if
// a is unmapped, and the key to judge the access by.
func (t *Thread) translate(a Addr) (*page, mpk.Key) {
	if t.staleKeys != nil {
		return t.translateStale(a)
	}
	p := t.space.pageAt(a)
	if p == nil {
		return nil, 0
	}
	return p, p.key()
}

// translateStale is translate with InjectStaleTranslation planted.
func (t *Thread) translateStale(a Addr) (*page, mpk.Key) {
	vpn := a.PageIndex()
	i := tlb(t.cache[:]).index(vpn)
	if e := t.cache[i]; e.vpn == vpn && e.p != nil {
		return e.p, t.staleKeys[i]
	}
	p := t.space.pageAt(a)
	if p == nil {
		return nil, 0
	}
	t.cache[i], t.staleKeys[i] = tlbEntry{vpn: vpn, p: p}, p.key()
	return p, t.staleKeys[i]
}

// checkPageSlow is the fault path. Each delivery allocates one *Fault and
// hands handlers its Info, so the siginfo and the error an unhandled
// fault returns are one object. A fresh one per delivery means no later
// fault overwrites an error a caller still holds.
func (t *Thread) checkPageSlow(a Addr, kind sig.AccessKind) (*page, error) {
	for try := 0; ; try++ {
		// One key read judges the access and fills the siginfo, so a
		// concurrent retag cannot split the two.
		p, key := t.translate(a)
		var f *Fault
		switch {
		case p == nil:
			f = &Fault{Info: sig.Info{Sig: sig.SIGSEGV, Code: sig.CodeMapErr, Addr: uint64(a), Access: kind}}
			t.mapFaults.Add(1)
		case !t.allowed(key, kind):
			f = &Fault{Info: sig.Info{Sig: sig.SIGSEGV, Code: sig.CodePKUErr, Addr: uint64(a), Access: kind, PKey: uint8(key)}}
			t.pkuFaults.Add(1)
		default:
			return p, nil
		}
		if try < MaxFaultRetries {
			entry := t.Rights()
			if t.sigs.Dispatch(&f.Info, t) == sig.Handled {
				t.sigreturn(entry, false)
				t.faultRetries.Add(1)
				continue // handler repaired the state; re-execute the access
			}
		}
		f.PKRU = t.Rights()
		return nil, f
	}
}

func (t *Thread) allowed(key mpk.Key, kind sig.AccessKind) bool {
	r := mpk.PKRU(t.pkru.Load()).Rights(key)
	if kind == sig.AccessWrite {
		return r.CanWrite()
	}
	return r.CanRead()
}

// Read copies len(buf) bytes from addr into buf under PKRU checking.
func (t *Thread) Read(addr Addr, buf []byte) error {
	return t.access(addr, buf, sig.AccessRead)
}

// Write copies buf to addr under PKRU checking.
func (t *Thread) Write(addr Addr, buf []byte) error {
	return t.access(addr, buf, sig.AccessWrite)
}

// Load8 reads one byte at addr.
func (t *Thread) Load8(addr Addr) (byte, error) {
	var b [1]byte
	err := t.access(addr, b[:], sig.AccessRead)
	return b[0], err
}

// Store8 writes one byte at addr.
func (t *Thread) Store8(addr Addr, v byte) error {
	b := [1]byte{v}
	return t.access(addr, b[:], sig.AccessWrite)
}

// Load64 reads a little-endian uint64 at addr.
func (t *Thread) Load64(addr Addr) (uint64, error) {
	var b [8]byte
	if err := t.access(addr, b[:], sig.AccessRead); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Store64 writes a little-endian uint64 at addr.
func (t *Thread) Store64(addr Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return t.access(addr, b[:], sig.AccessWrite)
}
