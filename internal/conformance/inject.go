package conformance

import (
	"repro/internal/mpk"
	"repro/internal/sig"
)

// Fault selects a known bug to plant in the real-side execution. Fault
// injection is mutation testing for the harness itself: each mode
// reproduces a class of MPK integration bug that real systems have
// shipped, and the differential oracle must flag every one.
type Fault uint8

const (
	// InjectNone replays faithfully.
	InjectNone Fault = iota
	// InjectSkipGateRestore models a compartment gate whose exit path
	// forgets to restore the saved PKRU: after the gated section returns,
	// the thread keeps running with untrusted rights. (The inverse bug —
	// entering U without dropping rights — is caught the same way.)
	InjectSkipGateRestore
	// InjectSwallowSegv models a mis-chained SIGSEGV handler: instead of
	// forwarding faults it does not own to the previously registered
	// handler, it claims every delivery, grants full rights and resumes —
	// silently erasing MPK violations.
	InjectSwallowSegv
	// InjectLeakTrustedAlloc models a trusted-heap allocation leaking into
	// the untrusted compartment: the page backing an MT allocation ends up
	// tagged with the default key, so untrusted code can reach it.
	InjectLeakTrustedAlloc
	// InjectStaleSetPKey models a stale protection key after region
	// reuse: pkey_mprotect reports success but the pages keep their old
	// tag, as with a missed retag on a recycled span.
	InjectStaleSetPKey
	// InjectStaleTranslation models a translation cache that caches the
	// protection key along with the page: a thread keeps serving the key
	// snapshotted when its entry was filled, so a retag (pkey_mprotect, a
	// vkey eviction to the parking key) is missed until the entry is
	// displaced — the shootdown libmpk's pkey_sync exists to perform.
	InjectStaleTranslation

	numFaults
)

func (f Fault) String() string {
	switch f {
	case InjectNone:
		return "none"
	case InjectSkipGateRestore:
		return "skip-gate-restore"
	case InjectSwallowSegv:
		return "swallow-segv"
	case InjectLeakTrustedAlloc:
		return "leak-trusted-alloc"
	case InjectStaleSetPKey:
		return "stale-setpkey"
	case InjectStaleTranslation:
		return "stale-tlb-key"
	default:
		return "fault(?)"
	}
}

// Faults returns every plantable fault mode (excluding InjectNone).
func Faults() []Fault {
	return []Fault{InjectSkipGateRestore, InjectSwallowSegv, InjectLeakTrustedAlloc, InjectStaleSetPKey, InjectStaleTranslation}
}

// ParseFault resolves a fault mode name as used by pkru-conform's -fault
// flag.
func ParseFault(name string) (Fault, bool) {
	for f := InjectNone; f < numFaults; f++ {
		if f.String() == name {
			return f, true
		}
	}
	return InjectNone, false
}

// installSwallowingHandler registers the InjectSwallowSegv handler: it
// discards whatever was registered before it (the mis-chaining) and
// services every SIGSEGV by granting full rights and resuming.
func installSwallowingHandler(t *sig.Table) {
	t.Register(sig.SIGSEGV, sig.HandlerFunc(func(info *sig.Info, ctx sig.Context) sig.Action {
		ctx.SetPKRU(uint32(mpk.PermitAll))
		return sig.Handled
	}))
}

// DirectedTrace returns a small hand-written trace guaranteed to expose
// the given fault mode when replayed with that injection: it allocates in
// both pools, retags a scratch reservation, crosses gates and touches MT
// from inside and outside the untrusted compartment. With InjectNone it
// replays divergence-free.
func DirectedTrace(f Fault) Trace {
	const scratch = 0x1000_0000_0000
	ops := []Op{
		// A scratch window that later gets retagged.
		{Kind: OpReserve, Addr: scratch, Size: 4 * 4096, Key: 3},
		// One allocation in each pool.
		{Kind: OpAlloc, Slot: 0, Size: 256},                       // MT
		{Kind: OpAlloc, Slot: 1, Size: 256, Flags: FlagUntrusted}, // MU
		// Baseline: trusted code reaches everything.
		{Kind: OpLoad, Slot: 0, Size: 8},
		{Kind: OpStore, Slot: 1, Size: 8},
		{Kind: OpLoad, Flags: FlagRawAddr, Addr: scratch, Size: 8},
		// Retag the scratch window to the default key; a later access
		// under rights that deny key 3 must now succeed (stale-setpkey
		// turns this into a phantom fault).
		{Kind: OpSetPKey, Addr: scratch, Size: 4 * 4096, Key: 0},
		{Kind: OpWRPKRU, Value: mpk.PermitAll.With(3, mpk.DenyAll)},
		{Kind: OpStore, Flags: FlagRawAddr, Addr: scratch + 4096, Size: 8},
		{Kind: OpWRPKRU, Value: mpk.PermitAll},
		// Retag the window again, now under a key the thread then denies:
		// the first page's translation was cached under key 3 by the
		// baseline load, so the load below must PKU-fault on key 5
		// (stale-tlb-key serves the cached key 3 and lets it through).
		{Kind: OpSetPKey, Addr: scratch, Size: 4 * 4096, Key: 5},
		{Kind: OpWRPKRU, Value: mpk.PermitAll.With(5, mpk.DenyAll)},
		{Kind: OpLoad, Flags: FlagRawAddr, Addr: scratch, Size: 8},
		{Kind: OpWRPKRU, Value: mpk.PermitAll},
		// Gated call into U touching MT: must PKU-fault with AD|WD on the
		// trusted key (swallow-segv erases the fault; leak-trusted-alloc
		// makes the access legal for real).
		{Kind: OpGateCall, Slot: 0, Size: 8, Flags: FlagWrite},
		// Hand-rolled gate pair with an MT access after the exit: the
		// restore must bring trusted rights back (skip-gate-restore
		// leaves the thread locked out).
		{Kind: OpGateEnter},
		{Kind: OpLoad, Slot: 1, Size: 8}, // MU stays reachable inside U
		{Kind: OpGateExit},
		{Kind: OpLoad, Slot: 0, Size: 8},
		// A second MT allocation after the pool was exercised.
		{Kind: OpAlloc, Slot: 2, Size: 512},
		{Kind: OpGateCall, Slot: 2, Size: 4},
	}
	return Trace{Ops: ops}
}
