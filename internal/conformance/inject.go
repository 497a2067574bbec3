package conformance

import (
	"repro/internal/mpk"
	"repro/internal/sig"
	"repro/internal/supervise"
	"repro/internal/vm"
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
	// InjectStalePageIndex models a resident-page index that misses a
	// page faulted in by first touch: a later pkey_mprotect over the page
	// retags its reservation but not the page itself, so the page keeps
	// serving its old key.
	InjectStalePageIndex
	// InjectStaleSlot models a vkey eviction that leaves the evicted
	// tenant's pages on their old hardware slot, so the next tenant bound
	// to the recycled slot can reach them (vkey.Table.InjectStaleEviction).
	InjectStaleSlot
	// InjectSkipRecoveryRestore models a recovery layer that resumes
	// trusted code after a supervised call's failure without restoring
	// the PKRU register: the caller keeps the untrusted rights.
	InjectSkipRecoveryRestore

	numFaults
)

// faultNames are the fault modes' names, as pkru-conform's -fault flag
// takes them.
var faultNames = [numFaults]string{
	InjectNone:                "none",
	InjectSkipGateRestore:     "skip-gate-restore",
	InjectSwallowSegv:         "swallow-segv",
	InjectLeakTrustedAlloc:    "leak-trusted-alloc",
	InjectStaleSetPKey:        "stale-setpkey",
	InjectStaleTranslation:    "stale-tlb-key",
	InjectStalePageIndex:      "stale-page-index",
	InjectStaleSlot:           "stale-slot-eviction",
	InjectSkipRecoveryRestore: "skip-recovery-restore",
}

func (f Fault) String() string {
	if f < numFaults {
		return faultNames[f]
	}
	return "fault(?)"
}

// Faults returns every plantable fault mode (excluding InjectNone).
func Faults() []Fault {
	var out []Fault
	for f := InjectNone + 1; f < numFaults; f++ {
		out = append(out, f)
	}
	return out
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

// DirectedTrace returns a small hand-written trace that exposes every
// fault mode when replayed with that injection: it allocates in both
// pools, retags a scratch reservation, crosses gates and touches MT from
// inside and outside the untrusted compartment, walks more vkey tenants
// than slots (VKeySweep's walk) and makes supervised calls under each
// recovery policy. Without injection it replays divergence-free.
func DirectedTrace() Trace {
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
	// Tenants multiplexed over the slots, with evictions and a recycled
	// slot (stale-slot-eviction leaves evicted pages reachable).
	ops = append(ops, tenantWalk(VKeySlots+2)...)
	// Supervised calls from U into MT, one recovery path each; every
	// call must return with the caller's rights back
	// (skip-recovery-restore keeps the untrusted ones).
	retry, quarantine, heal := mpk.Key(supervise.Retry), mpk.Key(supervise.Quarantine), mpk.Key(supervise.Heal)
	ops = append(ops,
		// A transient fault: the retry succeeds.
		Op{Kind: OpSupervisedCall, Slot: 0, Size: 8, Flags: FlagWrite | FlagFlaky, Key: retry},
		// A persistent one: the call fails after MaxRetries retries.
		Op{Kind: OpSupervisedCall, Slot: 0, Size: 8, Key: retry},
		// Quarantine scrubs MU and fails the call; the MU slot is gone.
		Op{Kind: OpSupervisedCall, Slot: 0, Size: 8, Key: quarantine},
		// A heal migrates the faulting object's pages to key 0 and the
		// retried call succeeds; afterwards U reaches the object directly.
		Op{Kind: OpAlloc, Slot: 3, Size: 4096},
		Op{Kind: OpSupervisedCall, Slot: 3, Size: 8, Flags: FlagWrite, Key: heal},
		Op{Kind: OpGateCall, Slot: 3, Size: 8},
	)
	return Trace{Ops: ops}
}

// VKeySweep returns the N-tenant virtual-key walk: n tenants (at most
// MaxTenants) and one MT and one MU allocation, then each tenant entered
// in turn to probe its own page, the MU and MT allocations and every
// other tenant's page. A churn then frees a tenant while it holds a
// hardware slot and re-adds it, and the walk runs again. With more
// tenants than VKeySlots every enter past the first few evicts.
func VKeySweep(n int) Trace {
	return Trace{Ops: append([]Op{
		{Kind: OpAlloc, Slot: 0, Size: 16},                       // MT
		{Kind: OpAlloc, Slot: 1, Size: 16, Flags: FlagUntrusted}, // MU
	}, tenantWalk(n)...)}
}

// tenantWalk is VKeySweep after its allocations: slot 0 must hold an MT
// allocation and slot 1 an MU one.
func tenantWalk(n int) []Op {
	var ops []Op
	for vs := 0; vs < n; vs++ {
		ops = append(ops, Op{Kind: OpVKeyAlloc, Slot: uint8(vs)})
	}
	probe := func(addr vm.Addr) Op { return Op{Kind: OpLoad, Flags: FlagRawAddr, Addr: addr, Size: 8} }
	sweep := func() {
		for vs := 0; vs < n; vs++ {
			ops = append(ops,
				Op{Kind: OpVKeyEnter, Slot: uint8(vs)},
				probe(vkeyPage(vs)),
				Op{Kind: OpLoad, Slot: 1, Size: 8},
				Op{Kind: OpLoad, Slot: 0, Size: 8})
			for other := 0; other < n; other++ {
				if other != vs {
					ops = append(ops, probe(vkeyPage(other)))
				}
			}
			ops = append(ops, Op{Kind: OpVKeyLeave})
		}
	}
	sweep()
	// Entering the victim first binds it to a slot, so its free recycles
	// the slot rather than dropping a parked key.
	victim := uint8(n / 2)
	ops = append(ops,
		Op{Kind: OpVKeyEnter, Slot: victim},
		Op{Kind: OpVKeyLeave},
		Op{Kind: OpVKeyFree, Slot: victim},
		Op{Kind: OpVKeyAlloc, Slot: victim})
	sweep()
	return ops
}
