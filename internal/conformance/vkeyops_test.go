package conformance

import (
	"testing"

	"repro/internal/supervise"
)

// TestDirectedVKeyTrace replays the hand-written virtualization trace:
// it must be divergence-free, must actually multiplex (five tenants over
// three slots force evictions and a recycled slot), and must exercise the
// observable consequences — compartment isolation faults and the busy-free
// rejection.
func TestDirectedVKeyTrace(t *testing.T) {
	tr := directedVKeyTrace()
	res := Run(tr, Options{})
	for _, d := range res.Divergences {
		t.Errorf("divergence: %v", d)
	}
	if res.Skipped != 0 {
		t.Errorf("Skipped = %d, want 0 (the directed trace is fully live)", res.Skipped)
	}
	if res.VKeyStats.Evictions == 0 {
		t.Error("no evictions: the trace did not multiplex")
	}
	if res.VKeyStats.Recycled == 0 {
		t.Error("no recycled slots: the free+realloc leg did not run")
	}
	if res.Counts[FaultPKU] < 3 {
		t.Errorf("FaultPKU count = %d, want >= 3 (parked-page, evicted-page and revoked-grant probes)", res.Counts[FaultPKU])
	}
	if res.Counts[Rejected] != 1 {
		t.Errorf("Rejected count = %d, want exactly 1 (the busy free)", res.Counts[Rejected])
	}
}

// TestGenerateCoversVKeyOps pins the generator's coverage of the
// virtualization ops: a seeded trace of moderate length must include
// every OpVKey* kind, and replaying it must both stay divergence-free and
// reach slot eviction — otherwise fuzzing never stresses the multiplexer.
func TestGenerateCoversVKeyOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tr := Generate(seed, 512)
		kinds := make(map[OpKind]int)
		for _, op := range tr.Ops {
			kinds[op.Kind]++
		}
		for _, k := range []OpKind{OpVKeyAlloc, OpVKeyFree, OpVKeyEnter, OpVKeyLeave} {
			if kinds[k] == 0 {
				t.Errorf("seed %d: generator emitted no %v ops", seed, k)
			}
		}
		res := Run(tr, Options{})
		for _, d := range res.Divergences {
			t.Errorf("seed %d: divergence: %v", seed, d)
		}
		if res.VKeyStats.Evictions == 0 {
			t.Errorf("seed %d: generated trace never evicted a virtual key", seed)
		}
	}
}

// TestGenerateCoversRecovery pins the generator's coverage of supervised
// calls: seeds 1-4 at 512 ops emit OpSupervisedCall, replay
// divergence-free, and between them recover a call under Retry, heal an
// object and quarantine MU — so the seeded sweeps and FuzzDifferential's
// corpus drive every recovery path.
func TestGenerateCoversRecovery(t *testing.T) {
	recovery := map[string]int{}
	retried := 0
	for seed := int64(1); seed <= 4; seed++ {
		tr := Generate(seed, 512)
		if tr.Count(OpSupervisedCall) == 0 {
			t.Errorf("seed %d: generator emitted no %v ops", seed, OpSupervisedCall)
		}
		res := Run(tr, Options{})
		for _, d := range res.Divergences {
			t.Errorf("seed %d: divergence: %v", seed, d)
		}
		for k, n := range res.Recovery {
			recovery[k] += n
		}
		retried += res.Recovered[supervise.Retry]
	}
	if retried == 0 || recovery["heal"] == 0 || recovery["quarantine"] == 0 {
		t.Errorf("recovered retries %d, actions %v: want a recovered retry, a heal and a quarantine", retried, recovery)
	}
}

// directedVKeyTrace returns a hand-written trace that exercises the
// virtual-key machinery end to end: five tenants multiplexed over three
// hardware slots, so enters evict mid-trace; compartment isolation probed
// from inside and outside; a busy free; nested enters whose below-frame
// re-derivation rebinds an evicted tenant; slot recycling through
// free+alloc; and a cross-thread eviction that revokes a bound thread's
// grant. With no injection it must replay divergence-free.
func directedVKeyTrace() Trace {
	var ops []Op
	// Five tenants on three slots.
	for vs := 0; vs < 5; vs++ {
		ops = append(ops, Op{Kind: OpVKeyAlloc, Slot: uint8(vs)})
	}
	ops = append(ops,
		// Inside tenant 0: the own page is reachable, a parked neighbor is
		// not (its page sits on the inactive key the compartment denies).
		Op{Kind: OpVKeyEnter, Slot: 0},
		Op{Kind: OpLoad, Flags: FlagRawAddr, Addr: vkeyPage(0), Size: 8},
		Op{Kind: OpStore, Flags: FlagRawAddr, Addr: vkeyPage(1), Size: 8},
		Op{Kind: OpVKeyLeave},
		// Fill the remaining slots, then force evictions of the LRU keys.
		Op{Kind: OpVKeyEnter, Slot: 1},
		Op{Kind: OpVKeyLeave},
		Op{Kind: OpVKeyEnter, Slot: 2},
		Op{Kind: OpVKeyLeave},
		Op{Kind: OpVKeyEnter, Slot: 3}, // evicts tenant 0
		// The evicted tenant's page is parked: unreachable from tenant 3.
		Op{Kind: OpLoad, Flags: FlagRawAddr, Addr: vkeyPage(0), Size: 8},
		// Nested enter rebinds the evicted tenant from inside tenant 3.
		Op{Kind: OpVKeyEnter, Slot: 0},
		Op{Kind: OpLoad, Flags: FlagRawAddr, Addr: vkeyPage(0), Size: 8},
		// An entered key cannot be freed.
		Op{Kind: OpVKeyFree, Slot: 0},
		Op{Kind: OpVKeyLeave}, // re-derives tenant 3's frame below
		Op{Kind: OpVKeyLeave},
		// Recycle: free a parked tenant, reuse its table slot.
		Op{Kind: OpVKeyFree, Slot: 1},
		Op{Kind: OpVKeyAlloc, Slot: 1},
		Op{Kind: OpVKeyEnter, Slot: 4}, // more slot pressure
		Op{Kind: OpVKeyLeave},
		// Cross-thread revocation: thread 0 holds tenant 2's grant while
		// thread 1 churns enough tenants to evict it; thread 0's PKRU loses
		// the slot and its own page goes dark until it leaves.
		Op{Kind: OpVKeyEnter, Slot: 2, Thread: 0},
		Op{Kind: OpVKeyEnter, Slot: 1, Thread: 1},
		Op{Kind: OpVKeyLeave, Thread: 1},
		Op{Kind: OpVKeyEnter, Slot: 3, Thread: 1},
		Op{Kind: OpVKeyLeave, Thread: 1},
		Op{Kind: OpVKeyEnter, Slot: 4, Thread: 1},
		Op{Kind: OpVKeyLeave, Thread: 1},
		Op{Kind: OpVKeyEnter, Slot: 0, Thread: 1},
		Op{Kind: OpLoad, Flags: FlagRawAddr, Addr: vkeyPage(2), Size: 8, Thread: 0},
		Op{Kind: OpVKeyLeave, Thread: 1},
		Op{Kind: OpVKeyLeave, Thread: 0},
		// Back outside: full rights again, every tenant page readable.
		Op{Kind: OpLoad, Flags: FlagRawAddr, Addr: vkeyPage(2), Size: 8, Thread: 0},
		// Recycle a slot the hard way: free a tenant while it is still
		// bound, returning its hardware slot to the pool.
		Op{Kind: OpVKeyEnter, Slot: 3},
		Op{Kind: OpVKeyLeave},
		Op{Kind: OpVKeyFree, Slot: 3},
	)
	return Trace{Ops: ops}
}
