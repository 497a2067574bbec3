package conformance

import (
	"math/rand"

	"repro/internal/mpk"
	"repro/internal/pkalloc"
	"repro/internal/vm"
)

const (
	// scratchBase is the window generated reserves land in, well clear of
	// the pkalloc pool reservations.
	scratchBase vm.Addr = 0x1000_0000_0000
	// genTenants is how many vkey tenants generated traces spread over:
	// more than VKeySlots, so activation must evict.
	genTenants = 8
)

// Generate produces a deterministic pseudo-random trace of n ops from the
// seed. The distribution is tuned for semantic coverage, not uniformity:
// most accesses target live allocations or recently reserved spans
// (including deliberate overruns and page-boundary-crossing widths), PKRU
// values cluster around the patterns gates and profilers actually install,
// and a few percent of ops are deliberately invalid (misaligned bases,
// out-of-range keys) to pin down the rejection paths.
func Generate(seed int64, n int) Trace {
	rng := rand.New(rand.NewSource(seed))
	g := &genState{rng: rng}
	tr := Trace{Ops: make([]Op, 0, n)}
	for i := 0; i < n; i++ {
		tr.Ops = append(tr.Ops, g.next())
	}
	return tr
}

// genState is the generator's own light bookkeeping: it biases targeting
// without replaying semantics (a reserve that ends up rejected just makes
// later ops target unreserved memory, which is coverage too).
type genState struct {
	rng    *rand.Rand
	thread uint8
	spans  []struct {
		base vm.Addr
		size uint64
	}
	slotLive  [NumSlots]bool
	gateDepth [NumThreads]int
	vslotLive [genTenants]bool
	vkeyDepth [NumThreads]int
}

func (g *genState) next() Op {
	// Threads are sticky so gate pairs and allocation reuse mostly happen
	// on one thread, with occasional switches to interleave.
	if g.rng.Intn(100) < 15 {
		g.thread = uint8(g.rng.Intn(NumThreads))
	}
	op := Op{Thread: g.thread}
	switch p := g.rng.Intn(100); {
	case p < 22:
		op.Kind = OpLoad
		g.fillAccess(&op)
	case p < 38:
		op.Kind = OpStore
		g.fillAccess(&op)
	case p < 42:
		op.Kind = OpSupervisedCall
		g.fillSupervised(&op)
	case p < 51:
		op.Kind = OpWRPKRU
		op.Value = g.pkruValue()
	case p < 56:
		op.Kind = OpGateEnter
		g.gateDepth[g.thread%NumThreads]++
	case p < 62:
		op.Kind = OpGateExit
		if d := &g.gateDepth[g.thread%NumThreads]; *d > 0 {
			*d--
		}
	case p < 68:
		op.Kind = OpGateCall
		g.fillAccess(&op)
		if g.rng.Intn(2) == 0 {
			op.Flags |= FlagWrite
		}
		if g.rng.Intn(8) == 0 {
			op.Flags |= FlagTrustedLib
		}
	case p < 74:
		op.Kind = OpAlloc
		op.Slot = uint8(g.rng.Intn(NumSlots))
		op.Size = uint64(g.rng.Intn(MaxAllocBytes))
		if g.rng.Intn(2) == 0 {
			op.Flags |= FlagUntrusted
		}
		g.slotLive[op.Slot] = true
	case p < 77:
		op.Kind = OpFree
		op.Slot = g.pickLive(g.slotLive[:])
		g.slotLive[op.Slot%NumSlots] = false
	case p < 79:
		op.Kind = OpRealloc
		op.Slot = g.pickLive(g.slotLive[:])
		op.Size = uint64(g.rng.Intn(MaxAllocBytes))
	case p < 82:
		op.Kind = OpReserve
		op.Addr, op.Size = g.reserveSpan()
		op.Key = g.key()
		g.spans = append(g.spans, struct {
			base vm.Addr
			size uint64
		}{op.Addr, op.Size})
	case p < 85:
		op.Kind = OpSetPKey
		op.Addr, op.Size = g.retagSpan()
		op.Key = g.key()
	case p < 90:
		op.Kind = OpVKeyEnter
		op.Slot = g.pickLive(g.vslotLive[:])
		if !g.vslotLive[op.Slot] {
			// A dead tenant would just be skipped; allocate it instead so
			// enters usually have a live compartment to switch into.
			op.Kind = OpVKeyAlloc
			g.vslotLive[op.Slot] = true
		} else {
			g.vkeyDepth[g.thread%NumThreads]++
		}
	case p < 94:
		op.Kind = OpVKeyLeave
		if d := &g.vkeyDepth[g.thread%NumThreads]; *d > 0 {
			*d--
		}
	case p < 97:
		op.Kind = OpVKeyAlloc
		op.Slot = uint8(g.rng.Intn(genTenants))
		g.vslotLive[op.Slot] = true
	default:
		op.Kind = OpVKeyFree
		op.Slot = g.pickLive(g.vslotLive[:])
		g.vslotLive[op.Slot%genTenants] = false
	}
	return op
}

// pkruValue picks a rights-register value from the patterns enforcement
// code actually installs, plus occasional arbitrary bit soup.
func (g *genState) pkruValue() mpk.PKRU {
	switch g.rng.Intn(10) {
	case 0:
		return mpk.PKRU(g.rng.Uint32()) // arbitrary
	case 1:
		return mpk.PermitAll
	case 2, 3:
		// The gate value: deny only the trusted key.
		return mpk.PermitAll.With(pkalloc.DefaultTrustedKey, mpk.DenyAll)
	case 4:
		// The paper's strict gate shape: deny everything but listed keys.
		keys := []mpk.Key{0}
		if g.rng.Intn(2) == 0 {
			keys = append(keys, mpk.Key(g.rng.Intn(4)))
		}
		return mpk.DenyAllExcept(keys...)
	default:
		// One or two keys moved to a random rights level.
		p := mpk.PermitAll
		for n := 1 + g.rng.Intn(2); n > 0; n-- {
			p = p.With(mpk.Key(g.rng.Intn(int(mpk.NumKeys))), mpk.Rights(g.rng.Intn(4)))
		}
		return p
	}
}

// key picks a protection key: usually a low valid key (matching how real
// deployments use one or two keys), sometimes any valid key, rarely an
// invalid one.
func (g *genState) key() mpk.Key {
	switch g.rng.Intn(20) {
	case 0:
		return mpk.Key(16 + g.rng.Intn(240)) // invalid
	case 1, 2, 3:
		return mpk.Key(g.rng.Intn(int(mpk.NumKeys)))
	default:
		return mpk.Key(g.rng.Intn(4))
	}
}

// reserveSpan picks a base/size for a new reservation in the scratch
// window; a few percent are misaligned or oversized to exercise rejection.
func (g *genState) reserveSpan() (vm.Addr, uint64) {
	base := scratchBase + vm.Addr(g.rng.Intn(1<<12))*vm.PageSize
	size := uint64(1+g.rng.Intn(16)) * vm.PageSize
	switch g.rng.Intn(33) {
	case 0:
		base += vm.Addr(1 + g.rng.Intn(int(vm.PageMask)))
	case 1:
		size += uint64(1 + g.rng.Intn(int(vm.PageMask)))
	case 2:
		size = 0
	case 3:
		// Wildly oversized, occasionally large enough to wrap base+size
		// past 2^64 — the class of bounds bug the oracle exists to catch.
		size = (uint64(vm.MaxAddr) << uint(g.rng.Intn(17))) - uint64(g.rng.Intn(2))*vm.PageSize
	}
	return base, size
}

// retagSpan picks a pkey_mprotect range, biased to overlap prior reserves
// (including partially, to force region splits).
func (g *genState) retagSpan() (vm.Addr, uint64) {
	if len(g.spans) > 0 && g.rng.Intn(10) != 0 {
		s := g.spans[g.rng.Intn(len(g.spans))]
		pages := int(s.size / vm.PageSize)
		if pages == 0 {
			pages = 1
		}
		off := vm.Addr(g.rng.Intn(pages)) * vm.PageSize
		size := uint64(1+g.rng.Intn(pages+2)) * vm.PageSize
		return s.base + off, size
	}
	return g.reserveSpan()
}

// pickLive picks an index into live, preferring live entries so
// free/realloc/enter ops mostly hit something.
func (g *genState) pickLive(live []bool) uint8 {
	for try := 0; try < 4; try++ {
		if s := g.rng.Intn(len(live)); live[s] {
			return uint8(s)
		}
	}
	return uint8(g.rng.Intn(len(live)))
}

// fillSupervised fills an OpSupervisedCall: a thread with no open tenant
// call (the executor skips the op on one), an access whose slot-relative
// target lies near the allocation's base — inside the object, so a fault
// on an MT one is healable — and any policy.
func (g *genState) fillSupervised(op *Op) {
	for t := 0; t < NumThreads && g.vkeyDepth[op.Thread] > 0; t++ {
		op.Thread = uint8(t)
	}
	g.fillAccess(op)
	if op.Flags&FlagRawAddr == 0 {
		op.Addr %= 64
	}
	op.Flags |= uint8(g.rng.Intn(2))*FlagWrite | uint8(g.rng.Intn(2))*FlagFlaky
	op.Key = mpk.Key(g.rng.Intn(4))
}

// fillAccess picks a target and width for load/store/gate-call ops.
func (g *genState) fillAccess(op *Op) {
	// Width: mostly machine sizes, sometimes page-crossing spans.
	switch g.rng.Intn(10) {
	case 0:
		op.Size = uint64(g.rng.Intn(MaxAccessBytes))
	case 1:
		op.Size = 0
	default:
		op.Size = []uint64{1, 2, 4, 8, 16}[g.rng.Intn(5)]
	}
	if g.rng.Intn(10) < 6 {
		// Slot-relative: offset within (or a little past) the allocation.
		op.Slot = g.pickLive(g.slotLive[:])
		op.Addr = vm.Addr(g.rng.Intn(3 * vm.PageSize))
		return
	}
	op.Flags |= FlagRawAddr
	switch g.rng.Intn(7) {
	case 0: // inside/near a generated reserve
		if len(g.spans) > 0 {
			s := g.spans[g.rng.Intn(len(g.spans))]
			// Deliberately invalid reserves can record sizes near 2^64;
			// the +2-page overrun would wrap negative and panic Int63n.
			span := int64(s.size + 2*vm.PageSize)
			if span <= 0 {
				span = 2 * vm.PageSize
			}
			op.Addr = s.base + vm.Addr(g.rng.Int63n(span))
			return
		}
		fallthrough
	case 1: // trusted pool
		op.Addr = pkalloc.DefaultTrustedBase + vm.Addr(g.rng.Intn(1<<16))
	case 2: // untrusted pool
		op.Addr = pkalloc.DefaultUntrustedBase + vm.Addr(g.rng.Intn(1<<16))
	case 3: // scratch window, probably unreserved
		op.Addr = scratchBase + vm.Addr(g.rng.Intn(1<<24))
	case 4: // far outside everything
		op.Addr = vm.Addr(g.rng.Uint64())
	case 5: // address-space edge
		op.Addr = vm.MaxAddr - vm.Addr(g.rng.Intn(2*vm.PageSize))
	case 6: // a vkey tenant page (+ a little past the window)
		op.Addr = vkeyBase + vm.Addr(g.rng.Intn((genTenants+1)*vm.PageSize))
	}
}
