package conformance

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ffi"
	"repro/internal/mpk"
	"repro/internal/pkalloc"
	"repro/internal/sig"
	"repro/internal/vkey"
	"repro/internal/vm"
)

// Executor sizing. Thread and slot indices in ops are taken modulo these,
// so every decoded byte string is replayable.
const (
	// NumThreads is the number of simulated CPU contexts a trace drives.
	NumThreads = 4
	// NumSlots is the size of the allocation slot table ops index into.
	NumSlots = 16
	// MaxAccessBytes caps one access's width (canonicalized modulo this),
	// wide enough to cross two page boundaries.
	MaxAccessBytes = 3 * vm.PageSize
	// MaxAllocBytes caps one allocation's size.
	MaxAllocBytes = 2 * vm.PageSize
)

// Options configures a differential run.
type Options struct {
	// Inject plants a known bug into the real-side execution; the run is
	// then expected to diverge. InjectNone replays faithfully.
	Inject Fault
}

// Divergence is one disagreement between the real stack and the model.
type Divergence struct {
	// Index is the position of the diverging op, or -1 for the
	// end-of-trace protection-key map sweep.
	Index int
	Op    Op
	// What names the diffed property: "outcome", "pkru", or "keymap".
	What string
	// Addr is the probed address for keymap divergences.
	Addr        vm.Addr
	Real, Model Outcome
}

func (d Divergence) String() string {
	if d.What == "keymap" {
		return fmt.Sprintf("keymap at %v: real %s, model %s", d.Addr, keymapString(d.Real), keymapString(d.Model))
	}
	return fmt.Sprintf("op %d (%v) %s: real %v, model %v", d.Index, d.Op, d.What, d.Real, d.Model)
}

func keymapString(o Outcome) string {
	if o.Kind != OK {
		return "unreserved"
	}
	return fmt.Sprintf("key %d", o.PKey)
}

// Result summarizes one differential replay.
type Result struct {
	Trace       Trace
	Ops         int                 // ops executed (excluding skipped)
	Skipped     int                 // ops skipped (dead slot, empty gate stack)
	Counts      map[OutcomeKind]int // real-side outcome histogram
	Divergences []Divergence

	// VKeyStats is the real vkey table's view after the replay: evidence
	// that a trace actually multiplexed (evictions, recycled slots) rather
	// than staying under the slot count.
	VKeyStats vkey.Stats
}

// slot is one entry in the allocation slot table shared by both sides.
type slot struct {
	addr vm.Addr
	size uint64
	live bool
}

// runner holds the real stack under test plus the model mirror.
type runner struct {
	opts  Options
	space *vm.Space
	sigs  *sig.Table
	alloc *pkalloc.Allocator
	rt    *ffi.Runtime
	ths   []*ffi.Thread
	model *Model

	// Hand-rolled gate stacks for OpGateEnter/OpGateExit (per thread).
	// The executor, not the trace, tracks depth so both sides always
	// agree on whether an exit matches an enter.
	gateStacks [NumThreads][]mpk.PKRU

	slots [NumSlots]slot

	// Virtual-key multiplexing under differential test: the real table,
	// the per-tenant logical-key IDs (0 = dead), the model-side mirror
	// predicting slot assignment, and the rights each thread held before
	// its first Enter (what the bottom Leave restores).
	vkeys       *vkey.Table
	vkeyID      [NumVKeySlots]vkey.ID
	vmir        *vkeyMirror
	vkeyOutside [NumThreads]mpk.PKRU

	// pending carries the access an OpGateCall performs inside the ffi
	// library function. Traces run single-goroutine, so one cell suffices.
	pending struct {
		addr  vm.Addr
		width uint64
		write bool
	}

	// probe accumulates interesting addresses for the final key-map sweep.
	probe map[vm.Addr]struct{}

	res *Result
}

// Run replays the trace against the real vm/mpk/sig/heap/ffi stack and the
// reference model in lockstep and reports every divergence.
func Run(tr Trace, opts Options) *Result {
	r := &runner{
		opts:  opts,
		space: vm.NewSpace(),
		sigs:  new(sig.Table),
		probe: make(map[vm.Addr]struct{}),
		res:   &Result{Trace: tr, Counts: make(map[OutcomeKind]int)},
	}
	if opts.Inject == InjectStalePageIndex {
		r.space.InjectStalePageIndex(true)
	}
	alloc, err := pkalloc.New(pkalloc.Config{Space: r.space})
	if err != nil {
		panic("conformance: pkalloc setup: " + err.Error())
	}
	r.alloc = alloc
	reg := ffi.NewRegistry()
	reg.MustLibrary("unsafe", ffi.Untrusted).Define("touch", r.touch)
	reg.MustLibrary("safe", ffi.Trusted).Define("touch", r.touch)
	r.rt = ffi.NewRuntime(reg, alloc, r.sigs, ffi.GatesOn)
	r.rt.SetGateCost(0) // conformance measures semantics, not latency
	for i := 0; i < NumThreads; i++ {
		th := r.rt.NewThread()
		if opts.Inject == InjectStaleTranslation {
			th.VM.InjectStaleTranslation(true)
		}
		r.ths = append(r.ths, th)
	}

	// The model mirrors the two pool reservations pkalloc made, the same
	// way it will mirror every Reserve op in the trace.
	r.model = NewModel(NumThreads, alloc.TrustedKey())
	mirror := func(reg *vm.Region) {
		if !r.model.Reserve(reg.Base, reg.Size, reg.PKey) {
			panic("conformance: model rejects pkalloc reservation")
		}
	}
	mirror(alloc.TrustedRegion())
	mirror(alloc.UntrustedRegion())
	r.probeAddr(alloc.TrustedRegion().Base)
	r.probeAddr(alloc.UntrustedRegion().Base)

	// Virtual-key tenants: one page per tenant, reserved up front on the
	// shared key and handed to a logical key by OpVKeyAlloc. The table gets
	// only three multiplexable slots (see vkeyReservedKeys), so traces
	// evict and recycle without needing fourteen tenants.
	vt, err := vkey.NewTable(r.space, vkey.Config{Reserved: vkeyReservedKeys})
	if err != nil {
		panic("conformance: vkey setup: " + err.Error())
	}
	r.vkeys = vt
	r.vmir = newVKeyMirror(r.model, vt.InactiveKey())
	for vs := 0; vs < NumVKeySlots; vs++ {
		name := fmt.Sprintf("vkey/t%d", vs)
		if _, err := r.space.Reserve(name, vkeyPage(vs), vm.PageSize, 0); err != nil {
			panic("conformance: vkey tenant reserve: " + err.Error())
		}
		if !r.model.Reserve(vkeyPage(vs), vm.PageSize, 0) {
			panic("conformance: model rejects vkey tenant reservation")
		}
		r.probeAddr(vkeyPage(vs))
	}

	if opts.Inject == InjectSwallowSegv {
		installSwallowingHandler(r.sigs)
	}

	for i, op := range tr.Ops {
		r.step(i, op)
	}
	r.sweepKeyMap()
	r.res.VKeyStats = r.vkeys.Stats()
	return r.res
}

// probeAddr marks an address for the end-of-trace key-map sweep.
func (r *runner) probeAddr(a vm.Addr) { r.probe[a] = struct{}{} }

// touch is the library function OpGateCall routes through: it performs the
// pending access on the calling thread's checked view of memory.
func (r *runner) touch(t *ffi.Thread, _ []uint64) ([]uint64, error) {
	buf := make([]byte, r.pending.width)
	if r.pending.write {
		return nil, t.VM.Write(r.pending.addr, buf)
	}
	return nil, t.VM.Read(r.pending.addr, buf)
}

// target resolves an access op's address, or reports the op dead (slot
// targeting with an empty slot).
func (r *runner) target(op Op) (vm.Addr, bool) {
	if op.Flags&FlagRawAddr != 0 {
		return op.Addr, true
	}
	s := &r.slots[int(op.Slot)%NumSlots]
	if !s.live {
		return 0, false
	}
	// The offset may overshoot the allocation by up to two pages so
	// overruns into neighboring memory are exercised.
	off := uint64(op.Addr) % (s.size + 2*vm.PageSize)
	return s.addr + vm.Addr(off), true
}

// accessWidth canonicalizes an access op's width.
func accessWidth(op Op) uint64 { return op.Size % (MaxAccessBytes + 1) }

// allocSize canonicalizes an alloc/realloc op's size.
func allocSize(op Op) uint64 { return op.Size % (MaxAllocBytes + 1) }

// step executes one op on both sides and diffs the outcomes.
func (r *runner) step(i int, op Op) {
	tid := int(op.Thread) % NumThreads
	th := r.ths[tid]
	var real, model Outcome

	switch op.Kind {
	case OpReserve:
		name := fmt.Sprintf("trace/r%d", i)
		_, err := r.space.Reserve(name, op.Addr, op.Size, op.Key)
		real = okOrRejected(err == nil)
		model = okOrRejected(r.model.Reserve(op.Addr, op.Size, op.Key))
		if err == nil {
			r.probeAddr(op.Addr)
			r.probeAddr(op.Addr + vm.Addr(op.Size) - vm.PageSize)
		}

	case OpSetPKey:
		modelOK := r.model.SetPKey(op.Addr, op.Size, op.Key)
		model = okOrRejected(modelOK)
		if r.opts.Inject == InjectStaleSetPKey {
			// Planted bug: the retag "succeeds" without touching the real
			// page table — a stale protection key after region reuse.
			real = model
		} else {
			real = okOrRejected(r.space.SetPKey(op.Addr, op.Size, op.Key) == nil)
		}
		if modelOK && op.Size > 0 {
			r.probeAddr(op.Addr)
			r.probeAddr(op.Addr + vm.Addr(op.Size) - vm.PageSize)
		}

	case OpWRPKRU:
		th.VM.SetRights(op.Value)
		r.model.SetPKRU(tid, op.Value)
		real, model = Outcome{Kind: OK}, Outcome{Kind: OK}

	case OpLoad, OpStore:
		addr, ok := r.target(op)
		if !ok {
			r.skip()
			return
		}
		write := op.Kind == OpStore
		width := accessWidth(op)
		buf := make([]byte, width)
		var err error
		if write {
			err = th.VM.Write(addr, buf)
		} else {
			err = th.VM.Read(addr, buf)
		}
		real = realAccessOutcome(err)
		model = r.model.Access(tid, addr, width, write)

	case OpGateEnter:
		r.gateStacks[tid] = append(r.gateStacks[tid], th.VM.Rights())
		th.VM.SetRights(r.rt.UntrustedPKRU())
		r.model.GateEnter(tid)
		real, model = Outcome{Kind: OK}, Outcome{Kind: OK}

	case OpGateExit:
		st := r.gateStacks[tid]
		if len(st) == 0 {
			r.skip()
			return
		}
		saved := st[len(st)-1]
		r.gateStacks[tid] = st[:len(st)-1]
		if r.opts.Inject != InjectSkipGateRestore {
			th.VM.SetRights(saved)
		}
		r.model.GateExit(tid)
		real, model = Outcome{Kind: OK}, Outcome{Kind: OK}

	case OpGateCall:
		addr, ok := r.target(op)
		if !ok {
			r.skip()
			return
		}
		write := op.Flags&FlagWrite != 0
		width := accessWidth(op)
		r.pending.addr, r.pending.width, r.pending.write = addr, width, write
		lib := "unsafe"
		if op.Flags&FlagTrustedLib != 0 {
			lib = "safe"
		}
		_, err := th.Call(lib, "touch")
		real = realAccessOutcome(err)
		if lib == "unsafe" {
			r.model.GateEnter(tid)
			model = r.model.Access(tid, addr, width, write)
			r.model.GateExit(tid)
		} else {
			model = r.model.Access(tid, addr, width, write)
		}

	case OpAlloc:
		s := &r.slots[int(op.Slot)%NumSlots]
		if s.live {
			r.skip()
			return
		}
		comp := pkalloc.Trusted
		if op.Flags&FlagUntrusted != 0 {
			comp = pkalloc.Untrusted
		}
		size := allocSize(op)
		addr, err := r.alloc.AllocIn(comp, size)
		if err == nil {
			s.addr, s.size, s.live = addr, size, true
			if comp == pkalloc.Trusted && r.opts.Inject == InjectLeakTrustedAlloc {
				// Planted bug: the trusted allocation's page ends up
				// reachable from U — as if the allocator handed out a
				// page it never moved back under the trusted key.
				if err := r.space.SetPKey(addr.PageBase(), vm.PageSize, 0); err != nil {
					panic("conformance: leak injection: " + err.Error())
				}
			}
		}
		// Allocator outcomes are not diffed: the model has no allocator.
		// The allocation only matters as an address source, and the key
		// sweep + later accesses judge where it landed.
		real, model = okOrRejected(err == nil), Outcome{Kind: Skipped}

	case OpRealloc:
		s := &r.slots[int(op.Slot)%NumSlots]
		if !s.live {
			r.skip()
			return
		}
		size := allocSize(op)
		addr, err := r.alloc.Realloc(s.addr, size)
		if err == nil {
			s.addr, s.size = addr, size
		}
		real, model = okOrRejected(err == nil), Outcome{Kind: Skipped}

	case OpFree:
		s := &r.slots[int(op.Slot)%NumSlots]
		if !s.live {
			r.skip()
			return
		}
		err := r.alloc.Free(s.addr)
		s.live = false
		real, model = okOrRejected(err == nil), Outcome{Kind: Skipped}

	case OpVKeyAlloc:
		vs := int(op.Slot) % NumVKeySlots
		if r.vkeyID[vs] != 0 {
			r.skip()
			return
		}
		id := r.vkeys.Alloc(fmt.Sprintf("vtenant%d", vs))
		err := r.vkeys.Attach(id, vkeyPage(vs), vm.PageSize)
		if err == nil {
			r.vkeyID[vs] = id
		}
		real = okOrRejected(err == nil)
		r.vmir.alloc(vs)
		model = Outcome{Kind: OK}

	case OpVKeyFree:
		vs := int(op.Slot) % NumVKeySlots
		if r.vkeyID[vs] == 0 {
			r.skip()
			return
		}
		err := r.vkeys.Free(r.vkeyID[vs])
		if err == nil {
			r.vkeyID[vs] = 0
		}
		real = okOrRejected(err == nil)
		model = okOrRejected(r.vmir.release(vs))

	case OpVKeyEnter:
		vs := int(op.Slot) % NumVKeySlots
		if r.vkeyID[vs] == 0 {
			r.skip()
			return
		}
		if len(r.vmir.stacks[tid]) == 0 {
			r.vkeyOutside[tid] = th.VM.Rights()
		}
		_, err := r.vkeys.Enter(th.VM, r.vkeyID[vs])
		real = okOrRejected(err == nil)
		r.vmir.enter(tid, vs)
		model = Outcome{Kind: OK}

	case OpVKeyLeave:
		if len(r.vmir.stacks[tid]) == 0 {
			r.skip()
			return
		}
		_, err := r.vkeys.Leave(th.VM, r.vkeyOutside[tid])
		real = okOrRejected(err == nil)
		r.vmir.leave(tid)
		model = Outcome{Kind: OK}

	default:
		r.skip()
		return
	}

	r.res.Ops++
	r.res.Counts[real.Kind]++

	// Register diff: after every op both sides must agree on the thread's
	// PKRU value — this is what catches a gate that forgets its restore
	// or a handler that smuggles rights in.
	realPKRU, modelPKRU := th.VM.Rights(), r.model.PKRU(tid)
	if realPKRU != modelPKRU {
		r.diverge(Divergence{Index: i, Op: op, What: "pkru",
			Real: Outcome{Kind: real.Kind, PKRU: realPKRU}, Model: Outcome{Kind: model.Kind, PKRU: modelPKRU}})
	}

	if real.Kind == Skipped || model.Kind == Skipped {
		return
	}
	real.PKRU, model.PKRU = realPKRU, modelPKRU
	if real != model {
		r.diverge(Divergence{Index: i, Op: op, What: "outcome", Real: real, Model: model})
	}
}

func (r *runner) skip() { r.res.Skipped++ }

func (r *runner) diverge(d Divergence) {
	r.res.Divergences = append(r.res.Divergences, d)
}

// sweepKeyMap compares the real page-key view against the model at every
// interesting address the trace touched: reservation edges, retag edges,
// live allocations and the pool bases.
func (r *runner) sweepKeyMap() {
	for _, s := range r.slots {
		if s.live {
			r.probeAddr(s.addr)
		}
	}
	addrs := make([]vm.Addr, 0, len(r.probe))
	for a := range r.probe {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		realKey, realOK := r.space.PKeyAt(a)
		modelKey, modelOK := r.model.KeyAt(a)
		if realOK != modelOK || (realOK && realKey != modelKey) {
			r.diverge(Divergence{
				Index: -1, What: "keymap", Addr: a,
				Real:  keymapOutcome(realKey, realOK),
				Model: keymapOutcome(modelKey, modelOK),
			})
		}
	}
}

func keymapOutcome(key mpk.Key, ok bool) Outcome {
	if !ok {
		return Outcome{Kind: Rejected}
	}
	return Outcome{Kind: OK, PKey: key}
}

func okOrRejected(ok bool) Outcome {
	if ok {
		return Outcome{Kind: OK}
	}
	return Outcome{Kind: Rejected}
}

// realAccessOutcome maps a checked access's error into an Outcome,
// decoding the fault info and PKRU bits exactly as obs crash reports do.
func realAccessOutcome(err error) Outcome {
	if err == nil {
		return Outcome{Kind: OK}
	}
	var f *vm.Fault
	if !errors.As(err, &f) {
		return Outcome{Kind: Rejected}
	}
	kind := FaultMap
	if f.Info.Code == sig.CodePKUErr {
		kind = FaultPKU
	}
	rights := f.PKRU.Rights(mpk.Key(f.Info.PKey))
	return Outcome{
		Kind:  kind,
		Addr:  vm.Addr(f.Info.Addr),
		PKey:  mpk.Key(f.Info.PKey),
		Write: f.Info.Access == sig.AccessWrite,
		AD:    rights&mpk.AccessDisable != 0,
		WD:    rights&mpk.WriteDisable != 0,
		PKRU:  f.PKRU,
	}
}
