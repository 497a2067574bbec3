package conformance

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ffi"
	"repro/internal/mpk"
	"repro/internal/obs"
	"repro/internal/pkalloc"
	"repro/internal/profile"
	"repro/internal/provenance"
	"repro/internal/sig"
	"repro/internal/supervise"
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
	// MaxTenants is the number of vkey tenants OpVKey* ops name by Slot.
	MaxTenants = 256
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
	// What names the diffed property: "outcome", "pkru", "depth" or
	// "keymap".
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

	// Recovery counts the real supervisors' recovery actions by kind
	// ("retry", "heal", "quarantine"), and Recovered the supervised calls
	// per policy that succeeded after a failed attempt: evidence that a
	// trace actually drove recovery.
	Recovery  map[string]int
	Recovered map[supervise.Policy]int
}

// slot is one entry in the allocation slot table shared by both sides.
type slot struct {
	addr      vm.Addr
	size      uint64
	live      bool
	untrusted bool // an MU allocation, gone when MU is quarantined
}

// access is the memory access an OpGateCall or OpSupervisedCall performs
// inside the ffi library function, and how many times the function ran.
type access struct {
	addr     vm.Addr
	width    uint64
	write    bool
	flaky    bool // touch memory on the first run only
	attempts int
}

// runner holds the real stack under test plus the model mirror.
type runner struct {
	opts  Options
	space *vm.Space
	sigs  *sig.Table
	alloc *pkalloc.Allocator
	reg   *ffi.Registry
	rt    *ffi.Runtime
	ths   []*ffi.Thread
	model *Model

	// Supervised calls: the shadow of live MT allocations a heal resolves
	// faults against, and one supervisor per policy (nil for Abort).
	shadow *provenance.Shadow
	sups   [supervise.Heal + 1]*supervise.Supervisor

	// Hand-rolled gate stacks for OpGateEnter/OpGateExit (per thread).
	// The executor, not the trace, tracks depth so both sides always
	// agree on whether an exit matches an enter.
	gateStacks [NumThreads][]mpk.PKRU

	slots [NumSlots]slot

	// Virtual-key multiplexing under differential test: the real table,
	// the per-tenant logical-key IDs (0 = dead), which tenants have their
	// page and library, the model-side mirror predicting slot assignment,
	// and each thread's open tenant calls.
	vkeys   *vkey.Table
	vkeyID  [MaxTenants]vkey.ID
	housed  [MaxTenants]bool
	vmir    *vkeyMirror
	calls   [NumThreads][]tenantCall
	opening tenantCall // the call serve is entering

	// pending is the access the ffi library function performs. Traces run
	// single-goroutine, so one cell suffices.
	pending access

	// probe accumulates interesting addresses for the final key-map sweep.
	probe map[vm.Addr]struct{}

	res *Result
}

// Run replays the trace against the real vm/mpk/sig/heap/ffi stack and the
// reference model in lockstep and reports every divergence.
func Run(tr Trace, opts Options) *Result {
	r := &runner{
		opts:   opts,
		space:  vm.NewSpace(),
		sigs:   new(sig.Table),
		reg:    ffi.NewRegistry(),
		shadow: new(provenance.Shadow),
		probe:  make(map[vm.Addr]struct{}),
		res: &Result{Trace: tr, Counts: make(map[OutcomeKind]int),
			Recovery: make(map[string]int), Recovered: make(map[supervise.Policy]int)},
	}
	if opts.Inject == InjectStalePageIndex {
		r.space.InjectStalePageIndex(true)
	}
	alloc, err := pkalloc.New(pkalloc.Config{Space: r.space})
	if err != nil {
		panic("conformance: pkalloc setup: " + err.Error())
	}
	r.alloc = alloc
	r.reg.MustLibrary("unsafe", ffi.Untrusted).Define("touch", r.touch)
	r.reg.MustLibrary("safe", ffi.Trusted).Define("touch", r.touch)
	r.rt = ffi.NewRuntime(r.reg, alloc, r.sigs, ffi.GatesOn)
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

	// Virtual-key tenants get a page each on their first OpVKeyAlloc. The
	// table gets only VKeySlots multiplexable slots (see
	// vkeyReservedKeys), so traces evict and recycle without needing
	// fourteen tenants.
	vt, err := vkey.NewTable(r.space, vkey.Config{Reserved: vkeyReservedKeys})
	if err != nil {
		panic("conformance: vkey setup: " + err.Error())
	}
	if opts.Inject == InjectStaleSlot {
		vt.InjectStaleEviction(true)
	}
	r.vkeys = vt
	r.vmir = newVKeyMirror(r.model, vkey.InactiveKey)

	// Supervision: the recorder renders the report a healed fault would
	// have died with, from the shadow MT allocations keep up to date.
	rec := obs.NewRecorder(obs.Config{Space: r.space, TrustedKey: alloc.TrustedKey(), BuildConfig: "mpk", Shadow: r.shadow})
	rec.Install(r.sigs)
	for p := supervise.Retry; p <= supervise.Heal; p++ {
		r.sups[p] = supervise.New(supervise.Config{Policy: p},
			supervise.Deps{Alloc: alloc, Shadow: r.shadow, Recorder: rec})
	}

	if opts.Inject == InjectSwallowSegv {
		installSwallowingHandler(r.sigs)
	}

	for i, op := range tr.Ops {
		r.step(i, op)
	}
	r.sweepKeyMap()
	r.res.VKeyStats = r.vkeys.Stats()
	for tid := range r.calls {
		for len(r.calls[tid]) > 0 {
			r.returnTenant(tid)
		}
	}
	return r.res
}

// probeAddr marks an address for the end-of-trace key-map sweep.
func (r *runner) probeAddr(a vm.Addr) { r.probe[a] = struct{}{} }

// touch is the library function OpGateCall and OpSupervisedCall route
// through: it performs the pending access on the calling thread's checked
// view of memory.
func (r *runner) touch(t *ffi.Thread, _ []uint64) ([]uint64, error) {
	r.pending.attempts++
	if r.pending.flaky && r.pending.attempts > 1 {
		return nil, nil
	}
	buf := make([]byte, r.pending.width)
	if r.pending.write {
		return nil, t.VM.Write(r.pending.addr, buf)
	}
	return nil, t.VM.Read(r.pending.addr, buf)
}

// tenantLib names the untrusted library bound to vkey tenant vs.
func tenantLib(vs int) string { return fmt.Sprintf("vtenant%d", vs) }

// house gives tenant vs its page, reserved on the shared key on both
// sides, and its library, on the tenant's first OpVKeyAlloc. A trace
// reservation already covering the page is diffed as such: both sides
// refuse the overlap, and the tenant attaches to the trace's page.
func (r *runner) house(vs int) {
	if r.housed[vs] {
		return
	}
	r.housed[vs] = true
	r.space.Reserve(fmt.Sprintf("vkey/t%d", vs), vkeyPage(vs), vm.PageSize, 0)
	r.model.Reserve(vkeyPage(vs), vm.PageSize, 0)
	r.probeAddr(vkeyPage(vs))
	r.reg.MustLibrary(tenantLib(vs), ffi.Untrusted).Define("serve", r.serve)
}

// tenantCall is one open call into a tenant library. OpVKeyEnter is a real
// call through the thread's gates, so the thread's frames are the
// compartment stack under test. It runs on a goroutine of its own, parked
// in serve until OpVKeyLeave returns it; the ops in between run on the
// executor's goroutine, pushing their frames on top of the open calls.
type tenantCall struct {
	ret  chan struct{} // closed to return from serve
	done chan error    // the gate's entry result, then its exit result
}

// serve is every tenant library's function: it reports the call entered
// and waits to be returned.
func (r *runner) serve(*ffi.Thread, []uint64) ([]uint64, error) {
	c := r.opening
	c.done <- nil
	<-c.ret
	return nil, nil
}

// callTenant opens a call from thread tid into tenant vs and reports the
// gate entry's result.
func (r *runner) callTenant(tid, vs int) error {
	c := tenantCall{ret: make(chan struct{}), done: make(chan error)}
	r.opening = c
	th := r.ths[tid]
	go func() {
		_, err := th.Call(tenantLib(vs), "serve")
		c.done <- err
	}()
	err := <-c.done
	if err == nil {
		r.calls[tid] = append(r.calls[tid], c)
	}
	return err
}

// returnTenant returns from thread tid's innermost tenant call and reports
// the gate exit's result.
func (r *runner) returnTenant(tid int) error {
	c := r.calls[tid][len(r.calls[tid])-1]
	r.calls[tid] = r.calls[tid][:len(r.calls[tid])-1]
	close(c.ret)
	return <-c.done
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
		r.pending = access{addr: addr, width: width, write: write}
		lib := "unsafe"
		if op.Flags&FlagTrustedLib != 0 {
			lib = "safe"
		}
		_, err := th.Call(lib, "touch")
		real = realAccessOutcome(err)
		inTenant := len(r.vmir.stacks[tid]) > 0
		switch {
		case inTenant && lib == "safe":
			// A reverse gate out of the tenant: full rights for the call,
			// the tenant's compartment re-derived on return.
			r.model.SetPKRU(tid, mpk.PermitAll)
			model = r.model.Access(tid, addr, width, write)
			r.vmir.returnToTenant(tid)
		case !inTenant && lib == "unsafe":
			r.model.GateEnter(tid)
			model = r.model.Access(tid, addr, width, write)
			r.model.GateExit(tid)
		default:
			// Trusted to trusted, or a tenant calling a plain untrusted
			// library: no gate, the caller's rights.
			model = r.model.Access(tid, addr, width, write)
		}

	case OpSupervisedCall:
		addr, ok := r.target(op)
		if !ok || len(r.calls[tid]) > 0 {
			r.skip()
			return
		}
		p := supervisedPolicy(op)
		r.pending = access{addr: addr, width: accessWidth(op), write: op.Flags&FlagWrite != 0, flaky: op.Flags&FlagFlaky != 0}
		sup := r.sups[p]
		logged := len(sup.Events())
		_, err := sup.Call(th, "unsafe", "touch")
		real = realAccessOutcome(err)
		real.Attempts = r.pending.attempts
		var acts []string
		for _, e := range sup.Events()[logged:] {
			acts = append(acts, e.Action)
			r.res.Recovery[e.Action]++
			if e.Action == "quarantine" {
				r.dropUntrustedSlots()
			}
		}
		real.Recovery = strings.Join(acts, " ")
		if err == nil && real.Attempts > 1 {
			r.res.Recovered[p]++
		}
		if r.opts.Inject == InjectSkipRecoveryRestore && sup != nil && (err != nil || real.Attempts > 1) {
			// Planted bug: trusted code resumes after recovery with the
			// untrusted rights still installed.
			th.VM.SetRights(r.rt.UntrustedPKRU())
		}
		model = r.model.SupervisedCall(tid, p, addr, r.pending.width, r.pending.write, r.pending.flaky)

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
		var addr vm.Addr
		err := heapCall(func() (err error) { addr, err = r.alloc.AllocIn(comp, size); return })
		if err == nil {
			*s = slot{addr: addr, size: size, live: true, untrusted: comp == pkalloc.Untrusted}
			r.track(op.Slot%NumSlots, s)
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
		var addr vm.Addr
		err := heapCall(func() (err error) { addr, err = r.alloc.Realloc(s.addr, size); return })
		if err == nil {
			r.untrack(s)
			s.addr, s.size = addr, size
			r.track(op.Slot%NumSlots, s)
		}
		real, model = okOrRejected(err == nil), Outcome{Kind: Skipped}

	case OpFree:
		s := &r.slots[int(op.Slot)%NumSlots]
		if !s.live {
			r.skip()
			return
		}
		err := heapCall(func() error { return r.alloc.Free(s.addr) })
		r.untrack(s)
		s.live = false
		real, model = okOrRejected(err == nil), Outcome{Kind: Skipped}

	case OpVKeyAlloc:
		vs := int(op.Slot)
		if r.vkeyID[vs] != 0 {
			r.skip()
			return
		}
		r.house(vs)
		id := r.vkeys.Alloc(tenantLib(vs))
		err := r.vkeys.Attach(id, vkeyPage(vs), vm.PageSize)
		if err == nil {
			r.vkeyID[vs] = id
			r.rt.BindLibraryDomain(tenantLib(vs), ffi.DomainBinding{Table: r.vkeys, Key: id})
		}
		real = okOrRejected(err == nil)
		r.vmir.alloc(vs)
		model = Outcome{Kind: OK}

	case OpVKeyFree:
		vs := int(op.Slot)
		if r.vkeyID[vs] == 0 {
			r.skip()
			return
		}
		err := r.vkeys.Free(r.vkeyID[vs])
		if err == nil {
			r.vkeyID[vs] = 0
			r.rt.BindLibraryDomain(tenantLib(vs), ffi.DomainBinding{})
		}
		real = okOrRejected(err == nil)
		model = okOrRejected(r.vmir.release(vs))

	case OpVKeyEnter:
		vs := int(op.Slot)
		if r.vkeyID[vs] == 0 {
			r.skip()
			return
		}
		real = okOrRejected(r.callTenant(tid, vs) == nil)
		r.vmir.enter(tid, vs)
		model = Outcome{Kind: OK}

	case OpVKeyLeave:
		if len(r.vmir.stacks[tid]) == 0 {
			r.skip()
			return
		}
		real = okOrRejected(r.returnTenant(tid) == nil)
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
	// Gate depth diff: between ops the only open gates are the thread's
	// tenant calls, so a frame any op leaves behind, or pops twice, shows
	// here.
	realDepth, modelDepth := th.Depth(), r.vmir.gates(tid)
	if realDepth != modelDepth {
		r.diverge(Divergence{Index: i, Op: op, What: "depth",
			Real: Outcome{Kind: real.Kind, PKRU: realPKRU, Depth: realDepth}, Model: Outcome{Kind: model.Kind, PKRU: modelPKRU, Depth: modelDepth}})
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

// heapCall runs one allocator call. MU keeps its free-list metadata in
// band, where an untrusted overrun can corrupt it; the heap then panics,
// as libc's malloc aborts. The model judges no allocator, so the executor
// records the call as refused and replays on.
func heapCall(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("conformance: heap: %v", v)
		}
	}()
	return f()
}

// track records slot n's allocation, when it is an MT one, in the shadow
// and in the model: the objects a heal may migrate.
func (r *runner) track(n uint8, s *slot) {
	if s.untrusted {
		return
	}
	r.shadow.Track(provenance.Entry{Base: s.addr, Size: s.size, ID: profile.AllocID{Func: "trace", Site: uint32(n)}})
	r.model.Track(s.addr, s.size)
}

// untrack drops an MT slot's allocation from the shadow and the model.
func (r *runner) untrack(s *slot) {
	if s.untrusted {
		return
	}
	r.shadow.Untrack(s.addr)
	r.model.Untrack(s.addr)
}

// dropUntrustedSlots kills every MU slot after a quarantine reset the pool
// under them.
func (r *runner) dropUntrustedSlots() {
	for i := range r.slots {
		if r.slots[i].untrusted {
			r.slots[i].live = false
		}
	}
}

func (r *runner) diverge(d Divergence) {
	r.res.Divergences = append(r.res.Divergences, d)
}

// sweepKeyMap compares the real page-key view against the model at every
// interesting address the trace touched: reservation edges, retag edges,
// every page of the live allocations (a heal retags some) and the pool
// bases.
func (r *runner) sweepKeyMap() {
	for _, s := range r.slots {
		for a := s.addr; s.live && a <= s.addr+vm.Addr(s.size); a += vm.PageSize {
			r.probeAddr(a)
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
