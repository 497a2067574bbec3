package conformance

import (
	"repro/internal/mpk"
	"repro/internal/vm"
)

// Virtual-key executor sizing. The executor reserves most hardware keys
// away from the vkey table so only three multiplexable slots remain:
// generated traces then reach eviction and slot recycling within a few
// enters instead of needing fourteen distinct tenants.
const (
	// NumVKeySlots is the size of the vkey tenant table OpVKey* ops index
	// into. More tenants than hardware slots, so activation must evict.
	NumVKeySlots = 8
	// vkeyBase is the window holding one page per tenant, clear of the
	// scratch window and both pkalloc pools.
	vkeyBase vm.Addr = 0x1200_0000_0000
)

// vkeyReservedKeys are the hardware keys the executor's vkey table must
// not multiplex (beyond the implicit shared key 0 and the parking key):
// the trusted pool key, plus filler keys that shrink the slot pool to
// {12, 13, 14}.
var vkeyReservedKeys = []mpk.Key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}

// vkeyPage returns the page owned by vkey tenant vs.
func vkeyPage(vs int) vm.Addr { return vkeyBase + vm.Addr(vs)*vm.PageSize }

// vkeyMirror is the model-side reimplementation of vkey.Table's slot
// multiplexing: the same free-stack discipline (built ascending, popped
// from the end), the same LRU victim selection (the activation clock is
// strictly increasing, so last-use times never tie), and the same
// park/rebind/revoke order on eviction. It predicts — deterministically
// and without consulting the real table — which hardware slot every
// activation lands on; any drift between the two machines surfaces as a
// PKRU or keymap divergence in the differential executor.
type vkeyMirror struct {
	m        *Model
	inactive mpk.Key
	free     []mpk.Key
	clock    uint64
	ents     [NumVKeySlots]vkeyEnt
	stacks   [NumThreads][]vkeyFrame // open tenant calls, innermost last
}

// vkeyFrame mirrors one open tenant call on a thread's frame stack.
type vkeyFrame struct {
	vs    int      // the tenant called
	gated bool     // the call crossed into another compartment
	prev  mpk.PKRU // rights at the call, restored when the caller is static
}

// vkeyEnt mirrors one logical key: live from alloc to free, active while
// bound to the hardware slot hw.
type vkeyEnt struct {
	live    bool
	active  bool
	hw      mpk.Key
	lastUse uint64
}

func newVKeyMirror(m *Model, inactive mpk.Key) *vkeyMirror {
	mir := &vkeyMirror{m: m, inactive: inactive}
	reserved := map[mpk.Key]bool{0: true, inactive: true}
	for _, k := range vkeyReservedKeys {
		reserved[k] = true
	}
	for k := mpk.Key(0); k < mpk.NumKeys; k++ {
		if !reserved[k] {
			mir.free = append(mir.free, k)
		}
	}
	return mir
}

// retag moves the tenant's page to key in the model's key map. The page is
// reserved at executor setup, so a refusal is a harness bug.
func (v *vkeyMirror) retag(vs int, key mpk.Key) {
	if !v.m.SetPKey(vkeyPage(vs), vm.PageSize, key) {
		panic("conformance: vkey mirror retag refused")
	}
}

// alloc mirrors Table.Alloc followed by Attach: the fresh logical key
// starts parked, so the tenant page moves to the inactive key.
func (v *vkeyMirror) alloc(vs int) {
	v.ents[vs] = vkeyEnt{live: true}
	v.retag(vs, v.inactive)
}

// busy reports whether the tenant has an open call on any thread — the
// condition under which Table.Free refuses with ErrKeyBusy.
func (v *vkeyMirror) busy(vs int) bool {
	for tid := range v.stacks {
		for _, f := range v.stacks[tid] {
			if f.vs == vs {
				return true
			}
		}
	}
	return false
}

// release mirrors Table.Free; false means the key was refused as busy.
func (v *vkeyMirror) release(vs int) bool {
	if v.busy(vs) {
		return false
	}
	if v.ents[vs].active {
		v.unbind(vs)
	} else {
		v.retag(vs, v.inactive)
	}
	v.ents[vs].live = false
	return true
}

// unbind mirrors unbindLocked: the tenant's page is parked on the
// inactive key, the slot returns to the free stack, and the slot's rights
// are revoked from every bound restricted thread.
func (v *vkeyMirror) unbind(vs int) {
	e := &v.ents[vs]
	v.retag(vs, v.inactive)
	hw := e.hw
	e.active = false
	v.free = append(v.free, hw)
	v.revoke(hw)
}

// revoke mirrors revokeLocked: every thread inside a tenant's compartment
// (an open tenant call between ops) loses its grant for the rebound slot,
// except a trusted full-rights register, which is exempt.
func (v *vkeyMirror) revoke(hw mpk.Key) {
	for tid := range v.stacks {
		if len(v.stacks[tid]) == 0 {
			continue
		}
		r := v.m.PKRU(tid)
		if r == mpk.PermitAll {
			continue
		}
		if r.Rights(hw) != mpk.DenyAll {
			v.m.SetPKRU(tid, r.With(hw, mpk.DenyAll))
		}
	}
}

// activate mirrors activateLocked: tick the clock, return the bound slot
// on a hit, otherwise bind the tenant — evicting the least-recently-used
// entry when the free stack is empty.
func (v *vkeyMirror) activate(vs int) mpk.Key {
	e := &v.ents[vs]
	v.clock++
	e.lastUse = v.clock
	if e.active {
		return e.hw
	}
	if len(v.free) == 0 {
		victim := -1
		for i := range v.ents {
			if v.ents[i].active && (victim < 0 || v.ents[i].lastUse < v.ents[victim].lastUse) {
				victim = i
			}
		}
		if victim < 0 {
			panic("conformance: vkey mirror has no slot and no victim")
		}
		v.unbind(victim)
	}
	hw := v.free[len(v.free)-1]
	v.free = v.free[:len(v.free)-1]
	e.hw, e.active = hw, true
	v.retag(vs, hw)
	return hw
}

// enter mirrors an ffi call from thread tid into tenant vs's library. A
// call from outside the tenant's compartment is a domain gate: the tenant
// is activated and its rights installed. A call from inside it is plain.
func (v *vkeyMirror) enter(tid, vs int) {
	st := v.stacks[tid]
	f := vkeyFrame{vs: vs, prev: v.m.PKRU(tid)}
	if len(st) == 0 || st[len(st)-1].vs != vs {
		f.gated = true
		v.m.SetPKRU(tid, mpk.DenyAllExcept(0, v.activate(vs)))
	}
	v.stacks[tid] = append(st, f)
}

// leave mirrors the call's return. A gate's exit restores the caller's
// compartment: a tenant below is re-derived (re-activating it, never
// replaying a saved PKRU), a static caller gets its rights back.
func (v *vkeyMirror) leave(tid int) {
	st := v.stacks[tid]
	f := st[len(st)-1]
	v.stacks[tid] = st[:len(st)-1]
	switch {
	case !f.gated:
	case len(st) >= 2:
		v.returnToTenant(tid)
	default:
		v.m.SetPKRU(tid, f.prev)
	}
}

// returnToTenant mirrors a gate's exit into the tenant compartment on top
// of thread tid's stack: its rights are re-derived.
func (v *vkeyMirror) returnToTenant(tid int) {
	st := v.stacks[tid]
	v.m.SetPKRU(tid, mpk.DenyAllExcept(0, v.activate(st[len(st)-1].vs)))
}
