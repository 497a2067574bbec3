// Package vkey virtualizes protection keys in the style of libmpk: an
// unbounded space of logical keys (vkey.ID) is multiplexed onto the 16
// hardware mpk.Key slots through an LRU eviction cache.
//
// Hardware MPK gives a process 16 keys; production systems want one
// compartment per tenant or per library, which exhausts the hardware in
// minutes of tenant churn. The Table lifts the cap: a logical key is
// created with Alloc, tied to page ranges with Attach, and bound to a
// hardware slot lazily on Activate. When every slot is taken, the
// least-recently-activated logical key is evicted — its pages are retagged
// to a reserved *inactive* hardware key that no restricted PKRU ever
// grants (pkey_sync semantics: an evicted key's memory becomes
// inaccessible, not unprotected), and the freed slot's rights are revoked
// in every bound vm.Thread's PKRU register. That revocation is the defense
// against the Garmr stale-PKRU hazard: a thread still holding rights for a
// hardware slot after the slot was rebound to a different logical key
// would otherwise reach the new tenant's memory.
//
// Freeing a logical key parks its pages on the inactive key and recycles
// the slot, so tenant churn never exhausts the hardware — the key-leak the
// old fixed-key domain manager had.
package vkey

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/mpk"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// ID is a logical protection key. IDs are never reused; the zero ID is
// invalid, so a forgotten Alloc shows up as ErrUnknownKey, not as key 0.
type ID uint32

func (id ID) String() string { return fmt.Sprintf("vkey%d", uint32(id)) }

// DefaultInactiveKey is the hardware key evicted and freed logical keys'
// pages are parked on. Restricted PKRU values built with
// mpk.DenyAllExcept never grant it, so parked memory faults on any
// untrusted access; only the trusted compartment's full-rights register
// (mpk.PermitAll) can still reach it.
const DefaultInactiveKey mpk.Key = 15

// ErrUnknownKey is returned for operations on an ID the table never
// allocated or has already freed.
var ErrUnknownKey = errors.New("vkey: unknown or freed logical key")

// ErrNoSlots is returned when Activate needs a hardware slot and every
// slot is held by a key that cannot be evicted — all active keys are
// pinned. The activation fails closed rather than evicting a pinned
// latency-critical tenant.
var ErrNoSlots = errors.New("vkey: no hardware slot available")

// ErrPinLimit is returned by Pin when granting the pin could leave the
// table without a single evictable slot: at most nslots-1 keys may be
// pinned at once, so an activation can always find an LRU victim and the
// workload keeps its liveness no matter how many tenants ask for pins.
var ErrPinLimit = errors.New("vkey: pin limit reached, would leave no evictable slot")

// ErrKeyBusy is returned by Free for a logical key that is live on some
// register's compartment stack: a thread is currently executing inside
// the key's compartment (or will return into it), and freeing the key
// under it would strand that thread — its Leave could no longer re-derive
// the compartment's rights.
var ErrKeyBusy = errors.New("vkey: logical key is entered on a live compartment stack")

// ErrNotEntered is returned by Leave on a register with an empty
// compartment stack.
var ErrNotEntered = errors.New("vkey: leave with no entered compartment")

// Config parameterizes NewTable.
type Config struct {
	// Reserved lists hardware keys the table must never hand out: key 0
	// (the shared/default key) and the trusted pool's key at minimum.
	// Key 0 and Inactive are always treated as reserved.
	Reserved []mpk.Key
	// Inactive is the parking key (DefaultInactiveKey when zero).
	Inactive mpk.Key
}

// span is one page range attached to a logical key.
type span struct {
	base vm.Addr
	size uint64
}

// entry is one live logical key.
type entry struct {
	id        ID
	name      string
	hw        mpk.Key // valid only when active
	active    bool    // bound to a hardware slot
	faulted   bool
	pinned    bool // exempt from LRU eviction (libmpk pkey_pin)
	ranges    []span
	lastUse   uint64 // LRU clock tick of the most recent Activate
	evictions uint64 // times this key was pushed off a slot by LRU
}

// EvictionSink receives one call per LRU eviction: the rights register
// whose activation triggered it (nil when the eviction came from a
// register-less Activate), the victim's name, and the hardware slot that
// was rebound. A plain func type rather than an interface so the tracing
// layer can satisfy it without importing vkey. Called with the table lock
// held — implementations must not call back into the table.
type EvictionSink func(trigger mpk.RightsRegister, victim string, slot mpk.Key)

// Stats is a snapshot of the table's state and activity. The counters are
// monotone; the gauges describe the instant of the snapshot.
type Stats struct {
	Slots   int // multiplexable hardware slots
	Logical int // live logical keys (active + parked)
	Active  int // logical keys currently bound to a hardware slot
	Parked  int // logical keys evicted to the inactive key
	Faulted int // live logical keys marked faulted
	Pinned  int // live logical keys exempt from LRU eviction

	Activations   uint64 // Activate calls
	SlotHits      uint64 // Activate found the key already bound
	SlotMisses    uint64 // Activate had to bind (and possibly evict)
	Evictions     uint64 // logical keys pushed off a slot
	Recycled      uint64 // hardware slots returned by Free
	Invalidations uint64 // bound-thread PKRU revocations on eviction
}

// Table multiplexes logical keys onto hardware slots. It is safe for
// concurrent use.
type Table struct {
	mu       sync.Mutex
	space    *vm.Space
	inactive mpk.Key
	free     []mpk.Key           // unbound hardware slots
	slots    [mpk.NumKeys]*entry // bound entry per hardware slot, nil when free
	entries  map[ID]*entry
	threads  map[mpk.RightsRegister]struct{}
	// stacks is the per-register compartment stack: the nesting of logical
	// keys entered through Enter (0 = the trusted compartment). Leave
	// re-derives the frame below instead of replaying saved PKRU bits, so
	// an eviction while a callee ran can never resurrect rights for a
	// rebound slot — the discipline domain entry and the ffi domain gates
	// share. Emptied stacks wait in spare for reuse, so entering from an
	// empty stack does not allocate.
	stacks  map[mpk.RightsRegister][]ID
	spare   [][]ID
	clock   uint64
	nextID  ID
	nslots  int
	muxKeys []mpk.Key // every multiplexable slot, fixed at NewTable

	activations   uint64
	slotHits      uint64
	slotMisses    uint64
	evictions     uint64
	recycled      uint64
	invalidations uint64
	faulted       int
	pinned        int

	// staleEvict, when set, sabotages eviction by skipping the retag of
	// the victim's pages — the planted stale-slot-after-eviction bug the
	// conformance oracle must catch. Never set outside fault injection.
	staleEvict bool

	tel  *tableTelemetry
	sink EvictionSink
}

// NewTable builds a table over space. Every architecturally valid key that
// is neither reserved nor the inactive key becomes a multiplexable slot.
func NewTable(space *vm.Space, cfg Config) (*Table, error) {
	if space == nil {
		return nil, errors.New("vkey: space is required")
	}
	inactive := cfg.Inactive
	if inactive == 0 {
		inactive = DefaultInactiveKey
	}
	if !inactive.Valid() {
		return nil, fmt.Errorf("vkey: invalid inactive key %d", inactive)
	}
	reserved := map[mpk.Key]bool{0: true, inactive: true}
	for _, k := range cfg.Reserved {
		if !k.Valid() {
			return nil, fmt.Errorf("vkey: invalid reserved key %d", k)
		}
		reserved[k] = true
	}
	t := &Table{
		space:    space,
		inactive: inactive,
		entries:  make(map[ID]*entry),
		threads:  make(map[mpk.RightsRegister]struct{}),
		stacks:   make(map[mpk.RightsRegister][]ID),
		nextID:   1,
	}
	for k := mpk.Key(0); k < mpk.NumKeys; k++ {
		if !reserved[k] {
			t.free = append(t.free, k)
		}
	}
	t.muxKeys = append([]mpk.Key(nil), t.free...)
	t.nslots = len(t.free)
	if t.nslots == 0 {
		return nil, errors.New("vkey: every hardware key is reserved")
	}
	return t, nil
}

// InactiveKey returns the parking key evicted pages are retagged to.
func (t *Table) InactiveKey() mpk.Key { return t.inactive }

// Slots returns the number of multiplexable hardware slots.
func (t *Table) Slots() int { return t.nslots }

// Alloc creates a new logical key. The key starts parked (no hardware
// slot, no pages); Attach ties pages to it and Activate binds a slot.
func (t *Table) Alloc(name string) ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	t.entries[id] = &entry{id: id, name: name}
	t.publish()
	return id
}

// Free releases a logical key: its pages are parked on the inactive key,
// its hardware slot (if any) returns to the free pool, and the ID becomes
// invalid. The caller is responsible for scrubbing the pages first if they
// held tenant data (pkalloc's quarantine semantics). A key that is live on
// any register's compartment stack is refused with ErrKeyBusy — freeing it
// would leave a thread inside (or returning into) a compartment whose
// rights can no longer be re-derived.
func (t *Table) Free(id ID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownKey, id)
	}
	for reg, st := range t.stacks {
		for _, fid := range st {
			if fid == id {
				return fmt.Errorf("%w: %v entered on %d-deep stack of register %p",
					ErrKeyBusy, id, len(st), reg)
			}
		}
	}
	if e.active {
		if err := t.unbindLocked(e); err != nil {
			return err
		}
		t.recycled++
	} else if err := t.retagLocked(e, t.inactive); err != nil {
		// Parked entries are already on the inactive key; the retag is a
		// no-op repeated here only so a failure cannot leak tagged pages.
		return err
	}
	if e.faulted {
		t.faulted--
	}
	if e.pinned {
		t.pinned--
	}
	delete(t.entries, id)
	t.publish()
	return nil
}

// Attach ties the page range [base, base+size) to the logical key: the
// range is retagged to the key's current binding — its hardware slot when
// active, the inactive key when parked — and is retagged again on every
// later eviction and activation. The range must be page-aligned and fully
// reserved in the table's space.
func (t *Table) Attach(id ID, base vm.Addr, size uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownKey, id)
	}
	key := t.inactive
	if e.active {
		key = e.hw
	}
	if err := t.space.SetPKey(base, size, key); err != nil {
		return fmt.Errorf("vkey: attach %v: %w", id, err)
	}
	e.ranges = append(e.ranges, span{base: base, size: size})
	return nil
}

// Activate ensures the logical key is bound to a hardware slot, evicting
// the least-recently-activated key if every slot is taken, and returns the
// slot. The boolean reports a miss: the key was not bound on entry and a
// slot had to be found for it.
func (t *Table) Activate(id ID) (mpk.Key, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.activateLocked(id, nil)
}

// activateLocked binds id to a slot, evicting the LRU key when none is
// free. trigger is the rights register whose transition demanded the
// activation (nil for bare Activate calls); it is handed to the eviction
// sink so an eviction can be attributed to the request that caused it.
func (t *Table) activateLocked(id ID, trigger mpk.RightsRegister) (mpk.Key, bool, error) {
	e, ok := t.entries[id]
	if !ok {
		return 0, false, fmt.Errorf("%w: %v", ErrUnknownKey, id)
	}
	t.activations++
	t.clock++
	e.lastUse = t.clock
	if e.active {
		t.slotHits++
		return e.hw, false, nil
	}
	t.slotMisses++
	if len(t.free) == 0 {
		victim := t.lruLocked()
		if victim == nil {
			return 0, false, ErrNoSlots
		}
		t.evictions++
		victim.evictions++
		vhw := victim.hw
		if err := t.unbindLocked(victim); err != nil {
			return 0, false, err
		}
		if t.sink != nil {
			t.sink(trigger, victim.name, vhw)
		}
	}
	hw := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	e.hw, e.active = hw, true
	t.slots[hw] = e
	if err := t.retagLocked(e, hw); err != nil {
		return 0, false, err
	}
	t.publish()
	return hw, true, nil
}

// HardwareKey returns the slot the key is currently bound to, if any.
func (t *Table) HardwareKey(id ID) (mpk.Key, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok || !e.active {
		return 0, false
	}
	return e.hw, true
}

// Trusted is the frame value for the trusted compartment on a register's
// compartment stack: Enter(reg, Trusted) installs full rights (the reverse
// gate into T), and Leave out of a frame whose caller is Trusted restores
// mpk.PermitAll.
const Trusted ID = 0

// rightsLocked derives the PKRU for a compartment-stack frame: full rights
// for the trusted frame, otherwise the shared key 0 plus the logical key's
// (freshly activated, possibly just rebound) hardware slot.
func (t *Table) rightsLocked(id ID, trigger mpk.RightsRegister) (mpk.PKRU, error) {
	if id == Trusted {
		return mpk.PermitAll, nil
	}
	hw, _, err := t.activateLocked(id, trigger)
	if err != nil {
		return 0, err
	}
	return mpk.DenyAllExcept(0, hw), nil
}

// Enter switches reg into the logical key's compartment (Trusted for the
// trusted compartment) and pushes the frame onto reg's compartment stack.
// The whole transition is atomic with respect to eviction: the table lock
// is held from slot activation through the audited rights installation, so
// a concurrent Activate cannot evict the key and rebind its slot between
// the two — the window a bare Activate-then-install leaves open. Entering
// also binds reg for eviction-time revocation, so a later eviction of any
// key the register still grants strips those rights immediately.
//
// The frame is pushed (and reg left bound, if this was its first frame)
// only after the installation verifies; a failed audit leaves the stack
// untouched.
func (t *Table) Enter(reg mpk.RightsRegister, id ID) (mpk.PKRU, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rights, err := t.rightsLocked(id, reg)
	if err != nil {
		return 0, err
	}
	_, wasBound := t.threads[reg]
	t.threads[reg] = struct{}{}
	if err := mpk.InstallAudited(reg, rights); err != nil {
		if !wasBound {
			delete(t.threads, reg)
		}
		return 0, err
	}
	st, ok := t.stacks[reg]
	if !ok && len(t.spare) > 0 {
		st = t.spare[len(t.spare)-1]
		t.spare = t.spare[:len(t.spare)-1]
	}
	t.stacks[reg] = append(st, id)
	return rights, nil
}

// Leave exits the top frame of reg's compartment stack: the rights of the
// frame below are re-derived — re-activating its logical key, never
// replaying a saved PKRU whose slot grants may have been rebound to a
// different tenant while the callee ran (the Garmr stale-PKRU hazard).
// When the top frame is the bottom of the stack, outside is installed
// instead: the rights the register held before its first Enter, which the
// caller saved (mpk.PermitAll, or the legacy two-compartment untrusted
// value — static values no eviction can invalidate).
//
// The pop commits only after the installation verifies, so a failed audit
// leaves the stack intact and Leave can be retried without unwinding past
// the caller's own frame. When the stack empties the register is unbound
// from eviction-time revocation, atomically with the installation.
func (t *Table) Leave(reg mpk.RightsRegister, outside mpk.PKRU) (mpk.PKRU, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stacks[reg]
	if len(st) == 0 {
		return 0, ErrNotEntered
	}
	rights := outside
	if len(st) >= 2 {
		// The frame below cannot have been freed out from under us:
		// Free refuses keys live on any compartment stack (ErrKeyBusy).
		var err error
		if rights, err = t.rightsLocked(st[len(st)-2], reg); err != nil {
			return 0, err
		}
	}
	if err := mpk.InstallAudited(reg, rights); err != nil {
		return 0, err
	}
	if len(st) == 1 {
		delete(t.stacks, reg)
		delete(t.threads, reg)
		t.spare = append(t.spare, st[:0])
	} else {
		t.stacks[reg] = st[:len(st)-1]
	}
	return rights, nil
}

// Refresh re-installs the rights of reg's current top frame, re-activating
// its logical key, or installs fallback when reg has no frames. It is the
// exit half of a gate that did not change the compartment stack (a plain
// T/U gate taken while a domain frame is live): replaying the PKRU saved
// at gate entry would resurrect slot grants an eviction may have rebound,
// so the current compartment is derived fresh instead.
func (t *Table) Refresh(reg mpk.RightsRegister, fallback mpk.PKRU) (mpk.PKRU, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rights := fallback
	if st := t.stacks[reg]; len(st) > 0 {
		var err error
		if rights, err = t.rightsLocked(st[len(st)-1], reg); err != nil {
			return 0, err
		}
	}
	if err := mpk.InstallAudited(reg, rights); err != nil {
		return 0, err
	}
	return rights, nil
}

// Current returns the logical key of reg's top compartment-stack frame,
// or Trusted when the register has no frames (it never entered, or every
// frame left).
func (t *Table) Current(reg mpk.RightsRegister) ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stacks[reg]
	if len(st) == 0 {
		return Trusted
	}
	return st[len(st)-1]
}

// Depth returns reg's compartment-stack depth.
func (t *Table) Depth(reg mpk.RightsRegister) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.stacks[reg])
}

// TruncateTo force-pops reg's compartment stack to depth without
// installing any rights — the supervisor's unwind backstop, run before it
// reinstalls a checkpointed PKRU. Deeper-than-current depths are a no-op.
// Emptying the stack unbinds the register.
func (t *Table) TruncateTo(reg mpk.RightsRegister, depth int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stacks[reg]
	if depth < 0 || depth >= len(st) {
		return
	}
	if depth == 0 {
		delete(t.stacks, reg)
		delete(t.threads, reg)
		t.spare = append(t.spare, st[:0])
		return
	}
	t.stacks[reg] = st[:depth]
}

// lruLocked picks the evictable active entry with the oldest lastUse.
// Pinned entries are never candidates — the libmpk pkey_pin semantics:
// a latency-critical tenant's slot survives a noisy neighbour's churn.
// Returns nil when every active entry is pinned (Activate fails closed
// with ErrNoSlots).
func (t *Table) lruLocked() *entry {
	var victim *entry
	for _, e := range t.slots {
		if e == nil || e.pinned {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	return victim
}

// Pin exempts the logical key from LRU eviction: while pinned, its
// hardware slot (once bound) cannot be stolen by another key's
// activation — the libmpk pkey_pin precedent, used by the resilience
// layer to protect healthy latency-critical tenants while a flapping
// tenant half-open-probes its way back. Pinning a parked key is legal;
// the exemption takes effect at its next activation. Pins are
// eviction-aware: at most nslots-1 keys may be pinned, so the table
// always keeps one evictable slot and activations never starve; a pin
// past that limit is refused with ErrPinLimit rather than traded
// against liveness.
func (t *Table) Pin(id ID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownKey, id)
	}
	if !e.pinned {
		if t.pinned >= t.nslots-1 {
			return fmt.Errorf("%w: %d of %d slots", ErrPinLimit, t.pinned, t.nslots)
		}
		e.pinned = true
		t.pinned++
		t.publish()
	}
	return nil
}

// Unpin makes the logical key evictable again.
func (t *Table) Unpin(id ID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownKey, id)
	}
	if e.pinned {
		e.pinned = false
		t.pinned--
		t.publish()
	}
	return nil
}

// Pinned reports whether the logical key is currently pinned.
func (t *Table) Pinned(id ID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	return ok && e.pinned
}

// unbindLocked pushes an active entry off its slot: pages are parked on
// the inactive key (unless the stale-eviction fault is planted), the
// slot's rights are revoked in every bound thread, and the slot returns to
// the free pool. Free also lands here — rights are revoked even then, so a
// recycled slot never inherits a stale grant.
func (t *Table) unbindLocked(e *entry) error {
	hw := e.hw
	if !t.staleEvict {
		if err := t.retagLocked(e, t.inactive); err != nil {
			return err
		}
	}
	e.active = false
	t.slots[hw] = nil
	t.free = append(t.free, hw)
	t.revokeLocked(hw)
	t.publish()
	return nil
}

// retagLocked moves every attached range of e onto key.
func (t *Table) retagLocked(e *entry, key mpk.Key) error {
	for _, s := range e.ranges {
		if err := t.space.SetPKey(s.base, s.size, key); err != nil {
			return fmt.Errorf("vkey: retag %v to %v: %w", e.id, key, err)
		}
	}
	return nil
}

// revokeLocked strips rights for a rebound hardware slot from every bound
// thread whose PKRU still grants them — the pkey_sync/Garmr revalidation.
// The trusted full-rights register (mpk.PermitAll) is left alone: the
// trusted compartment legitimately reaches every key, so PermitAll is not
// a stale per-slot grant; every *restricted* register granting the slot
// must have gotten it from the evicted logical key and loses it.
func (t *Table) revokeLocked(hw mpk.Key) {
	for th := range t.threads {
		r := th.Rights()
		if r == mpk.PermitAll {
			continue
		}
		if r.Rights(hw) != mpk.DenyAll {
			th.SetRights(r.With(hw, mpk.DenyAll))
			t.invalidations++
		}
	}
}

// Revalidate audits a PKRU value saved before a scheduler migration and
// returns the value safe to reinstall on the destination CPU — the
// migration half of the Garmr stale-PKRU defense. A saved value cannot be
// replayed verbatim: any multiplexable slot it grants may have been
// rebound to a different tenant while the thread was off-CPU, so the
// rights are re-derived from the register's current compartment frame
// (re-activating its logical key, exactly as Leave and Refresh do). A
// register with no live frame gets its saved value back with every
// multiplexable slot grant stripped; the trusted full-rights value passes
// through untouched, mirroring revokeLocked's exemption.
func (t *Table) Revalidate(reg mpk.RightsRegister, saved mpk.PKRU) (mpk.PKRU, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stacks[reg]; len(st) > 0 {
		return t.rightsLocked(st[len(st)-1], reg)
	}
	if saved == mpk.PermitAll {
		return saved, nil
	}
	out := saved
	for _, hw := range t.muxKeys {
		if out.Rights(hw) != mpk.DenyAll {
			out = out.With(hw, mpk.DenyAll)
			t.invalidations++
		}
	}
	return out, nil
}

// BindMigration installs the table as th's scheduler-migration PKRU
// revalidator: every vm.Thread.RestoreContext routes its saved PKRU
// through Revalidate before reinstalling it.
func (t *Table) BindMigration(th *vm.Thread) {
	th.SetMigrationRevalidator(func(saved mpk.PKRU) (mpk.PKRU, error) {
		return t.Revalidate(th, saved)
	})
}

// Bind registers a thread's rights register for eviction-time PKRU
// revocation. Every thread that enters virtualized compartments must be
// bound, or it can keep stale rights for a rebound slot.
func (t *Table) Bind(th mpk.RightsRegister) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.threads[th] = struct{}{}
}

// Unbind removes a thread from eviction-time revocation.
func (t *Table) Unbind(th mpk.RightsRegister) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.threads, th)
}

// MarkFaulted flags a live logical key as having faulted (a compartment
// fault attributed to its domain); the count surfaces as a gauge.
func (t *Table) MarkFaulted(id ID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownKey, id)
	}
	if !e.faulted {
		e.faulted = true
		t.faulted++
		t.publish()
	}
	return nil
}

// SetEvictionSink attaches an eviction observer (nil detaches). The sink
// fires once per LRU eviction with the triggering register, the victim's
// name and the rebound slot.
func (t *Table) SetEvictionSink(s EvictionSink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = s
}

// KeyState is one live logical key in an Occupancy snapshot.
type KeyState struct {
	ID        ID      `json:"id"`
	Name      string  `json:"name"`
	Active    bool    `json:"active"`
	Slot      mpk.Key `json:"slot"` // valid when Active
	Faulted   bool    `json:"faulted,omitempty"`
	Pinned    bool    `json:"pinned,omitempty"`
	Evictions uint64  `json:"evictions"`
	StackRefs int     `json:"stack_refs"` // live compartment-stack frames holding this key
}

// Occupancy is a structured snapshot of the table: which logical keys
// exist, where they are bound, how often each has been evicted, and how
// deep the live compartment stacks run. This is what /domains.json serves
// — the flat pkrusafe_vkey_* counters say *that* slots churn; this says
// *which tenants* are churning and who is standing on the stacks.
type Occupancy struct {
	Slots       int        `json:"slots"`
	FreeSlots   int        `json:"free_slots"`
	InactiveKey mpk.Key    `json:"inactive_key"`
	Keys        []KeyState `json:"keys"`
	// StackDepths lists the compartment-stack depth of every register
	// currently entered, deepest first (registers are not identified:
	// a depth profile is what slot-pressure debugging needs).
	StackDepths []int `json:"stack_depths,omitempty"`
	Stats       Stats `json:"stats"`
}

// Occupancy returns a structured snapshot of the table's state.
func (t *Table) Occupancy() Occupancy {
	t.mu.Lock()
	defer t.mu.Unlock()
	refs := make(map[ID]int)
	occ := Occupancy{
		Slots:       t.nslots,
		FreeSlots:   len(t.free),
		InactiveKey: t.inactive,
		Stats:       t.statsLocked(),
	}
	for _, st := range t.stacks {
		occ.StackDepths = append(occ.StackDepths, len(st))
		for _, id := range st {
			refs[id]++
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(occ.StackDepths)))
	for _, e := range t.entries {
		occ.Keys = append(occ.Keys, KeyState{
			ID:        e.id,
			Name:      e.name,
			Active:    e.active,
			Slot:      e.hw,
			Faulted:   e.faulted,
			Pinned:    e.pinned,
			Evictions: e.evictions,
			StackRefs: refs[e.id],
		})
	}
	sort.Slice(occ.Keys, func(i, j int) bool { return occ.Keys[i].ID < occ.Keys[j].ID })
	return occ
}

// InjectStaleEviction plants (or clears) the stale-slot-after-eviction
// bug: evicted keys' pages keep their old hardware tag, so the next tenant
// bound to the recycled slot can reach them. Exists solely so the
// conformance oracle can prove it catches this class; never set in
// production paths.
func (t *Table) InjectStaleEviction(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.staleEvict = on
}

// Stats returns a snapshot of gauges and counters.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.statsLocked()
}

func (t *Table) statsLocked() Stats {
	active := t.nslots - len(t.free)
	return Stats{
		Slots:         t.nslots,
		Logical:       len(t.entries),
		Active:        active,
		Parked:        len(t.entries) - active,
		Faulted:       t.faulted,
		Pinned:        t.pinned,
		Activations:   t.activations,
		SlotHits:      t.slotHits,
		SlotMisses:    t.slotMisses,
		Evictions:     t.evictions,
		Recycled:      t.recycled,
		Invalidations: t.invalidations,
	}
}

// tableTelemetry holds the registry handles the table publishes into.
type tableTelemetry struct {
	active  *telemetry.Gauge
	parked  *telemetry.Gauge
	faulted *telemetry.Gauge
	logical *telemetry.Gauge
	pinned  *telemetry.Gauge

	activations   *telemetry.Counter
	misses        *telemetry.Counter
	evictions     *telemetry.Counter
	recycled      *telemetry.Counter
	invalidations *telemetry.Counter
}

// SetTelemetry attaches the table to a metrics registry: the vkey gauges
// (active / parked / faulted / logical) track the live population and the
// counters mirror activations, slot misses, evictions, slot recycling and
// eviction-time PKRU invalidations. A nil registry detaches.
func (t *Table) SetTelemetry(reg *telemetry.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if reg == nil {
		t.tel = nil
		return
	}
	t.tel = &tableTelemetry{
		active:  reg.Gauge("pkrusafe_vkey_active", "Logical protection keys currently bound to a hardware slot."),
		parked:  reg.Gauge("pkrusafe_vkey_parked", "Logical protection keys evicted to the inactive key."),
		faulted: reg.Gauge("pkrusafe_vkey_faulted", "Live logical protection keys marked faulted."),
		logical: reg.Gauge("pkrusafe_vkey_logical", "Live logical protection keys (active + parked)."),
		pinned:  reg.Gauge("pkrusafe_vkey_pinned", "Live logical protection keys exempt from LRU eviction."),
		activations: reg.Counter("pkrusafe_vkey_activations_total",
			"Activate calls resolving a logical key to a hardware slot."),
		misses: reg.Counter("pkrusafe_vkey_slot_misses_total",
			"Activations that had to bind a slot (and possibly evict)."),
		evictions: reg.Counter("pkrusafe_vkey_evictions_total",
			"Logical keys pushed off their hardware slot by LRU eviction."),
		recycled: reg.Counter("pkrusafe_vkey_recycled_total",
			"Hardware slots returned to the free pool by Free."),
		invalidations: reg.Counter("pkrusafe_vkey_invalidations_total",
			"Bound-thread PKRU revocations performed on eviction."),
	}
	t.publish()
}

// publish mirrors the current stats into the attached registry. Counters
// are set by delta so the registry stays monotone.
func (t *Table) publish() {
	tel := t.tel
	if tel == nil {
		return
	}
	st := t.statsLocked()
	tel.active.Set(float64(st.Active))
	tel.parked.Set(float64(st.Parked))
	tel.faulted.Set(float64(st.Faulted))
	tel.logical.Set(float64(st.Logical))
	tel.pinned.Set(float64(st.Pinned))
	setCounter(tel.activations, st.Activations)
	setCounter(tel.misses, st.SlotMisses)
	setCounter(tel.evictions, st.Evictions)
	setCounter(tel.recycled, st.Recycled)
	setCounter(tel.invalidations, st.Invalidations)
}

// setCounter advances a registry counter to an absolute monotone value.
func setCounter(c *telemetry.Counter, v uint64) {
	if cur := c.Value(); v > cur {
		c.Add(v - cur)
	}
}
