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
	"sync/atomic"

	"repro/internal/mpk"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// ID is a logical protection key. IDs are never reused; the zero ID is
// invalid, so a forgotten Alloc shows up as ErrUnknownKey, not as key 0.
type ID uint32

func (id ID) String() string { return fmt.Sprintf("vkey%d", uint32(id)) }

// InactiveKey is the hardware key evicted and freed logical keys' pages
// are parked on. Restricted PKRU values built with
// mpk.DenyAllExcept never grant it, so parked memory faults on any
// untrusted access; only the trusted compartment's full-rights register
// (mpk.PermitAll) can still reach it.
const InactiveKey mpk.Key = 15

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

// ErrKeyBusy is returned by Free for a logical key with live frames: a
// thread is currently executing inside the key's compartment (or will
// return into it), and freeing the key under it would strand that thread
// — its exit could no longer re-derive the compartment's rights.
var ErrKeyBusy = errors.New("vkey: logical key has live compartment frames")

// ErrNotEntered is returned by Leave releasing a logical key that has no
// live frame.
var ErrNotEntered = errors.New("vkey: leave with no entered compartment")

// Config parameterizes NewTable.
type Config struct {
	// Reserved lists hardware keys the table must never hand out: key 0
	// (the shared/default key) and the trusted pool's key at minimum.
	// Key 0 and InactiveKey are always treated as reserved.
	Reserved []mpk.Key
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
	pinned    bool    // exempt from LRU eviction (libmpk pkey_pin)
	ranges    []span
	lastUse   uint64 // LRU clock tick of the most recent Activate
	evictions uint64 // times this key was pushed off a slot by LRU
	frames    int    // live frames entered into the key and not yet left
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
	mu      sync.Mutex
	space   *vm.Space
	free    []mpk.Key           // unbound hardware slots
	slots   [mpk.NumKeys]*entry // bound entry per hardware slot, nil when free
	entries map[ID]*entry
	// threads maps every register inside a logical key's compartment to
	// that key: the registers eviction revokes and Revalidate re-derives.
	// The nesting of compartments belongs to whoever enters them (the ffi
	// thread's frames); the table keeps only where each register is now.
	threads map[mpk.RightsRegister]ID
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
	pinned        int

	// staleEvict, when set, sabotages eviction by skipping the retag of
	// the victim's pages — the planted stale-slot-after-eviction bug the
	// conformance oracle must catch. Never set outside fault injection.
	staleEvict bool

	attached atomic.Bool // SetTelemetry has run
	sink     EvictionSink
}

// NewTable builds a table over space. Every architecturally valid key that
// is neither reserved nor the inactive key becomes a multiplexable slot.
func NewTable(space *vm.Space, cfg Config) (*Table, error) {
	if space == nil {
		return nil, errors.New("vkey: space is required")
	}
	reserved := map[mpk.Key]bool{0: true, InactiveKey: true}
	for _, k := range cfg.Reserved {
		if !k.Valid() {
			return nil, fmt.Errorf("vkey: invalid reserved key %d", k)
		}
		reserved[k] = true
	}
	t := &Table{
		space:   space,
		entries: make(map[ID]*entry),
		threads: make(map[mpk.RightsRegister]ID),
		nextID:  1,
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
	return id
}

// Free releases a logical key: its pages are parked on the inactive key,
// its hardware slot (if any) returns to the free pool, and the ID becomes
// invalid. The caller is responsible for scrubbing the pages first if they
// held tenant data (pkalloc's quarantine semantics). A key with live frames
// is refused with ErrKeyBusy — freeing it would leave a thread inside (or
// returning into) a compartment whose rights can no longer be re-derived.
func (t *Table) Free(id ID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownKey, id)
	}
	if e.frames > 0 {
		return fmt.Errorf("%w: %v has %d", ErrKeyBusy, id, e.frames)
	}
	if e.active {
		if err := t.unbindLocked(e); err != nil {
			return err
		}
		t.recycled++
	} else if err := t.retagLocked(e, InactiveKey); err != nil {
		// Parked entries are already on the inactive key; the retag is a
		// no-op repeated here only so a failure cannot leak tagged pages.
		return err
	}
	if e.pinned {
		t.pinned--
	}
	delete(t.entries, id)
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
	key := InactiveKey
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

// Trusted names the static compartment in the table's transitions: a
// register outside every logical key, holding rights no eviction can
// invalidate — mpk.PermitAll for trusted code, or the two-compartment
// untrusted value. Enter(reg, Trusted) is the reverse gate into T, and
// Leave to Trusted installs the static rights the caller names.
const Trusted ID = 0

// rightsLocked derives the PKRU for a compartment: full rights for the
// trusted one, otherwise the shared key 0 plus the logical key's (freshly
// activated, possibly just rebound) hardware slot.
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

// switchLocked installs rights on reg, audited, and records reg's new
// compartment: bound for eviction-time revocation while inside a logical
// key, unbound in a static one. Nothing changes unless the installation
// verifies.
func (t *Table) switchLocked(reg mpk.RightsRegister, to ID, rights mpk.PKRU) error {
	if err := mpk.InstallAudited(reg, rights); err != nil {
		return err
	}
	if to == Trusted {
		delete(t.threads, reg)
	} else {
		t.threads[reg] = to
	}
	return nil
}

// Enter switches reg into the logical key's compartment (Trusted for the
// trusted compartment) and counts one live frame for the key. It returns
// the rights installed and the compartment reg was in before: its logical
// key, or Trusted when it held static rights. Whoever owns the nesting
// names that compartment again in the matching Leave.
//
// The transition is atomic with respect to eviction: the table lock is
// held from slot activation through the audited rights installation, so a
// concurrent Activate cannot evict the key and rebind its slot between
// the two — the window a bare Activate-then-install leaves open. Inside a
// logical key, reg stays bound for eviction-time revocation, so a later
// eviction of the key strips its rights immediately. A failed audit
// changes nothing.
func (t *Table) Enter(reg mpk.RightsRegister, id ID) (mpk.PKRU, ID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rights, err := t.rightsLocked(id, reg)
	if err != nil {
		return 0, 0, err
	}
	from := t.threads[reg]
	if err := t.switchLocked(reg, id, rights); err != nil {
		return 0, 0, err
	}
	if id != Trusted {
		t.entries[id].frames++
	}
	return rights, from, nil
}

// Leave releases one live frame of release (none when it is Trusted) and
// switches reg into the compartment to: a logical key's rights are
// re-derived — re-activating it, never replaying a saved PKRU whose slot
// grants an eviction may have rebound to another tenant (the Garmr
// stale-PKRU hazard) — and Trusted installs static, the rights the caller
// held outside every logical key.
//
// The release commits only after the installation verifies, so a failed
// audit leaves the frame live and Leave can be retried.
func (t *Table) Leave(reg mpk.RightsRegister, release, to ID, static mpk.PKRU) (mpk.PKRU, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var e *entry
	if release != Trusted {
		if e = t.entries[release]; e == nil || e.frames == 0 {
			return 0, fmt.Errorf("%w: %v", ErrNotEntered, release)
		}
	}
	rights := static
	if to != Trusted {
		// The compartment returned to cannot have been freed: Free refuses
		// keys with live frames (ErrKeyBusy).
		var err error
		if rights, err = t.rightsLocked(to, reg); err != nil {
			return 0, err
		}
	}
	if err := t.switchLocked(reg, to, rights); err != nil {
		return 0, err
	}
	if e != nil {
		e.frames--
	}
	return rights, nil
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
	}
	return nil
}

// unbindLocked pushes an active entry off its slot: pages are parked on
// the inactive key (unless the stale-eviction fault is planted), the
// slot's rights are revoked in every bound thread, and the slot returns to
// the free pool. Free also lands here — rights are revoked even then, so a
// recycled slot never inherits a stale grant.
func (t *Table) unbindLocked(e *entry) error {
	hw := e.hw
	if !t.staleEvict {
		if err := t.retagLocked(e, InactiveKey); err != nil {
			return err
		}
	}
	e.active = false
	t.slots[hw] = nil
	t.free = append(t.free, hw)
	t.revokeLocked(hw)
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
// rights are re-derived from the register's current compartment
// (re-activating its logical key, exactly as Leave does). A register in a
// static compartment gets its saved value back with every multiplexable
// slot grant stripped; the trusted full-rights value passes through
// untouched, mirroring revokeLocked's exemption.
func (t *Table) Revalidate(reg mpk.RightsRegister, saved mpk.PKRU) (mpk.PKRU, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.threads[reg]; ok {
		return t.rightsLocked(id, reg)
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
	Pinned    bool    `json:"pinned,omitempty"`
	Evictions uint64  `json:"evictions"`
	StackRefs int     `json:"stack_refs"` // live frames entered into this key
}

// Occupancy is a structured snapshot of the table: which logical keys
// exist, where they are bound, how often each has been evicted, and how
// many live frames each holds. This is what /domains.json serves — the
// flat pkrusafe_vkey_* counters say *that* slots churn; this says *which
// tenants* are churning and which are entered.
type Occupancy struct {
	Slots       int        `json:"slots"`
	FreeSlots   int        `json:"free_slots"`
	InactiveKey mpk.Key    `json:"inactive_key"`
	Keys        []KeyState `json:"keys"`
	Stats       Stats      `json:"stats"`
}

// Occupancy returns a structured snapshot of the table's state.
func (t *Table) Occupancy() Occupancy {
	t.mu.Lock()
	defer t.mu.Unlock()
	occ := Occupancy{
		Slots:       t.nslots,
		FreeSlots:   len(t.free),
		InactiveKey: InactiveKey,
		Stats:       t.statsLocked(),
	}
	for _, e := range t.entries {
		occ.Keys = append(occ.Keys, KeyState{
			ID:        e.id,
			Name:      e.name,
			Active:    e.active,
			Slot:      e.hw,
			Pinned:    e.pinned,
			Evictions: e.evictions,
			StackRefs: e.frames,
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
		Pinned:        t.pinned,
		Activations:   t.activations,
		SlotHits:      t.slotHits,
		SlotMisses:    t.slotMisses,
		Evictions:     t.evictions,
		Recycled:      t.recycled,
		Invalidations: t.invalidations,
	}
}

// SetTelemetry attaches the table to a metrics registry: the vkey gauges
// (active / parked / logical / pinned) and counters (activations, slot
// misses, evictions, slot recycling and eviction-time PKRU
// invalidations) read Stats at export time, so the table pushes nothing
// into the registry and each family always equals its Stats field. A
// table attaches once: later calls, and a nil registry, are no-ops.
func (t *Table) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil || !t.attached.CompareAndSwap(false, true) {
		return
	}
	reg.GaugeFunc("pkrusafe_vkey_active", "Logical protection keys currently bound to a hardware slot.",
		func() float64 { return float64(t.Stats().Active) })
	reg.GaugeFunc("pkrusafe_vkey_parked", "Logical protection keys evicted to the inactive key.",
		func() float64 { return float64(t.Stats().Parked) })
	reg.GaugeFunc("pkrusafe_vkey_logical", "Live logical protection keys (active + parked).",
		func() float64 { return float64(t.Stats().Logical) })
	reg.GaugeFunc("pkrusafe_vkey_pinned", "Live logical protection keys exempt from LRU eviction.",
		func() float64 { return float64(t.Stats().Pinned) })
	reg.Counter("pkrusafe_vkey_activations_total",
		"Activate calls resolving a logical key to a hardware slot.").Func(func() uint64 { return t.Stats().Activations })
	reg.Counter("pkrusafe_vkey_slot_misses_total",
		"Activations that had to bind a slot (and possibly evict).").Func(func() uint64 { return t.Stats().SlotMisses })
	reg.Counter("pkrusafe_vkey_evictions_total",
		"Logical keys pushed off their hardware slot by LRU eviction.").Func(func() uint64 { return t.Stats().Evictions })
	reg.Counter("pkrusafe_vkey_recycled_total",
		"Hardware slots returned to the free pool by Free.").Func(func() uint64 { return t.Stats().Recycled })
	reg.Counter("pkrusafe_vkey_invalidations_total",
		"Bound-thread PKRU revocations performed on eviction.").Func(func() uint64 { return t.Stats().Invalidations })
}
