package vkey

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/mpk"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// testTable builds a table over a fresh space with keys 0, 1 (trusted) and
// the inactive key reserved, plus one reserved page-rangeable region per
// potential logical key the test may attach.
func testTable(t *testing.T) (*Table, *vm.Space) {
	t.Helper()
	space := vm.NewSpace()
	tab, err := NewTable(space, Config{Reserved: []mpk.Key{1}})
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tab, space
}

// bind marks reg as inside id's compartment, so eviction revokes its
// rights, without installing any: the state Enter leaves a register in,
// for tests that set the register's rights by hand.
func (t *Table) bind(reg mpk.RightsRegister, id ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.threads[reg] = id
}

// reserveRange reserves one page-sized region for a test key.
func reserveRange(t *testing.T, space *vm.Space, i int) (vm.Addr, uint64) {
	t.Helper()
	base := vm.Addr(0x5000_0000_0000 + uint64(i)<<20)
	size := uint64(vm.PageSize)
	if _, err := space.Reserve(fmt.Sprintf("vkey-test/%d", i), base, size, 0); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	return base, size
}

func TestSlotCount(t *testing.T) {
	tab, _ := testTable(t)
	// 16 keys minus reserved {0, 1, inactive} = 13 multiplexable slots.
	if got, want := tab.Slots(), 13; got != want {
		t.Fatalf("Slots() = %d, want %d", got, want)
	}
}

func TestActivateHitAndMiss(t *testing.T) {
	tab, space := testTable(t)
	id := tab.Alloc("a")
	base, size := reserveRange(t, space, 0)
	if err := tab.Attach(id, base, size); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	// Parked: pages carry the inactive key.
	if k, _ := space.PKeyAt(base); k != InactiveKey {
		t.Fatalf("parked page key = %v, want inactive %v", k, InactiveKey)
	}
	hw, miss, err := tab.Activate(id)
	if err != nil || !miss {
		t.Fatalf("first Activate = (%v, %v, %v), want miss", hw, miss, err)
	}
	if k, _ := space.PKeyAt(base); k != hw {
		t.Fatalf("active page key = %v, want slot %v", k, hw)
	}
	hw2, miss2, err := tab.Activate(id)
	if err != nil || miss2 || hw2 != hw {
		t.Fatalf("second Activate = (%v, %v, %v), want hit on %v", hw2, miss2, err, hw)
	}
	st := tab.Stats()
	if st.SlotMisses != 1 || st.SlotHits != 1 || st.Activations != 2 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit / 2 activations", st)
	}
}

func TestLRUEvictionRetagsAndRevokes(t *testing.T) {
	tab, space := testTable(t)
	n := tab.Slots()
	ids := make([]ID, n+1)
	bases := make([]vm.Addr, n+1)
	for i := range ids {
		ids[i] = tab.Alloc(fmt.Sprintf("d%d", i))
		base, size := reserveRange(t, space, i)
		bases[i] = base
		if err := tab.Attach(ids[i], base, size); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	var firstHW mpk.Key
	for i := 0; i < n; i++ {
		hw, _, err := tab.Activate(ids[i])
		if err != nil {
			t.Fatalf("Activate %d: %v", i, err)
		}
		if i == 0 {
			firstHW = hw
		}
	}
	// A bound thread inside domain 0 holds rights for its slot.
	th := vm.NewThread(space, nil)
	tab.bind(th, ids[0])
	th.SetRights(mpk.DenyAllExcept(0, firstHW))

	// One more activation: every slot is taken, ids[0] is LRU.
	hw, miss, err := tab.Activate(ids[n])
	if err != nil || !miss {
		t.Fatalf("evicting Activate = (%v, %v, %v)", hw, miss, err)
	}
	if hw != firstHW {
		t.Fatalf("recycled slot = %v, want LRU victim's %v", hw, firstHW)
	}
	// pkey_sync: the victim's pages are parked on the inactive key …
	if k, _ := space.PKeyAt(bases[0]); k != InactiveKey {
		t.Fatalf("evicted page key = %v, want inactive %v", k, InactiveKey)
	}
	// … and the bound thread lost its rights for the rebound slot.
	if r := th.Rights().Rights(firstHW); r != mpk.DenyAll {
		t.Fatalf("bound thread still holds %v for rebound slot %v", r, firstHW)
	}
	st := tab.Stats()
	if st.Evictions != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want 1 eviction / 1 invalidation", st)
	}
	if st.Active != n || st.Parked != 1 {
		t.Fatalf("stats = %+v, want %d active / 1 parked", st, n)
	}
}

func TestPermitAllThreadNotRevoked(t *testing.T) {
	tab, space := testTable(t)
	th := vm.NewThread(space, nil)
	tab.bind(th, tab.Alloc("entered"))
	th.SetRights(mpk.PermitAll) // the trusted compartment's register
	n := tab.Slots()
	ids := make([]ID, n+1)
	for i := range ids {
		ids[i] = tab.Alloc("d")
	}
	for _, id := range ids {
		if _, _, err := tab.Activate(id); err != nil {
			t.Fatalf("Activate: %v", err)
		}
	}
	if th.Rights() != mpk.PermitAll {
		t.Fatalf("trusted thread's PKRU changed to %v", th.Rights())
	}
	if st := tab.Stats(); st.Invalidations != 0 {
		t.Fatalf("invalidations = %d, want 0 for PermitAll", st.Invalidations)
	}
}

func TestFreeRecyclesSlotAndParksPages(t *testing.T) {
	tab, space := testTable(t)
	id := tab.Alloc("a")
	base, size := reserveRange(t, space, 0)
	if err := tab.Attach(id, base, size); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	hw, _, err := tab.Activate(id)
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if err := tab.Free(id); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if k, _ := space.PKeyAt(base); k != InactiveKey {
		t.Fatalf("freed page key = %v, want inactive", k)
	}
	if _, _, err := tab.Activate(id); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("Activate after Free = %v, want ErrUnknownKey", err)
	}
	// The slot is immediately reusable.
	id2 := tab.Alloc("b")
	hw2, _, err := tab.Activate(id2)
	if err != nil {
		t.Fatalf("Activate recycled: %v", err)
	}
	if hw2 != hw {
		t.Fatalf("recycled slot = %v, want %v", hw2, hw)
	}
	if st := tab.Stats(); st.Recycled != 1 {
		t.Fatalf("Recycled = %d, want 1", st.Recycled)
	}
}

func TestUnboundedLogicalKeys(t *testing.T) {
	tab, _ := testTable(t)
	const logical = 100
	for i := 0; i < logical; i++ {
		id := tab.Alloc("d")
		if _, _, err := tab.Activate(id); err != nil {
			t.Fatalf("Activate %d: %v", i, err)
		}
	}
	st := tab.Stats()
	if st.Logical != logical {
		t.Fatalf("Logical = %d, want %d", st.Logical, logical)
	}
	if st.Active != tab.Slots() {
		t.Fatalf("Active = %d, want %d", st.Active, tab.Slots())
	}
	if st.Evictions != uint64(logical-tab.Slots()) {
		t.Fatalf("Evictions = %d, want %d", st.Evictions, logical-tab.Slots())
	}
}

func TestStaleEvictionInjection(t *testing.T) {
	tab, space := testTable(t)
	tab.InjectStaleEviction(true)
	n := tab.Slots()
	var firstBase vm.Addr
	var firstHW mpk.Key
	for i := 0; i <= n; i++ {
		id := tab.Alloc("d")
		base, size := reserveRange(t, space, i)
		if err := tab.Attach(id, base, size); err != nil {
			t.Fatalf("Attach: %v", err)
		}
		hw, _, err := tab.Activate(id)
		if err != nil {
			t.Fatalf("Activate: %v", err)
		}
		if i == 0 {
			firstBase, firstHW = base, hw
		}
	}
	// The planted bug: the evicted key's pages kept the old hardware tag,
	// now owned by the newest logical key.
	if k, _ := space.PKeyAt(firstBase); k != firstHW {
		t.Fatalf("stale-evict page key = %v, want leaked %v", k, firstHW)
	}
}

func TestTelemetryPublishes(t *testing.T) {
	tab, _ := testTable(t)
	reg := telemetry.NewRegistry()
	tab.SetTelemetry(reg)
	for i := 0; i < tab.Slots()+2; i++ {
		id := tab.Alloc("d")
		if _, _, err := tab.Activate(id); err != nil {
			t.Fatalf("Activate: %v", err)
		}
	}
	if v, ok := reg.CounterValue("pkrusafe_vkey_evictions_total"); !ok || v < 2 {
		t.Fatalf("evictions counter = (%v, %v), want >= 2", v, ok)
	}
	if v, ok := reg.CounterValue("pkrusafe_vkey_slot_misses_total"); !ok || v == 0 {
		t.Fatalf("miss counter = (%v, %v), want > 0", v, ok)
	}
}

// TestTelemetryEqualsStats enters one domain ten times (one slot miss,
// nine hits) and requires every pkrusafe_vkey_* family to equal its Stats
// field, also after a second SetTelemetry on the same registry.
func TestTelemetryEqualsStats(t *testing.T) {
	tab, _ := testTable(t)
	metrics := telemetry.NewRegistry()
	tab.SetTelemetry(metrics)
	tab.SetTelemetry(metrics)
	id := tab.Alloc("d")
	if err := tab.Pin(id); err != nil {
		t.Fatal(err)
	}
	r := &reg{p: mpk.PermitAll}
	for i := 0; i < 10; i++ {
		if _, _, err := tab.Enter(r, id); err != nil {
			t.Fatalf("Enter %d: %v", i, err)
		}
		if _, err := tab.Leave(r, id, Trusted, mpk.PermitAll); err != nil {
			t.Fatalf("Leave %d: %v", i, err)
		}
	}
	st := tab.Stats()
	if st.Activations != 10 || st.SlotMisses != 1 || st.SlotHits != 9 {
		t.Fatalf("stats = %+v, want 10 activations, 1 miss, 9 hits", st)
	}
	counters := map[string]uint64{
		"pkrusafe_vkey_activations_total":   st.Activations,
		"pkrusafe_vkey_slot_misses_total":   st.SlotMisses,
		"pkrusafe_vkey_evictions_total":     st.Evictions,
		"pkrusafe_vkey_recycled_total":      st.Recycled,
		"pkrusafe_vkey_invalidations_total": st.Invalidations,
	}
	for name, want := range counters {
		if v, ok := metrics.CounterValue(name); !ok || v != float64(want) {
			t.Errorf("%s = (%v, %v), want %d", name, v, ok, want)
		}
	}
	gauges := map[string]int{
		"pkrusafe_vkey_active":  st.Active,
		"pkrusafe_vkey_parked":  st.Parked,
		"pkrusafe_vkey_logical": st.Logical,
		"pkrusafe_vkey_pinned":  st.Pinned,
	}
	for name, want := range gauges {
		if v := metrics.Gauge(name, "").Value(); v != float64(want) {
			t.Errorf("%s = %v, want %d", name, v, want)
		}
	}
}

func TestConcurrentAllocActivateFree(t *testing.T) {
	tab, _ := testTable(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tab.Alloc("d")
				if _, _, err := tab.Activate(id); err != nil {
					t.Errorf("Activate: %v", err)
					return
				}
				if i%3 == 0 {
					if err := tab.Free(id); err != nil {
						t.Errorf("Free: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := tab.Stats()
	if st.Active > tab.Slots() {
		t.Fatalf("Active = %d exceeds %d slots", st.Active, tab.Slots())
	}
}

// TestLiveFramesGateFree: each Enter counts one live frame for its key and
// each Leave releases one; Free answers ErrKeyBusy while any frame is
// live, Occupancy reports the count, and a Leave with nothing to release
// is refused.
func TestLiveFramesGateFree(t *testing.T) {
	tab, _ := testTable(t)
	a, b := tab.Alloc("a"), tab.Alloc("b")
	r := &reg{p: mpk.PermitAll}
	inA, from, err := tab.Enter(r, a)
	if err != nil || from != Trusted {
		t.Fatalf("Enter a = %v, %v, %v", inA, from, err)
	}
	if _, from, err = tab.Enter(r, b); err != nil || from != a {
		t.Fatalf("Enter b from a: from %v, err %v", from, err)
	}
	if _, from, err = tab.Enter(r, a); err != nil || from != b {
		t.Fatalf("Enter a again from b: from %v, err %v", from, err)
	}
	refs := func(id ID) int {
		for _, k := range tab.Occupancy().Keys {
			if k.ID == id {
				return k.StackRefs
			}
		}
		return -1
	}
	if refs(a) != 2 || refs(b) != 1 {
		t.Fatalf("StackRefs a=%d b=%d, want 2 and 1", refs(a), refs(b))
	}
	if err := tab.Free(b); !errors.Is(err, ErrKeyBusy) {
		t.Fatalf("Free of entered key = %v, want ErrKeyBusy", err)
	}
	if _, err := tab.Leave(r, a, b, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Leave(r, b, a, 0); err != nil {
		t.Fatal(err)
	}
	if err := tab.Free(b); err != nil {
		t.Fatalf("Free after its frame left: %v", err)
	}
	if _, err := tab.Leave(r, b, a, 0); !errors.Is(err, ErrNotEntered) {
		t.Fatalf("Leave of a freed key = %v, want ErrNotEntered", err)
	}
	if got := r.Rights(); got != inA {
		t.Fatalf("rights back in a = %v, want %v", got, inA)
	}
	if _, err := tab.Leave(r, a, Trusted, mpk.PermitAll); err != nil || r.Rights() != mpk.PermitAll {
		t.Fatalf("final Leave: %v, rights %v", err, r.Rights())
	}
	if _, err := tab.Leave(r, a, Trusted, mpk.PermitAll); !errors.Is(err, ErrNotEntered) {
		t.Fatalf("Leave past the last frame = %v, want ErrNotEntered", err)
	}
	if err := tab.Free(a); err != nil {
		t.Fatalf("Free after every frame left: %v", err)
	}
}
