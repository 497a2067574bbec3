package vkey

import (
	"errors"
	"fmt"
	"testing"
)

// TestPinSurvivesChurn pins one key and rotates many more keys than
// slots through the table: the pinned key's slot must never be stolen,
// while unpinned keys evict as usual.
func TestPinSurvivesChurn(t *testing.T) {
	tab, space := testTable(t)
	pinnedID := tab.Alloc("pinned")
	base, size := reserveRange(t, space, 0)
	if err := tab.Attach(pinnedID, base, size); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	hw, _, err := tab.Activate(pinnedID)
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if err := tab.Pin(pinnedID); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if !tab.isPinned(pinnedID) {
		t.Fatal("Pinned() = false after Pin")
	}

	// Rotate twice the slot count of other keys through: every rotation
	// past the free slots must evict, and the victim must never be the
	// pinned key.
	for i := 0; i < 2*tab.Slots(); i++ {
		id := tab.Alloc(fmt.Sprintf("churn%d", i))
		b, s := reserveRange(t, space, i+1)
		if err := tab.Attach(id, b, s); err != nil {
			t.Fatalf("Attach churn%d: %v", i, err)
		}
		if _, _, err := tab.Activate(id); err != nil {
			t.Fatalf("Activate churn%d: %v", i, err)
		}
		if k, _ := space.PKeyAt(base); k != hw {
			t.Fatalf("after churn %d: pinned key's pages on %v, want slot %v", i, k, hw)
		}
	}
	if st := tab.Stats(); st.Evictions == 0 {
		t.Error("churn past the slot count evicted nothing; the pin was never tested")
	}

	// Unpinned, the key becomes the LRU victim again.
	if err := tab.Unpin(pinnedID); err != nil {
		t.Fatalf("Unpin: %v", err)
	}
	id := tab.Alloc("final")
	b, s := reserveRange(t, space, 100)
	if err := tab.Attach(id, b, s); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Activate(id); err != nil {
		t.Fatalf("Activate after Unpin: %v", err)
	}
	if k, _ := space.PKeyAt(base); k != InactiveKey {
		t.Errorf("unpinned LRU key not evicted: pages on %v, want inactive %v", k, InactiveKey)
	}
}

// TestPinLimit pins keys up to the eviction-aware cap: nslots-1 pins
// succeed, one more is refused with ErrPinLimit, re-pinning is
// idempotent, and with every pinned key slot-resident an unpinned
// key's activation still finds the one guaranteed evictable slot.
func TestPinLimit(t *testing.T) {
	tab, space := testTable(t)
	limit := tab.Slots() - 1
	ids := make([]ID, 0, limit)
	for i := 0; i < limit; i++ {
		id := tab.Alloc(fmt.Sprintf("t%d", i))
		b, s := reserveRange(t, space, i)
		if err := tab.Attach(id, b, s); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tab.Activate(id); err != nil {
			t.Fatal(err)
		}
		if err := tab.Pin(id); err != nil {
			t.Fatalf("pin %d of %d: %v", i+1, limit, err)
		}
		ids = append(ids, id)
	}
	if err := tab.Pin(ids[0]); err != nil {
		t.Errorf("re-pinning an already-pinned key: %v, want nil", err)
	}

	over := tab.Alloc("over")
	b, s := reserveRange(t, space, limit)
	if err := tab.Attach(over, b, s); err != nil {
		t.Fatal(err)
	}
	if err := tab.Pin(over); !errors.Is(err, ErrPinLimit) {
		t.Fatalf("pin past the cap = %v, want ErrPinLimit", err)
	}
	if tab.isPinned(over) {
		t.Error("refused pin left the key marked pinned")
	}

	// Liveness: the cap guarantees one evictable slot, so activations
	// keep succeeding even with every pin held and all slots full.
	for i := 0; i < 3; i++ {
		id := tab.Alloc(fmt.Sprintf("live%d", i))
		lb, ls := reserveRange(t, space, limit+1+i)
		if err := tab.Attach(id, lb, ls); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tab.Activate(id); err != nil {
			t.Fatalf("activation starved at max pins: %v", err)
		}
	}

	// Releasing a pin reopens the cap.
	if err := tab.Unpin(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := tab.Pin(over); err != nil {
		t.Errorf("pin after Unpin freed the cap: %v", err)
	}

	if err := tab.Pin(ID(9999)); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("Pin(unknown) = %v, want ErrUnknownKey", err)
	}
	if err := tab.Unpin(ID(9999)); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("Unpin(unknown) = %v, want ErrUnknownKey", err)
	}
}

// isPinned reports whether the logical key is currently pinned.
func (t *Table) isPinned(id ID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	return ok && e.pinned
}
