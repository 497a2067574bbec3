package heap

import (
	"math/rand"
	"testing"

	"repro/internal/vm"
)

// TestFreeListSplitLeavesUsableRemainder: allocating from a large free
// chunk splits it, and the remainder serves later requests.
func TestFreeListSplitLeavesUsableRemainder(t *testing.T) {
	s, p := newPool(t)
	f := NewFreeList(p, s)
	big, err := f.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := f.Alloc(64) // keep big off the top chunk
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Free(big); err != nil {
		t.Fatal(err)
	}
	a, err := f.Alloc(100) // split of the 1000-byte chunk
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Alloc(100) // remainder
	if err != nil {
		t.Fatal(err)
	}
	if a != big {
		t.Errorf("first split alloc = %v, want reuse of %v", a, big)
	}
	if b <= a || b >= guard {
		t.Errorf("remainder alloc %v not inside the split chunk (%v..%v)", b, a, guard)
	}
}

// TestFreeListExactFitDoesNotSplit: a request equal to a free chunk's
// capacity consumes it whole.
func TestFreeListExactFitDoesNotSplit(t *testing.T) {
	s, p := newPool(t)
	f := NewFreeList(p, s)
	a, _ := f.Alloc(96)
	if _, err := f.Alloc(64); err != nil { // guard
		t.Fatal(err)
	}
	us, _ := f.UsableSize(a)
	if err := f.Free(a); err != nil {
		t.Fatal(err)
	}
	b, err := f.Alloc(us) // exactly the freed chunk's capacity
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Errorf("exact fit = %v, want %v", b, a)
	}
	if freeChunks(f) != 0 {
		t.Errorf("free chunks after exact fit = %d", freeChunks(f))
	}
}

// TestFreeListLongRandomChurn stresses split/coalesce/top interactions
// and verifies the free list stays structurally sound (allocations keep
// succeeding and never overlap).
func TestFreeListLongRandomChurn(t *testing.T) {
	s, p := newPool(t)
	f := NewFreeList(p, s)
	rng := rand.New(rand.NewSource(42))
	type blk struct {
		addr vm.Addr
		size uint64
	}
	var live []blk
	for i := 0; i < 5000; i++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(live))
			if err := f.Free(live[j].addr); err != nil {
				t.Fatalf("iter %d: free: %v", i, err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		sz := uint64(rng.Intn(3000) + 1)
		addr, err := f.Alloc(sz)
		if err != nil {
			t.Fatalf("iter %d: alloc(%d): %v", i, sz, err)
		}
		us, ok := f.UsableSize(addr)
		if !ok || us < sz {
			t.Fatalf("iter %d: usable %d < requested %d", i, us, sz)
		}
		live = append(live, blk{addr, sz})
	}
	// Everything drains.
	for _, b := range live {
		if err := f.Free(b.addr); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats().BytesLive != 0 {
		t.Errorf("bytes live after drain = %d", f.Stats().BytesLive)
	}
}

// TestArenaManySizeClassesChurn drives every size class through slab
// creation, filling, partial frees and full recycling.
func TestArenaManySizeClassesChurn(t *testing.T) {
	_, p := newPool(t)
	a := NewArena(p)
	var addrs []vm.Addr
	for _, class := range smallClasses {
		for i := 0; i < 20; i++ {
			addr, err := a.Alloc(class)
			if err != nil {
				t.Fatalf("alloc class %d: %v", class, err)
			}
			addrs = append(addrs, addr)
		}
	}
	// Free every other one, then reallocate; slabs must be reused.
	for i := 0; i < len(addrs); i += 2 {
		if err := a.Free(addrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	mapped := p.mapped
	for _, class := range smallClasses {
		for i := 0; i < 10; i++ {
			if _, err := a.Alloc(class); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p.mapped != mapped {
		t.Errorf("refill allocated fresh pages (%d -> %d); partial slabs not reused",
			mapped, p.mapped)
	}
}

// freeChunks returns the length of f's free list.
func freeChunks(f *FreeList) int {
	n := 0
	for c := f.head; c != 0; c = vm.Addr(f.ld(c + 16)) {
		n++
	}
	return n
}
