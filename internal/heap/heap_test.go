package heap

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vm"
)

const (
	poolBase vm.Addr = 0x2000_0000
	poolSize uint64  = 4096 * vm.PageSize // 16 MiB
)

func newPool(t *testing.T) (*vm.Space, *PagePool) {
	t.Helper()
	s := vm.NewSpace()
	r, err := s.Reserve("pool", poolBase, poolSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s, NewPagePool(r)
}

func TestClassIndex(t *testing.T) {
	for i, c := range smallClasses {
		if got := classIndex(c); got != i {
			t.Errorf("classIndex(%d) = %d, want %d", c, got, i)
		}
		if c > 1 {
			if got := classIndex(c - 1); got != i {
				t.Errorf("classIndex(%d) = %d, want %d", c-1, got, i)
			}
		}
	}
	if got := classIndex(1); smallClasses[got] != 16 {
		t.Errorf("classIndex(1) -> class %d", smallClasses[got])
	}
	if got := classIndex(0); smallClasses[got] != 16 {
		t.Errorf("classIndex(0) -> class %d", smallClasses[got])
	}
}

func TestSmallClassesMonotone(t *testing.T) {
	for i := 1; i < len(smallClasses); i++ {
		if smallClasses[i] <= smallClasses[i-1] {
			t.Fatalf("classes not strictly increasing at %d: %v", i, smallClasses)
		}
		if smallClasses[i]%Align != 0 {
			t.Fatalf("class %d not %d-aligned", smallClasses[i], Align)
		}
	}
	if maxSmall != 8192 {
		t.Errorf("maxSmall = %d, want 8192", maxSmall)
	}
}

func TestPagePoolAllocFree(t *testing.T) {
	_, p := newPool(t)
	a, err := p.AllocPages(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || b != a+4*vm.PageSize {
		t.Errorf("unexpected layout a=%v b=%v", a, b)
	}
	if p.mapped != 6 {
		t.Errorf("mapped = %d", p.mapped)
	}
	if err := p.FreePages(a, 4); err != nil {
		t.Fatal(err)
	}
	// Reuse must come from the freed run.
	c, err := p.AllocPages(3)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Errorf("expected reuse at %v, got %v", a, c)
	}
}

func TestPagePoolCoalescing(t *testing.T) {
	_, p := newPool(t)
	a, _ := p.AllocPages(1)
	b, _ := p.AllocPages(1)
	c, _ := p.AllocPages(1)
	if err := p.FreePages(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.FreePages(c, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.FreePages(b, 1); err != nil {
		t.Fatal(err)
	}
	if len(p.free) != 1 {
		t.Errorf("free runs = %d, want 1 coalesced run", len(p.free))
	}
	d, err := p.AllocPages(3)
	if err != nil || d != a {
		t.Errorf("coalesced run not reused: %v, %v", d, err)
	}
}

func TestPagePoolDoubleFree(t *testing.T) {
	_, p := newPool(t)
	a, _ := p.AllocPages(2)
	if err := p.FreePages(a, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.FreePages(a, 2); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free = %v, want ErrBadFree", err)
	}
	if err := p.FreePages(a+vm.PageSize, 1); !errors.Is(err, ErrBadFree) {
		t.Errorf("free inside free run = %v, want ErrBadFree", err)
	}
}

func TestPagePoolBounds(t *testing.T) {
	_, p := newPool(t)
	if _, err := p.AllocPages(0); err == nil {
		t.Error("AllocPages(0) accepted")
	}
	if err := p.FreePages(0x1000, 1); err == nil {
		t.Error("free outside region accepted")
	}
	if err := p.FreePages(poolBase+3, 1); err == nil {
		t.Error("unaligned free accepted")
	}
	if _, err := p.AllocPages(poolSize/vm.PageSize + 1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("oversized alloc = %v, want ErrOutOfMemory", err)
	}
}

// TestHugeAllocRejected: a size whose rounding to a chunk, size class or
// page run would wrap around is refused with the size-limit error by both
// allocators, instead of being served as a small block (the free list) or
// failing as AllocPages(0) (the arena). Page counts whose byte size
// overflows are refused by the pool.
func TestHugeAllocRejected(t *testing.T) {
	for name, a := range allocators(t) {
		t.Run(name, func(t *testing.T) {
			for _, size := range []uint64{maxAlloc + 1, math.MaxUint64 - headerSize - 7, math.MaxUint64 - 7, math.MaxUint64} {
				addr, err := a.Alloc(size)
				if !errors.Is(err, ErrOutOfMemory) || !strings.Contains(err.Error(), "exceeds") {
					t.Errorf("Alloc(%d) = %v, %v; want the size-limit error", size, addr, err)
				}
			}
			// At the limit the request is well formed and simply too big
			// for this pool.
			if _, err := a.Alloc(maxAlloc); !errors.Is(err, ErrOutOfMemory) {
				t.Errorf("Alloc(maxAlloc) = %v, want ErrOutOfMemory", err)
			}
			if st := a.Stats(); st.Allocs != 0 {
				t.Errorf("%d allocations succeeded", st.Allocs)
			}
		})
	}
	_, p := newPool(t)
	for _, n := range []uint64{math.MaxUint64 / vm.PageSize, math.MaxUint64/vm.PageSize + 1, math.MaxUint64} {
		if _, err := p.AllocPages(n); !errors.Is(err, ErrOutOfMemory) {
			t.Errorf("AllocPages(%d) = %v, want ErrOutOfMemory", n, err)
		}
	}
}

// allocators returns both implementations for shared behavioural tests.
func allocators(t *testing.T) map[string]Allocator {
	t.Helper()
	s1, p1 := newPool(t)
	_ = s1
	s2, p2 := newPool(t)
	return map[string]Allocator{
		"arena":    NewArena(p1),
		"freelist": NewFreeList(p2, s2),
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	for name, a := range allocators(t) {
		t.Run(name, func(t *testing.T) {
			sizes := []uint64{0, 1, 8, 16, 17, 100, 128, 4096, 8192, 8193, 100000}
			var addrs []vm.Addr
			for _, sz := range sizes {
				addr, err := a.Alloc(sz)
				if err != nil {
					t.Fatalf("Alloc(%d): %v", sz, err)
				}
				if uint64(addr)%Align != 0 {
					t.Errorf("Alloc(%d) = %v not %d-aligned", sz, addr, Align)
				}
				us, ok := a.UsableSize(addr)
				if !ok || us < sz {
					t.Errorf("UsableSize(%v) = %d,%v; want >= %d", addr, us, ok, sz)
				}
				addrs = append(addrs, addr)
			}
			for _, addr := range addrs {
				if err := a.Free(addr); err != nil {
					t.Errorf("Free(%v): %v", addr, err)
				}
			}
			st := a.Stats()
			if st.Allocs != uint64(len(sizes)) || st.Frees != uint64(len(sizes)) {
				t.Errorf("stats = %+v", st)
			}
			if st.BytesLive != 0 {
				t.Errorf("BytesLive = %d after freeing everything", st.BytesLive)
			}
		})
	}
}

func TestNoOverlapAmongLiveAllocations(t *testing.T) {
	for name, a := range allocators(t) {
		t.Run(name, func(t *testing.T) {
			type block struct {
				addr vm.Addr
				size uint64
			}
			rng := rand.New(rand.NewSource(1))
			var live []block
			for i := 0; i < 2000; i++ {
				if len(live) > 0 && rng.Intn(3) == 0 {
					j := rng.Intn(len(live))
					if err := a.Free(live[j].addr); err != nil {
						t.Fatalf("free: %v", err)
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				sz := uint64(rng.Intn(5000) + 1)
				addr, err := a.Alloc(sz)
				if err != nil {
					t.Fatalf("alloc %d: %v", sz, err)
				}
				us, _ := a.UsableSize(addr)
				for _, b := range live {
					bu, _ := a.UsableSize(b.addr)
					if addr < b.addr+vm.Addr(bu) && b.addr < addr+vm.Addr(us) {
						t.Fatalf("overlap: new [%v,+%d) with live [%v,+%d)", addr, us, b.addr, bu)
					}
				}
				live = append(live, block{addr, sz})
			}
		})
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	for name, a := range allocators(t) {
		t.Run(name, func(t *testing.T) {
			addr, err := a.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Free(addr); err != nil {
				t.Fatal(err)
			}
			if err := a.Free(addr); !errors.Is(err, ErrBadFree) {
				t.Errorf("double free = %v, want ErrBadFree", err)
			}
			if err := a.Free(0xdead0000); !errors.Is(err, ErrBadFree) {
				t.Errorf("wild free = %v, want ErrBadFree", err)
			}
		})
	}
}

// TestPayloadIntegrity writes distinct patterns into many live blocks and
// verifies no allocation (or allocator metadata update) disturbs another
// block's payload.
func TestPayloadIntegrity(t *testing.T) {
	s := vm.NewSpace()
	r, err := s.Reserve("pool", poolBase, poolSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]Allocator{
		"arena":    NewArena(NewPagePool(r)),
		"freelist": nil, // filled below with its own region
	} {
		if name == "freelist" {
			r2, err := s.Reserve("pool2", poolBase+vm.Addr(poolSize), poolSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			a = NewFreeList(NewPagePool(r2), s)
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			type block struct {
				addr vm.Addr
				data []byte
			}
			var live []block
			check := func(b block) {
				got := make([]byte, len(b.data))
				if err := s.Peek(b.addr, got); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != b.data[i] {
						t.Fatalf("payload at %v corrupted at byte %d", b.addr, i)
					}
				}
			}
			for i := 0; i < 600; i++ {
				if len(live) > 4 && rng.Intn(3) == 0 {
					j := rng.Intn(len(live))
					check(live[j])
					if err := a.Free(live[j].addr); err != nil {
						t.Fatal(err)
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				sz := rng.Intn(2000) + 1
				addr, err := a.Alloc(uint64(sz))
				if err != nil {
					t.Fatal(err)
				}
				data := make([]byte, sz)
				rng.Read(data)
				if err := s.Poke(addr, data); err != nil {
					t.Fatal(err)
				}
				live = append(live, block{addr, data})
			}
			for _, b := range live {
				check(b)
			}
		})
	}
}

func TestArenaSlabPageRecycling(t *testing.T) {
	_, p := newPool(t)
	a := NewArena(p)
	var addrs []vm.Addr
	for i := 0; i < 300; i++ { // several slabs of the 64-byte class
		addr, err := a.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	mappedBefore := p.mapped
	for _, addr := range addrs {
		if err := a.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	if p.mapped != 0 {
		t.Errorf("pages still mapped after freeing every slot: %d (was %d)", p.mapped, mappedBefore)
	}
}

func TestArenaLargeAllocations(t *testing.T) {
	_, p := newPool(t)
	a := NewArena(p)
	addr, err := a.Alloc(maxSmall + 1)
	if err != nil {
		t.Fatal(err)
	}
	us, ok := a.UsableSize(addr)
	if !ok || us < maxSmall+1 || us%vm.PageSize != 0 {
		t.Errorf("large UsableSize = %d, %v", us, ok)
	}
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	if p.mapped != 0 {
		t.Errorf("large pages not returned: %d", p.mapped)
	}
}

func TestArenaInteriorPointerRejected(t *testing.T) {
	_, p := newPool(t)
	a := NewArena(p)
	addr, _ := a.Alloc(64)
	if err := a.Free(addr + 8); !errors.Is(err, ErrBadFree) {
		t.Errorf("interior free = %v, want ErrBadFree", err)
	}
	if _, ok := a.UsableSize(addr + 8); ok {
		t.Error("UsableSize of interior pointer should fail")
	}
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
}

func TestFreeListCoalescing(t *testing.T) {
	s, p := newPool(t)
	f := NewFreeList(p, s)
	a, _ := f.Alloc(100)
	b, _ := f.Alloc(100)
	c, _ := f.Alloc(100)
	d, _ := f.Alloc(100) // keeps the first three off the top chunk
	if err := f.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(c); err != nil {
		t.Fatal(err)
	}
	if freeChunks(f) != 2 {
		t.Fatalf("free chunks = %d, want 2 (non-adjacent)", freeChunks(f))
	}
	if err := f.Free(b); err != nil { // b bridges a and c
		t.Fatal(err)
	}
	if freeChunks(f) != 1 {
		t.Errorf("free chunks = %d, want 1 after bridge coalesce", freeChunks(f))
	}
	// The coalesced chunk must satisfy a request no single piece could.
	big, err := f.Alloc(300)
	if err != nil {
		t.Fatal(err)
	}
	if big != a {
		t.Errorf("coalesced reuse = %v, want %v", big, a)
	}
	_ = d
}

func TestFreeListMergeIntoTop(t *testing.T) {
	s, p := newPool(t)
	f := NewFreeList(p, s)
	a, _ := f.Alloc(100)
	if err := f.Free(a); err != nil {
		t.Fatal(err)
	}
	if freeChunks(f) != 0 {
		t.Errorf("chunk adjacent to top should merge into top, free list len %d", freeChunks(f))
	}
	b, _ := f.Alloc(50)
	if b != a {
		t.Errorf("top reuse = %v, want %v", b, a)
	}
}

func TestAllocatorsOwnDisjointPages(t *testing.T) {
	s := vm.NewSpace()
	rT, err := s.Reserve("mt", poolBase, poolSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	rU, err := s.Reserve("mu", poolBase+vm.Addr(poolSize), poolSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := NewArena(NewPagePool(rT))
	au := NewFreeList(NewPagePool(rU), s)
	for i := 0; i < 500; i++ {
		x, err := at.Alloc(uint64(i%300) + 1)
		if err != nil {
			t.Fatal(err)
		}
		y, err := au.Alloc(uint64(i%300) + 1)
		if err != nil {
			t.Fatal(err)
		}
		if !rT.Contains(x) || rU.Contains(x) {
			t.Fatalf("trusted alloc %v escaped its region", x)
		}
		if !rU.Contains(y) || rT.Contains(y) {
			t.Fatalf("untrusted alloc %v escaped its region", y)
		}
	}
}

// Property: for any sequence of sizes, allocating then freeing in random
// order leaves both allocators with zero live bytes and the arena with zero
// mapped pages.
func TestDrainProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%64) + 1
		s := vm.NewSpace()
		r, err := s.Reserve("p", poolBase, poolSize, 0)
		if err != nil {
			return false
		}
		for _, a := range []Allocator{NewArena(NewPagePool(r))} {
			var addrs []vm.Addr
			for i := 0; i < n; i++ {
				addr, err := a.Alloc(uint64(rng.Intn(20000)))
				if err != nil {
					return false
				}
				addrs = append(addrs, addr)
			}
			rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
			for _, addr := range addrs {
				if a.Free(addr) != nil {
					return false
				}
			}
			if a.Stats().BytesLive != 0 || a.Stats().PagesMapped != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOwns(t *testing.T) {
	s, p := newPool(t)
	a := NewArena(p)
	f := NewFreeList(p, s) // sharing a pool only for the Owns range check
	if !a.Owns(poolBase+10) || !f.Owns(poolBase+10) {
		t.Error("Owns inside region = false")
	}
	if a.Owns(poolBase-1) || f.Owns(poolBase+vm.Addr(poolSize)) {
		t.Error("Owns outside region = true")
	}
}
