package heap

import (
	"fmt"
	"math/bits"

	"repro/internal/vm"
)

// smallClasses are the slot sizes the arena serves from slabs, spaced like
// jemalloc's size classes: 16-byte steps up to 128, then four classes per
// size doubling.
var smallClasses = buildSmallClasses()

// maxSmall is the largest slab-served size; bigger requests become
// dedicated page runs ("large" allocations).
var maxSmall = smallClasses[len(smallClasses)-1]

func buildSmallClasses() []uint64 {
	var cs []uint64
	for s := uint64(16); s <= 128; s += 16 {
		cs = append(cs, s)
	}
	for group := uint64(128); group < 8192; group *= 2 {
		step := group / 4
		for s := group + step; s <= group*2; s += step {
			cs = append(cs, s)
		}
	}
	return cs
}

// classIndex maps a request size to the index of the smallest class that
// fits it. Requires size <= maxSmall.
func classIndex(size uint64) int {
	// Binary search is overkill for 41 classes, but sizes are hot; use a
	// fast path for the linear 16-byte region and search the rest.
	if size <= 128 {
		if size == 0 {
			size = 1
		}
		return int((size+15)/16) - 1
	}
	lo, hi := 8, len(smallClasses)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if smallClasses[mid] < size {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// slab is one run of pages carved into equal slots of a single size class.
type slab struct {
	base     vm.Addr
	class    int
	pages    uint64
	slots    uint64
	liveBits []uint64 // bitmap of allocated slots
	live     uint64
}

func (s *slab) slotSize() uint64 { return smallClasses[s.class] }

// Arena is a jemalloc-style size-class allocator. Small requests share
// slabs; large requests get dedicated page runs. All memory comes from one
// PagePool, so the arena can never place an object outside its compartment.
//
// Arena is not internally synchronized; pkalloc serializes access.
type Arena struct {
	pool       *PagePool
	partial    [][]*slab          // per class: slabs with at least one free slot
	slabByPage map[vm.Addr]*slab  // every page of every slab -> its slab
	large      map[vm.Addr]uint64 // large allocation base -> page count
	stats      Stats
}

// NewArena creates an arena drawing pages from pool.
func NewArena(pool *PagePool) *Arena {
	return &Arena{
		pool:       pool,
		partial:    make([][]*slab, len(smallClasses)),
		slabByPage: make(map[vm.Addr]*slab),
		large:      make(map[vm.Addr]uint64),
	}
}

// Alloc implements Allocator.
func (a *Arena) Alloc(size uint64) (vm.Addr, error) {
	if err := checkSize(size); err != nil {
		return 0, err
	}
	req := size
	if size == 0 {
		size = 1
	}
	if size > maxSmall {
		return a.allocLarge(req, size)
	}
	ci := classIndex(size)
	sl, created, err := a.partialSlab(ci)
	if err != nil {
		return 0, err
	}
	if created {
		a.stats.FreshAllocs++
	} else {
		a.stats.ReuseHits++
	}
	slot := sl.takeSlot()
	if sl.live == sl.slots {
		// Slab is full: drop it from the partial list (it stays findable
		// through slabByPage for Free).
		list := a.partial[ci]
		a.partial[ci] = list[:len(list)-1]
	}
	a.stats.Allocs++
	a.stats.BytesLive += sl.slotSize()
	a.stats.BytesTotal += sl.slotSize()
	return sl.base + vm.Addr(slot*sl.slotSize()), nil
}

func (a *Arena) allocLarge(req, size uint64) (vm.Addr, error) {
	pages := alignUp(size, vm.PageSize) / vm.PageSize
	addr, err := a.pool.AllocPages(pages)
	if err != nil {
		return 0, err
	}
	a.large[addr] = pages
	a.stats.FreshAllocs++
	a.stats.Allocs++
	a.stats.BytesLive += pages * vm.PageSize
	a.stats.BytesTotal += pages * vm.PageSize
	a.stats.PagesMapped += pages
	_ = req
	return addr, nil
}

// partialSlab returns a slab for class ci with at least one free slot,
// creating one if necessary; created reports whether a new slab was made.
func (a *Arena) partialSlab(ci int) (*slab, bool, error) {
	if list := a.partial[ci]; len(list) > 0 {
		return list[len(list)-1], false, nil
	}
	slotSize := smallClasses[ci]
	// Size slabs to hold at least 8 slots and waste at most one partial slot.
	pages := alignUp(slotSize*8, vm.PageSize) / vm.PageSize
	base, err := a.pool.AllocPages(pages)
	if err != nil {
		return nil, false, err
	}
	slots := pages * vm.PageSize / slotSize
	sl := &slab{
		base:     base,
		class:    ci,
		pages:    pages,
		slots:    slots,
		liveBits: make([]uint64, (slots+63)/64),
	}
	for pg := uint64(0); pg < pages; pg++ {
		a.slabByPage[base+vm.Addr(pg*vm.PageSize)] = sl
	}
	a.partial[ci] = append(a.partial[ci], sl)
	a.stats.PagesMapped += pages
	return sl, true, nil
}

// takeSlot claims the lowest free slot. The caller guarantees one exists.
func (s *slab) takeSlot() uint64 {
	for wi, w := range s.liveBits {
		if w == ^uint64(0) {
			continue
		}
		bit := uint64(bits.TrailingZeros64(^w))
		idx := uint64(wi)*64 + bit
		if idx >= s.slots {
			break
		}
		s.liveBits[wi] |= 1 << bit
		s.live++
		return idx
	}
	panic("heap: takeSlot on full slab")
}

// Free implements Allocator.
func (a *Arena) Free(addr vm.Addr) error {
	if sl, ok := a.slabByPage[addr.PageBase()]; ok {
		return a.freeSmall(sl, addr)
	}
	if pages, ok := a.large[addr]; ok {
		delete(a.large, addr)
		if err := a.pool.FreePages(addr, pages); err != nil {
			return err
		}
		a.stats.Frees++
		a.stats.BytesLive -= pages * vm.PageSize
		a.stats.PagesMapped -= pages
		return nil
	}
	return fmt.Errorf("%w: %v not owned by arena", ErrBadFree, addr)
}

func (a *Arena) freeSmall(sl *slab, addr vm.Addr) error {
	off := uint64(addr - sl.base)
	slotSize := sl.slotSize()
	if off%slotSize != 0 {
		return fmt.Errorf("%w: %v is interior to a slot", ErrBadFree, addr)
	}
	idx := off / slotSize
	wi, bit := idx/64, idx%64
	if sl.liveBits[wi]&(1<<bit) == 0 {
		return fmt.Errorf("%w: slot at %v already free", ErrBadFree, addr)
	}
	sl.liveBits[wi] &^= 1 << bit
	wasFull := sl.live == sl.slots
	sl.live--
	a.stats.Frees++
	a.stats.BytesLive -= slotSize
	if sl.live == 0 {
		// Whole slab empty: return its pages to the pool (the pool is the
		// per-compartment page cache).
		for pg := uint64(0); pg < sl.pages; pg++ {
			delete(a.slabByPage, sl.base+vm.Addr(pg*vm.PageSize))
		}
		a.removePartial(sl)
		a.stats.PagesMapped -= sl.pages
		return a.pool.FreePages(sl.base, sl.pages)
	}
	if wasFull {
		a.partial[sl.class] = append(a.partial[sl.class], sl)
	}
	return nil
}

func (a *Arena) removePartial(sl *slab) {
	list := a.partial[sl.class]
	for i, s := range list {
		if s == sl {
			a.partial[sl.class] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// UsableSize implements Allocator.
func (a *Arena) UsableSize(addr vm.Addr) (uint64, bool) {
	if sl, ok := a.slabByPage[addr.PageBase()]; ok {
		off := uint64(addr - sl.base)
		if off%sl.slotSize() != 0 {
			return 0, false
		}
		idx := off / sl.slotSize()
		if idx >= sl.slots || sl.liveBits[idx/64]&(1<<(idx%64)) == 0 {
			return 0, false
		}
		return sl.slotSize(), true
	}
	if pages, ok := a.large[addr]; ok {
		return pages * vm.PageSize, true
	}
	return 0, false
}

// Owns implements Allocator.
func (a *Arena) Owns(addr vm.Addr) bool { return a.pool.Region().Contains(addr) }

// Stats implements Allocator.
func (a *Arena) Stats() Stats {
	s := a.stats
	s.PageReuse = a.pool.ReuseCount()
	s.PageFresh = a.pool.FreshCount()
	return s
}
