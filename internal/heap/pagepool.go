package heap

import (
	"fmt"
	"sort"

	"repro/internal/vm"
)

// run is a contiguous free extent of whole pages.
type run struct {
	addr  vm.Addr
	pages uint64
}

// PagePool hands out page runs from a single vm.Region. Freed runs are
// coalesced and recycled, but only within this pool: a page that entered
// the pool can never be handed to another compartment's allocator. This is
// the disjointness property PKRU-Safe's heap partitioning rests on.
type PagePool struct {
	region *vm.Region
	next   vm.Addr // bump pointer into never-used tail of the region
	free   []run   // address-ordered, coalesced free runs
	mapped uint64  // pages currently held by callers
	reuse  uint64  // AllocPages calls satisfied from a recycled free run
	fresh  uint64  // AllocPages calls satisfied from the bump pointer
}

// NewPagePool creates a pool over the whole of region.
func NewPagePool(region *vm.Region) *PagePool {
	return &PagePool{region: region, next: region.Base}
}

// Region returns the backing region.
func (p *PagePool) Region() *vm.Region { return p.region }

// AllocPages returns the base address of n contiguous pages.
func (p *PagePool) AllocPages(n uint64) (vm.Addr, error) {
	if n == 0 {
		return 0, fmt.Errorf("heap: AllocPages(0)")
	}
	// Best effort reuse: first free run large enough (first fit keeps the
	// list scan short because runs are coalesced).
	for i, r := range p.free {
		if r.pages < n {
			continue
		}
		addr := r.addr
		if r.pages == n {
			p.free = append(p.free[:i], p.free[i+1:]...)
		} else {
			p.free[i] = run{addr: r.addr + vm.Addr(n*vm.PageSize), pages: r.pages - n}
		}
		p.mapped += n
		p.reuse++
		return addr, nil
	}
	// Compared in pages, so a huge n cannot wrap n*PageSize past the check.
	if n > uint64(p.region.End()-p.next)/vm.PageSize {
		return 0, fmt.Errorf("%w: region %q exhausted (want %d pages)", ErrOutOfMemory, p.region.Name, n)
	}
	addr := p.next
	p.next += vm.Addr(n * vm.PageSize)
	p.mapped += n
	p.fresh++
	return addr, nil
}

// FreePages returns n pages starting at addr to the pool, coalescing with
// adjacent free runs. addr must be page-aligned and inside the pool's region.
func (p *PagePool) FreePages(addr vm.Addr, n uint64) error {
	if addr&vm.PageMask != 0 || n == 0 {
		return fmt.Errorf("heap: FreePages(%v, %d): bad arguments", addr, n)
	}
	end := addr + vm.Addr(n*vm.PageSize)
	if !p.region.Contains(addr) || end > p.region.End() {
		return fmt.Errorf("heap: FreePages(%v, %d): outside region %q", addr, n, p.region.Name)
	}
	i := sort.Search(len(p.free), func(i int) bool { return p.free[i].addr >= addr })
	// Overlap checks against neighbours catch double frees of page runs.
	if i > 0 {
		prev := p.free[i-1]
		if prev.addr+vm.Addr(prev.pages*vm.PageSize) > addr {
			return fmt.Errorf("%w: pages at %v already free", ErrBadFree, addr)
		}
	}
	if i < len(p.free) && end > p.free[i].addr {
		return fmt.Errorf("%w: pages at %v already free", ErrBadFree, addr)
	}
	nr := run{addr: addr, pages: n}
	// Coalesce with successor, then predecessor.
	if i < len(p.free) && end == p.free[i].addr {
		nr.pages += p.free[i].pages
		p.free = append(p.free[:i], p.free[i+1:]...)
	}
	if i > 0 {
		prev := &p.free[i-1]
		if prev.addr+vm.Addr(prev.pages*vm.PageSize) == addr {
			prev.pages += nr.pages
			p.mapped -= n
			return nil
		}
	}
	p.free = append(p.free, run{})
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = nr
	p.mapped -= n
	return nil
}

// MappedPages returns the number of pages currently held by callers.
func (p *PagePool) MappedPages() uint64 { return p.mapped }

// ReuseCount returns how many AllocPages calls were served from recycled
// free runs.
func (p *PagePool) ReuseCount() uint64 { return p.reuse }

// FreshCount returns how many AllocPages calls were served from the
// never-used tail of the region.
func (p *PagePool) FreshCount() uint64 { return p.fresh }

// FreeRuns returns the number of coalesced free runs (for tests).
func (p *PagePool) FreeRuns() int { return len(p.free) }
