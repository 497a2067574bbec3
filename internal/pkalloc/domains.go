package pkalloc

import (
	"errors"
	"fmt"

	"repro/internal/heap"
	"repro/internal/mpk"
	"repro/internal/vm"
)

// ErrNoDomainPool is returned when a per-domain operation names a pool
// that does not exist. Supervision distinguishes it from scrub failures:
// an unresolvable domain escalates to the global quarantine tier, a
// failing scrub is terminal.
var ErrNoDomainPool = errors.New("pkalloc: no such domain pool")

// Per-domain pool defaults. Each pool is a fixed-size slice of address
// space carved from a dedicated window above MU; the window is far larger
// than any realistic tenant count needs because reservations are
// on-demand-paged and cost nothing until touched.
const (
	DefaultDomainPoolBase vm.Addr = 0x7400_0000_0000
	DefaultDomainPoolSize uint64  = 1 << 32
)

// domainPool is one tenant's private untrusted heap.
type domainPool struct {
	name   string
	region *vm.Region
	alloc  heap.Allocator
	epoch  uint64 // incremented by each per-domain quarantine
}

// ensureDomainsLocked lazily initializes the domain-pool bookkeeping so
// two-compartment users of the allocator pay nothing for it.
func (a *Allocator) ensureDomainsLocked() {
	if a.pools == nil {
		a.pools = make(map[string]*domainPool)
		a.byBase = make(map[vm.Addr]*domainPool)
		a.nextPoolBase = DefaultDomainPoolBase
	}
}

// AddDomainPool reserves (or recycles) a pool-sized region for the named
// domain, tags its pages with key, and serves it with a fresh free list.
// Removed pools' regions are reused before new address space is consumed,
// so domain churn does not leak reservations — vm.Space has no unreserve.
func (a *Allocator) AddDomainPool(name string, key mpk.Key) (*vm.Region, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ensureDomainsLocked()
	if _, ok := a.pools[name]; ok {
		return nil, fmt.Errorf("pkalloc: domain pool %q already exists", name)
	}
	var region *vm.Region
	if n := len(a.freeRegions); n > 0 {
		region = a.freeRegions[n-1]
		a.freeRegions = a.freeRegions[:n-1]
		if err := a.space.SetPKey(region.Base, region.Size, key); err != nil {
			a.freeRegions = append(a.freeRegions, region)
			return nil, fmt.Errorf("pkalloc: retag recycled pool: %w", err)
		}
	} else {
		r, err := a.space.Reserve(fmt.Sprintf("pkalloc/dompool%d", len(a.byBase)),
			a.nextPoolBase, DefaultDomainPoolSize, key)
		if err != nil {
			return nil, fmt.Errorf("pkalloc: reserving domain pool: %w", err)
		}
		a.nextPoolBase += vm.Addr(DefaultDomainPoolSize)
		region = r
	}
	p := &domainPool{
		name:   name,
		region: region,
		alloc:  heap.NewFreeList(heap.NewPagePool(region), a.space),
	}
	a.pools[name] = p
	a.byBase[region.Base] = p
	return region, nil
}

// RemoveDomainPool scrubs the named pool — every resident page zeroed, the
// same hygiene QuarantineUntrusted applies to MU — and parks its region on
// the recycle list for the next AddDomainPool. Outstanding pointers into
// the pool are invalidated; the caller retags the region (vkey parks it on
// the inactive key) so stale pointers fault rather than read the next
// tenant's data.
func (a *Allocator) RemoveDomainPool(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.pools[name]
	if !ok {
		return fmt.Errorf("pkalloc: no domain pool %q", name)
	}
	if err := a.space.ZeroResident(p.region.Base, p.region.Size); err != nil {
		return fmt.Errorf("pkalloc: scrub domain pool %q: %w", name, err)
	}
	delete(a.pools, name)
	delete(a.byBase, p.region.Base)
	a.freeRegions = append(a.freeRegions, p.region)
	return nil
}

// DomainAlloc serves an allocation from the named domain pool.
func (a *Allocator) DomainAlloc(name string, size uint64) (vm.Addr, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.pools[name]
	if !ok {
		return 0, fmt.Errorf("pkalloc: no domain pool %q", name)
	}
	return p.alloc.Alloc(size)
}

// QuarantineDomain resets one tenant's pool after a compartment failure,
// exactly the hygiene QuarantineUntrusted applies to MU but scoped to a
// single blast radius: every resident page of that pool is scrubbed to
// zero, its allocator is replaced with a fresh free list over the same
// reservation, and the pool's epoch is bumped. Every other tenant's pool
// — and MT and MU — is untouched, so one hostile tenant's fault no
// longer invalidates its neighbours' heaps. Returns the pool's new
// epoch, or ErrNoDomainPool when the name resolves to nothing (the
// caller's cue to fall back to the global quarantine tier).
func (a *Allocator) QuarantineDomain(name string) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.pools[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoDomainPool, name)
	}
	if err := a.space.ZeroResident(p.region.Base, p.region.Size); err != nil {
		return 0, fmt.Errorf("pkalloc: quarantine domain pool %q: %w", name, err)
	}
	p.alloc = heap.NewFreeList(heap.NewPagePool(p.region), a.space)
	p.epoch++
	return p.epoch, nil
}

// DomainEpoch returns how many times the named pool has been
// quarantined (false when no such pool exists). Holders of pool
// pointers compare epochs to detect that a reset invalidated them.
func (a *Allocator) DomainEpoch(name string) (uint64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.pools[name]
	if !ok {
		return 0, false
	}
	return p.epoch, true
}

// DomainEpochs returns the quarantine epoch of every live pool, keyed by
// domain name — the per-tenant view /tenants.json serves.
func (a *Allocator) DomainEpochs() map[string]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]uint64, len(a.pools))
	for name, p := range a.pools {
		out[name] = p.epoch
	}
	return out
}

// DomainRegion returns the named pool's reservation.
func (a *Allocator) DomainRegion(name string) (*vm.Region, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.pools[name]
	if !ok {
		return nil, false
	}
	return p.region, true
}

// DomainStats returns the named pool's heap counters.
func (a *Allocator) DomainStats(name string) (heap.Stats, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.pools[name]
	if !ok {
		return heap.Stats{}, false
	}
	return p.alloc.Stats(), true
}

// domainOwnerLocked resolves the pool owning addr in O(log regions): one
// vm.Space region lookup (binary search) and one map probe on the region
// base — never a scan over every pool. This is the Free path for domain
// allocations, so it must not degrade as the tenant count grows.
func (a *Allocator) domainOwnerLocked(addr vm.Addr) (heap.Allocator, bool) {
	if len(a.byBase) == 0 {
		return nil, false
	}
	r := a.space.RegionAt(addr)
	if r == nil {
		return nil, false
	}
	p, ok := a.byBase[r.Base]
	if !ok {
		return nil, false
	}
	return p.alloc, true
}
