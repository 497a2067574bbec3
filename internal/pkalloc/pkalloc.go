// Package pkalloc is the compartment-aware allocator at the heart of
// PKRU-Safe's heap partitioning (§4.4). It manages two disjoint pools:
//
//   - MT, the trusted pool, reserved up front as one large region whose
//     pages carry a dedicated protection key and are served by a
//     jemalloc-style arena;
//   - MU, the untrusted/shared pool, tagged with the default key 0 so it is
//     accessible from every compartment, served by a libc-style free list.
//
// Pages never migrate between the pools, reallocation never changes an
// object's pool, and each allocator's internal bookkeeping stays within its
// own compartment — the three properties §3.4 identifies as necessary to
// make page-granularity MPK enforcement sound for object-granularity
// sharing decisions.
package pkalloc

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/heap"
	"repro/internal/mpk"
	"repro/internal/vm"
)

// Compartment identifies which pool an object was allocated from.
type Compartment uint8

const (
	// Trusted is the MT pool: private to the safe language.
	Trusted Compartment = iota
	// Untrusted is the MU pool: shared with (and writable by) unsafe code.
	Untrusted
)

func (c Compartment) String() string {
	if c == Trusted {
		return "MT"
	}
	return "MU"
}

// Defaults mirroring the paper: MT reserves 46 bits of address space at
// startup via on-demand-paged mmap, "which has virtually no cost if those
// pages are never used".
const (
	DefaultTrustedBase   vm.Addr = 0x2000_0000_0000
	DefaultTrustedSize   uint64  = 1 << 46
	DefaultUntrustedBase vm.Addr = 0x7000_0000_0000
	DefaultUntrustedSize uint64  = 1 << 40
	// DefaultTrustedKey is the protection key tagging MT pages. MU pages
	// keep key 0, the architectural default accessible to every PKRU value
	// a gate installs.
	DefaultTrustedKey mpk.Key = 1
)

// ErrNotOwned is returned for addresses outside both pools.
var ErrNotOwned = errors.New("pkalloc: address not owned by either pool")

// Config parameterizes New. Zero-valued fields take the defaults above.
type Config struct {
	Space         *vm.Space
	TrustedBase   vm.Addr
	TrustedSize   uint64
	UntrustedBase vm.Addr
	UntrustedSize uint64
	TrustedKey    mpk.Key
}

// Stats reports per-pool activity, the source of the paper's %MU column.
type Stats struct {
	Trusted   heap.Stats
	Untrusted heap.Stats
}

// UntrustedShare returns the fraction of cumulatively allocated bytes that
// came from MU, in [0, 1].
func (s Stats) UntrustedShare() float64 {
	total := s.Trusted.BytesTotal + s.Untrusted.BytesTotal
	if total == 0 {
		return 0
	}
	return float64(s.Untrusted.BytesTotal) / float64(total)
}

// Allocator is the split allocator. It is safe for concurrent use.
type Allocator struct {
	mu        sync.Mutex
	space     *vm.Space
	trusted   heap.Allocator
	untrusted heap.Allocator
	regionT   *vm.Region
	regionU   *vm.Region
	key       mpk.Key
	uEpoch    uint64 // incremented by each untrusted-pool quarantine

	// Per-domain pools (see domains.go); nil until the first AddDomainPool.
	pools        map[string]*domainPool
	byBase       map[vm.Addr]*domainPool // pool by region base, for O(1) Free
	freeRegions  []*vm.Region            // scrubbed regions awaiting reuse
	nextPoolBase vm.Addr
}

// New reserves both pools in cfg.Space and returns the allocator.
func New(cfg Config) (*Allocator, error) {
	if cfg.Space == nil {
		return nil, errors.New("pkalloc: Config.Space is required")
	}
	if cfg.TrustedBase == 0 {
		cfg.TrustedBase = DefaultTrustedBase
	}
	if cfg.TrustedSize == 0 {
		cfg.TrustedSize = DefaultTrustedSize
	}
	if cfg.UntrustedBase == 0 {
		cfg.UntrustedBase = DefaultUntrustedBase
	}
	if cfg.UntrustedSize == 0 {
		cfg.UntrustedSize = DefaultUntrustedSize
	}
	if cfg.TrustedKey == 0 {
		cfg.TrustedKey = DefaultTrustedKey
	}
	rT, err := cfg.Space.Reserve("pkalloc/MT", cfg.TrustedBase, cfg.TrustedSize, cfg.TrustedKey)
	if err != nil {
		return nil, fmt.Errorf("pkalloc: reserving MT: %w", err)
	}
	rU, err := cfg.Space.Reserve("pkalloc/MU", cfg.UntrustedBase, cfg.UntrustedSize, 0)
	if err != nil {
		return nil, fmt.Errorf("pkalloc: reserving MU: %w", err)
	}
	return &Allocator{
		space:     cfg.Space,
		trusted:   heap.NewArena(heap.NewPagePool(rT)),
		untrusted: heap.NewFreeList(heap.NewPagePool(rU), cfg.Space),
		regionT:   rT,
		regionU:   rU,
		key:       cfg.TrustedKey,
	}, nil
}

// TrustedKey returns the protection key tagging MT pages.
func (a *Allocator) TrustedKey() mpk.Key { return a.key }

// TrustedRegion returns the MT reservation.
func (a *Allocator) TrustedRegion() *vm.Region { return a.regionT }

// UntrustedRegion returns the MU reservation.
func (a *Allocator) UntrustedRegion() *vm.Region { return a.regionU }

// Space returns the address space both pools live in.
func (a *Allocator) Space() *vm.Space { return a.space }

// Alloc serves an allocation from MT (the __rust_alloc path).
func (a *Allocator) Alloc(size uint64) (vm.Addr, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.trusted.Alloc(size)
}

// UntrustedAlloc serves an allocation from MU (the __rust_untrusted_alloc
// path emitted by the enforcement build for profiled allocation sites).
func (a *Allocator) UntrustedAlloc(size uint64) (vm.Addr, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.untrusted.Alloc(size)
}

// AllocIn serves an allocation from the named compartment.
func (a *Allocator) AllocIn(c Compartment, size uint64) (vm.Addr, error) {
	if c == Untrusted {
		return a.UntrustedAlloc(size)
	}
	return a.Alloc(size)
}

// Free releases an allocation from whichever pool owns it.
func (a *Allocator) Free(addr vm.Addr) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	alloc, _, err := a.ownerLocked(addr)
	if err != nil {
		return err
	}
	return alloc.Free(addr)
}

// Realloc resizes an allocation, always staying within the pool the base
// pointer originated from — the modified __rust_realloc contract that makes
// provenance tracking across reallocation sound (§4.2, §4.3.1).
func (a *Allocator) Realloc(addr vm.Addr, newSize uint64) (vm.Addr, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	alloc, _, err := a.ownerLocked(addr)
	if err != nil {
		return 0, err
	}
	oldSize, ok := alloc.UsableSize(addr)
	if !ok {
		return 0, fmt.Errorf("pkalloc: realloc of dead allocation %v", addr)
	}
	if newSize <= oldSize {
		return addr, nil // shrink in place
	}
	newAddr, err := alloc.Alloc(newSize)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, oldSize)
	mem := vm.NewView(a.space)
	if err := mem.Peek(addr, buf); err != nil {
		return 0, err
	}
	if err := mem.Poke(newAddr, buf); err != nil {
		return 0, err
	}
	if err := alloc.Free(addr); err != nil {
		return 0, err
	}
	return newAddr, nil
}

// UsableSize returns the capacity of the allocation containing addr.
func (a *Allocator) UsableSize(addr vm.Addr) (uint64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	alloc, _, err := a.ownerLocked(addr)
	if err != nil {
		return 0, false
	}
	return alloc.UsableSize(addr)
}

// CompartmentOf reports which pool owns addr.
func (a *Allocator) CompartmentOf(addr vm.Addr) (Compartment, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, c, err := a.ownerLocked(addr)
	return c, err == nil
}

func (a *Allocator) ownerLocked(addr vm.Addr) (heap.Allocator, Compartment, error) {
	switch {
	case a.regionT.Contains(addr):
		return a.trusted, Trusted, nil
	case a.regionU.Contains(addr):
		return a.untrusted, Untrusted, nil
	}
	// Domain pools resolve through the space's region index, not a scan
	// over every pool — Free must stay O(log regions) under tenant churn.
	if alloc, ok := a.domainOwnerLocked(addr); ok {
		return alloc, Untrusted, nil
	}
	return nil, 0, fmt.Errorf("%w: %v", ErrNotOwned, addr)
}

// QuarantineUntrusted resets the MU pool after a compartment failure: the
// epoch is bumped, every resident MU page is scrubbed to zero (a
// compromised untrusted library must not leave poisoned data for the next
// request), and the pool's allocator is replaced with a fresh free list
// over the same reservation. All outstanding MU allocations are thereby
// invalidated — subsequent Free/Realloc on a pre-quarantine MU pointer
// fails like any bad free. MT is untouched: quarantine rehabilitates the
// sandbox heap, never the trusted one.
func (a *Allocator) QuarantineUntrusted() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.space.ZeroResident(a.regionU.Base, a.regionU.Size); err != nil {
		return fmt.Errorf("pkalloc: quarantine MU: %w", err)
	}
	a.untrusted = heap.NewFreeList(heap.NewPagePool(a.regionU), a.space)
	a.uEpoch++
	return nil
}

// UntrustedEpoch returns how many times the MU pool has been quarantined.
// Holders of MU pointers can compare epochs to detect that their pointers
// were invalidated by a reset.
func (a *Allocator) UntrustedEpoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.uEpoch
}

// Stats returns per-pool counters.
func (a *Allocator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{Trusted: a.trusted.Stats(), Untrusted: a.untrusted.Stats()}
}
