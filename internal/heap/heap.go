// Package heap provides the two general-purpose allocators pkalloc composes:
//
//   - Arena: a size-class slab allocator in the style of jemalloc, used for
//     the trusted pool MT. Its bookkeeping lives in out-of-band structures,
//     mirroring jemalloc's separation of metadata from application data.
//   - FreeList: a boundary-tag first-fit allocator in the style of libc's
//     dlmalloc, used for the shared/untrusted pool MU. Its chunk headers
//     live inside the managed memory itself — which both matches the real
//     allocator and means an untrusted compartment with a corruption bug
//     can clobber them, exactly the failure mode the paper's threat model
//     contemplates.
//
// Both allocators draw pages exclusively from a PagePool bound to one
// vm.Region, which is what guarantees the compartment pools stay disjoint:
// pages are recycled within a pool but never migrate between pools (§3.4).
package heap

import (
	"errors"
	"fmt"

	"repro/internal/vm"
)

// Align is the alignment every allocator in this package guarantees.
const Align = 16

// ErrOutOfMemory is returned when a pool's region is exhausted.
var ErrOutOfMemory = errors.New("heap: out of memory")

// ErrBadFree is returned when Free is handed an address the allocator does
// not own or has already freed.
var ErrBadFree = errors.New("heap: invalid or double free")

// Stats summarizes an allocator's activity.
type Stats struct {
	Allocs      uint64 // successful Alloc calls
	Frees       uint64 // successful Free calls
	BytesLive   uint64 // bytes currently allocated (requested sizes)
	BytesTotal  uint64 // cumulative bytes handed out (requested sizes)
	PagesMapped uint64 // pages drawn from the page pool and still held
	ReuseHits   uint64 // allocations served from recycled memory (free list / partial slab)
	FreshAllocs uint64 // allocations served from never-used memory (wilderness / new slab / large run)
	PageReuse   uint64 // page-run requests the pool served from its free runs
	PageFresh   uint64 // page-run requests the pool served from the bump pointer
}

// Allocator is the interface shared by Arena and FreeList.
type Allocator interface {
	// Alloc returns a 16-byte-aligned block of at least size bytes.
	// A size of zero allocates a minimal valid block.
	Alloc(size uint64) (vm.Addr, error)
	// Free releases a block previously returned by Alloc.
	Free(addr vm.Addr) error
	// UsableSize returns the capacity of the block containing addr and
	// whether addr is a live allocation owned by this allocator.
	UsableSize(addr vm.Addr) (uint64, bool)
	// Stats returns a snapshot of activity counters.
	Stats() Stats
}

func alignUp(n, a uint64) uint64 { return (n + a - 1) &^ (a - 1) }

// maxAlloc is the largest request either allocator accepts: 2^48 bytes,
// the whole of a 48-bit address space. No pool can serve more, and
// rejecting larger sizes up front keeps every rounding of a request (to
// chunks, size classes and pages) from wrapping around to a small block.
const maxAlloc = 1 << 48

// checkSize rejects a request above maxAlloc.
func checkSize(size uint64) error {
	if size > maxAlloc {
		return fmt.Errorf("%w: request of %d bytes exceeds the %d-byte limit", ErrOutOfMemory, size, uint64(maxAlloc))
	}
	return nil
}
