package heap

import (
	"encoding/binary"
	"fmt"

	"repro/internal/vm"
)

// FreeList is a dlmalloc-style boundary-tag allocator: every chunk carries
// an in-band header, free chunks additionally carry forward/backward links
// and a size footer, and adjacent free chunks coalesce eagerly. It is the
// stand-in for libc's malloc serving the shared pool MU, and — like the
// real thing — keeps this metadata inside the managed memory, where
// untrusted code can reach it.
//
// Chunk layout (offsets from chunk base, little-endian uint64 fields):
//
//	+0  prevSize  valid only when the preceding chunk is free
//	+8  size|flags  chunk size incl. header; bit0 = in use, bit1 = prev in use
//	+16 payload    (free chunks: +16 fd, +24 bk, end-8 size footer)
//
// FreeList is not internally synchronized; pkalloc serializes access.
type FreeList struct {
	pool *PagePool
	mem  vm.View // metadata accesses; serialized with the FreeList itself

	head     vm.Addr // first free chunk (0 = empty list)
	top      vm.Addr // wilderness chunk base (0 = none yet)
	topSize  uint64
	frontier vm.Addr // end of the highest extent drawn from the pool

	live  map[vm.Addr]uint64 // payload addr -> requested size (defensive bookkeeping)
	stats Stats
}

const (
	flagInUse     = 1 << 0
	flagPrevInUse = 1 << 1
	flagMask      = flagInUse | flagPrevInUse

	headerSize   = 16
	minChunk     = 32 // header + fd/bk links
	growPagesMin = 16 // minimum wilderness extension
)

// NewFreeList creates a free-list allocator drawing pages from pool.
func NewFreeList(pool *PagePool, space *vm.Space) *FreeList {
	return &FreeList{pool: pool, mem: vm.NewView(space), live: make(map[vm.Addr]uint64)}
}

func (f *FreeList) ld(a vm.Addr) uint64 {
	var b [8]byte
	if err := f.mem.Peek(a, b[:]); err != nil {
		panic(fmt.Sprintf("heap: freelist metadata read at %v: %v", a, err))
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (f *FreeList) st(a vm.Addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	if err := f.mem.Poke(a, b[:]); err != nil {
		panic(fmt.Sprintf("heap: freelist metadata write at %v: %v", a, err))
	}
}

func (f *FreeList) chunkSize(c vm.Addr) uint64  { return f.ld(c+8) &^ flagMask }
func (f *FreeList) chunkFlags(c vm.Addr) uint64 { return f.ld(c+8) & flagMask }
func (f *FreeList) setHeader(c vm.Addr, size, flags uint64) {
	f.st(c+8, size|flags)
}

// Alloc implements Allocator.
func (f *FreeList) Alloc(size uint64) (vm.Addr, error) {
	if err := checkSize(size); err != nil {
		return 0, err
	}
	need := alignUp(size+headerSize, Align)
	if need < minChunk {
		need = minChunk
	}
	// First fit over the free list.
	for c := f.head; c != 0; c = vm.Addr(f.ld(c + 16)) {
		if f.chunkSize(c) < need {
			continue
		}
		f.unlink(c)
		f.carve(c, need)
		f.stats.ReuseHits++
		return f.finishAlloc(c, size)
	}
	// Fall back to the wilderness chunk, growing it as needed.
	if err := f.ensureTop(need); err != nil {
		return 0, err
	}
	f.stats.FreshAllocs++
	c := f.top
	f.top += vm.Addr(need)
	f.topSize -= need
	f.setHeader(c, need, flagInUse|flagPrevInUse)
	if f.topSize > 0 {
		// The top remainder always behaves as "prev in use".
		f.setHeader(f.top, f.topSize, flagPrevInUse)
	}
	return f.finishAlloc(c, size)
}

func (f *FreeList) finishAlloc(c vm.Addr, req uint64) (vm.Addr, error) {
	payload := c + headerSize
	f.live[payload] = req
	f.stats.Allocs++
	f.stats.BytesLive += req
	f.stats.BytesTotal += req
	return payload, nil
}

// carve splits chunk c (already unlinked, total size >= need) into an
// in-use chunk of exactly need bytes plus a free remainder, if the
// remainder is big enough to stand alone.
func (f *FreeList) carve(c vm.Addr, need uint64) {
	total := f.chunkSize(c)
	prevBit := f.chunkFlags(c) & flagPrevInUse
	if total-need >= minChunk {
		rem := c + vm.Addr(need)
		f.setHeader(c, need, flagInUse|prevBit)
		f.setHeader(rem, total-need, flagPrevInUse)
		f.markFree(rem)
		f.insert(rem)
	} else {
		f.setHeader(c, total, flagInUse|prevBit)
		f.setNextPrevInUse(c, total, true)
	}
}

// ensureTop guarantees the wilderness chunk holds at least need bytes.
func (f *FreeList) ensureTop(need uint64) error {
	if f.topSize >= need {
		return nil
	}
	pages := alignUp(need-f.topSize, vm.PageSize) / vm.PageSize
	if pages < growPagesMin {
		pages = growPagesMin
	}
	base, err := f.pool.AllocPages(pages)
	if err != nil {
		return err
	}
	f.stats.PagesMapped += pages
	grown := pages * vm.PageSize
	if base+vm.Addr(grown) > f.frontier {
		f.frontier = base + vm.Addr(grown)
	}
	if f.top != 0 && f.top+vm.Addr(f.topSize) == base {
		f.topSize += grown // contiguous extension
		return f.ensureTop(need)
	}
	// Discontiguous: retire the old top as a free chunk and start fresh.
	if f.topSize >= minChunk {
		old := f.top
		f.setHeader(old, f.topSize, f.chunkFlags(old)&flagPrevInUse)
		f.markFree(old)
		f.insert(old)
	} else if f.topSize > 0 {
		// A fragment too small to stand alone is abandoned; mark it in use
		// so neighbours never coalesce into it (bounded internal waste).
		f.setHeader(f.top, f.topSize, flagInUse|f.chunkFlags(f.top)&flagPrevInUse)
	}
	f.top = base
	f.topSize = grown
	f.setHeader(base, grown, flagPrevInUse)
	return f.ensureTop(need)
}

// markFree clears the in-use bit bookkeeping around a free chunk: writes the
// footer and clears the next chunk's prev-in-use flag.
func (f *FreeList) markFree(c vm.Addr) {
	size := f.chunkSize(c)
	f.st(c+vm.Addr(size)-8, size) // footer
	f.setNextPrevInUse(c, size, false)
}

// setNextPrevInUse updates the prev-in-use flag of the chunk after c, and
// its prevSize field when marking free.
func (f *FreeList) setNextPrevInUse(c vm.Addr, size uint64, inUse bool) {
	next := c + vm.Addr(size)
	if next == f.top {
		return // the top chunk's flags are managed separately
	}
	if !f.isManaged(next) {
		return // c abuts unmanaged space (end of a discontiguous extent)
	}
	hdr := f.ld(next + 8)
	if inUse {
		hdr |= flagPrevInUse
	} else {
		hdr &^= flagPrevInUse
		f.st(next, size) // prevSize
	}
	f.st(next+8, hdr)
}

// isManaged reports whether a chunk header at addr lies within memory this
// allocator has drawn from its pool.
func (f *FreeList) isManaged(addr vm.Addr) bool {
	return f.pool.Region().Contains(addr) && addr < f.frontier
}

// insert links chunk c at the head of the free list.
func (f *FreeList) insert(c vm.Addr) {
	f.st(c+16, uint64(f.head)) // fd
	f.st(c+24, 0)              // bk
	if f.head != 0 {
		f.st(f.head+24, uint64(c))
	}
	f.head = c
}

// unlink removes chunk c from the free list.
func (f *FreeList) unlink(c vm.Addr) {
	fd := vm.Addr(f.ld(c + 16))
	bk := vm.Addr(f.ld(c + 24))
	if bk != 0 {
		f.st(bk+16, uint64(fd))
	} else {
		f.head = fd
	}
	if fd != 0 {
		f.st(fd+24, uint64(bk))
	}
}

// Free implements Allocator.
func (f *FreeList) Free(payload vm.Addr) error {
	req, ok := f.live[payload]
	if !ok {
		return fmt.Errorf("%w: %v not a live freelist allocation", ErrBadFree, payload)
	}
	delete(f.live, payload)
	c := payload - headerSize
	size := f.chunkSize(c)
	flags := f.chunkFlags(c)
	f.stats.Frees++
	f.stats.BytesLive -= req

	// Coalesce backward.
	if flags&flagPrevInUse == 0 {
		prevSize := f.ld(c)
		prev := c - vm.Addr(prevSize)
		f.unlink(prev)
		c = prev
		size += prevSize
	}
	// Coalesce forward (or merge into the wilderness).
	next := c + vm.Addr(size)
	if next == f.top {
		f.top = c
		f.topSize += size
		f.setHeader(c, f.topSize, flagPrevInUse)
		return nil
	}
	if f.isManaged(next) && f.chunkFlags(next)&flagInUse == 0 && f.chunkSize(next) > 0 {
		f.unlink(next)
		size += f.chunkSize(next)
	}
	f.setHeader(c, size, flagPrevInUse)
	f.markFree(c)
	f.insert(c)
	return nil
}

// UsableSize implements Allocator.
func (f *FreeList) UsableSize(payload vm.Addr) (uint64, bool) {
	if _, ok := f.live[payload]; !ok {
		return 0, false
	}
	return f.chunkSize(payload-headerSize) - headerSize, true
}

// Owns implements Allocator.
func (f *FreeList) Owns(addr vm.Addr) bool { return f.pool.Region().Contains(addr) }

// Stats implements Allocator.
func (f *FreeList) Stats() Stats {
	s := f.stats
	s.PageReuse = f.pool.ReuseCount()
	s.PageFresh = f.pool.FreshCount()
	return s
}
