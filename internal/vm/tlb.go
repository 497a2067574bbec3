package vm

import (
	"fmt"
	"math/bits"
)

// Translation-cache sizes, in entries. Each must be a power of two. A
// Thread runs the checked loads and stores of a whole engine, so it gets
// the larger cache; a View serves one allocator's metadata walks, which
// mostly stay within a few pages, and there is one per pool, so it stays
// small.
const (
	threadTLBSize = 16
	viewTLBSize   = 4
)

// tlbEntry caches one translation from a virtual page number to its
// resident page. An empty entry has p == nil, so it never matches, not
// even the page at address 0 whose vpn is also 0.
type tlbEntry struct {
	vpn uint64
	p   *page
}

// tlb is a direct-mapped (hash-indexed) software TLB over a Space's page table: the
// lock-free front of pageAt for one Thread or View. It needs no shootdown
// because of two Space invariants:
//
//   - a resident page is immortal: Space never unmaps or replaces one,
//     and ZeroResident scrubs it in place, so a cached *page never goes
//     stale;
//   - the cache holds no protection key: page.pkey is read atomically on
//     every checked access, so a retag (SetPKey, SetPageKey, a vkey
//     eviction to the parking key) is visible on the very next access.
//
// This is where the simulator departs from libmpk, whose key cache holds
// the tag itself and so must pkey_sync every thread after a retag. A tlb
// is not synchronized; its owner serializes use.
type tlb []tlbEntry

// index returns the slot vpn maps to. The index is a Fibonacci hash of
// the vpn, not its low bits: pools and tenant spans are reserved on large
// power-of-two boundaries, so low-bit indexing would send the first page
// of every pool to the same slot.
func (c tlb) index(vpn uint64) uint64 {
	return (vpn * 0x9e3779b97f4a7c15) >> (64 - bits.TrailingZeros(uint(len(c))))
}

// lookup returns the resident page covering a, filling the entry on a
// miss through Space.pageAt (which materializes reserved pages). It
// returns nil if a is unmapped; unmapped lookups are not cached, so a
// later Reserve is seen at once. The miss path is out of line to keep
// the hit path small.
func (c tlb) lookup(s *Space, a Addr) *page {
	vpn := a.PageIndex()
	e := &c[c.index(vpn)]
	if e.vpn == vpn && e.p != nil {
		return e.p
	}
	return e.fill(s, a)
}

func (e *tlbEntry) fill(s *Space, a Addr) *page {
	p := s.pageAt(a)
	if p != nil {
		e.vpn, e.p = a.PageIndex(), p
	}
	return p
}

// View is an unchecked window on a Space for the trusted runtime's own
// accesses: allocator metadata and realloc copies. Its Peek and Poke
// behave exactly like Space's but resolve pages through a small
// translation cache, so a metadata walk pays the page-table lock once per
// page rather than once per field. A View is not synchronized; one
// goroutine (or one lock holder) uses it at a time. Copies are
// independent caches and equally correct.
type View struct {
	space *Space
	cache [viewTLBSize]tlbEntry
}

// NewView returns an empty View on s.
func NewView(s *Space) View { return View{space: s} }

// Peek copies len(buf) bytes from the address space into buf without any
// protection-key check; the range must be reserved.
func (v *View) Peek(a Addr, buf []byte) error { return v.raw(a, buf, false) }

// Poke copies buf into the address space without any protection-key
// check; the range must be reserved.
func (v *View) Poke(a Addr, buf []byte) error { return v.raw(a, buf, true) }

func (v *View) raw(a Addr, buf []byte, write bool) error {
	for off := 0; off < len(buf); {
		p := tlb(v.cache[:]).lookup(v.space, a+Addr(off))
		if p == nil {
			return fmt.Errorf("vm: raw %s at unmapped address %v", accessName(write), a+Addr(off))
		}
		po := int(uint64(a+Addr(off)) & PageMask)
		off += copyChunk(p, po, buf[off:], write)
	}
	return nil
}
