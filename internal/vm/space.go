// Package vm simulates the virtual-memory substrate PKRU-Safe runs on: a
// paged 48-bit address space whose pages carry MPK protection keys, regions
// reserved up front with on-demand paging (the mmap idiom pkalloc uses to
// reserve the trusted heap), and per-thread CPU contexts whose PKRU register
// gates every load and store.
//
// Faults are delivered through a simulated signal table (package sig),
// allowing the PKRU-Safe profiling runtime to interpose on SIGSEGV, record
// the faulting allocation, single-step the access, and resume — exactly the
// loop described in §4.3.2 of the paper.
package vm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mpk"
)

// Addr is a simulated virtual address.
type Addr uint64

const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the size of a virtual-memory page (4 KiB).
	PageSize = 1 << PageShift
	// PageMask masks the offset-within-page bits of an address.
	PageMask = PageSize - 1
	// AddrBits is the width of the simulated virtual address space.
	AddrBits = 48
	// MaxAddr is the first address beyond the simulated address space.
	MaxAddr Addr = 1 << AddrBits
)

// PageBase returns the base address of the page containing a.
func (a Addr) PageBase() Addr { return a &^ PageMask }

// PageIndex returns the virtual page number containing a.
func (a Addr) PageIndex() uint64 { return uint64(a) >> PageShift }

func (a Addr) String() string { return fmt.Sprintf("%#x", uint64(a)) }

// page is one resident 4 KiB page. A resident page is immortal: the Space
// never unmaps or replaces it, which is what lets a tlb cache the pointer
// without invalidation. Its key is atomic because a retag by one goroutine
// races with checked accesses on others.
type page struct {
	data []byte // allocated on first touch
	pkey atomic.Uint32
}

func newPage(key mpk.Key) *page {
	p := &page{data: make([]byte, PageSize)}
	p.pkey.Store(uint32(key))
	return p
}

// key returns the page's current protection key.
func (p *page) key() mpk.Key { return mpk.Key(p.pkey.Load()) }

func (p *page) setKey(key mpk.Key) { p.pkey.Store(uint32(key)) }

// Region is a contiguous reservation of address space, the analogue of an
// anonymous mmap. Pages inside a region become resident on first touch and
// inherit the region's protection key; this gives reservation of the whole
// trusted heap "virtually no cost if those pages are never used" (§4.4).
type Region struct {
	Name string
	Base Addr
	Size uint64
	PKey mpk.Key
}

// End returns the first address past the region.
func (r *Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether a falls inside the region.
func (r *Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// Space is a simulated address space: a sparse page table plus the set of
// reserved regions. A Space may be shared by many threads; page-table
// operations are internally synchronized.
type Space struct {
	mu      sync.RWMutex
	pages   map[uint64]*page // virtual page number -> resident page
	regions []*Region        // sorted by Base, non-overlapping
	// resident indexes pages by vpn in ascending order, so a retag or a
	// scrub costs per resident page of its range, libmpk's pkey_sync
	// cost shape. The map stays for point lookups on a TLB miss: serving
	// those by binary search of this slice alone measured about 4% lower
	// perfbench tenants throughput on 2 vCPUs.
	resident []residentPage

	// staleIndex, when set, plants the InjectStalePageIndex bug.
	staleIndex bool
}

// residentPage is one entry of Space.resident.
type residentPage struct {
	vpn uint64
	p   *page
}

// NewSpace returns an empty address space with no reservations.
func NewSpace() *Space {
	return &Space{pages: make(map[uint64]*page)}
}

// Reserve registers a region of address space with the given protection
// key. Base and size must be page-aligned, non-empty, in range, and the
// region must not overlap an existing reservation.
func (s *Space) Reserve(name string, base Addr, size uint64, key mpk.Key) (*Region, error) {
	if base&PageMask != 0 || size&PageMask != 0 {
		return nil, fmt.Errorf("vm: reserve %q: base %v / size %#x not page-aligned", name, base, size)
	}
	if size == 0 {
		return nil, fmt.Errorf("vm: reserve %q: empty region", name)
	}
	// The subtraction form avoids overflow: a size near 2^64 would wrap
	// base+size past zero and slip through an addition-based bound check,
	// registering a region whose End() precedes its Base.
	if base >= MaxAddr || size > uint64(MaxAddr) || uint64(base) > uint64(MaxAddr)-size {
		return nil, fmt.Errorf("vm: reserve %q: [%v, +%#x) outside %d-bit address space", name, base, size, AddrBits)
	}
	if !key.Valid() {
		return nil, fmt.Errorf("vm: reserve %q: invalid protection key %d", name, key)
	}
	r := &Region{Name: name, Base: base, Size: size, PKey: key}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Regions are sorted and disjoint, so only the two neighbours of the
	// insertion point can overlap; the lower one is reported first.
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].Base > base })
	for _, j := range [2]int{i - 1, i} {
		if j < 0 || j >= len(s.regions) {
			continue
		}
		if o := s.regions[j]; base < o.End() && o.Base < r.End() {
			return nil, fmt.Errorf("vm: reserve %q: overlaps region %q [%v, %v)", name, o.Name, o.Base, o.End())
		}
	}
	s.insertRegionLocked(i, r)
	return r, nil
}

// insertRegionLocked inserts r at index i of the region table.
func (s *Space) insertRegionLocked(i int, r *Region) {
	s.regions = append(s.regions, nil)
	copy(s.regions[i+1:], s.regions[i:])
	s.regions[i] = r
}

// RegionAt returns the region containing a, or nil if a is unreserved.
func (s *Space) RegionAt(a Addr) *Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.regionAtLocked(a)
}

func (s *Space) regionAtLocked(a Addr) *Region {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].End() > a })
	if i < len(s.regions) && s.regions[i].Contains(a) {
		return s.regions[i]
	}
	return nil
}

// Regions returns a snapshot of the reserved regions in address order.
func (s *Space) Regions() []*Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Region, len(s.regions))
	copy(out, s.regions)
	return out
}

// pageAt returns the resident page covering a, materializing it if a falls
// inside a reserved region. It returns nil if a is unmapped.
func (s *Space) pageAt(a Addr) *page {
	vpn := a.PageIndex()
	s.mu.RLock()
	p := s.pages[vpn]
	s.mu.RUnlock()
	if p != nil {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p = s.pages[vpn]; p != nil { // lost a race; someone else faulted it in
		return p
	}
	r := s.regionAtLocked(a)
	if r == nil {
		return nil
	}
	p = newPage(r.PKey)
	s.pages[vpn] = p
	if !s.staleIndex {
		s.indexLocked(vpn, p)
	}
	return p
}

// indexLocked records a newly materialized page in the resident index.
func (s *Space) indexLocked(vpn uint64, p *page) {
	i := s.searchResidentLocked(vpn)
	s.resident = append(s.resident, residentPage{})
	copy(s.resident[i+1:], s.resident[i:])
	s.resident[i] = residentPage{vpn, p}
}

// searchResidentLocked returns the index of the first resident page whose
// vpn is at least vpn.
func (s *Space) searchResidentLocked(vpn uint64) int {
	return sort.Search(len(s.resident), func(i int) bool { return s.resident[i].vpn >= vpn })
}

// residentLocked returns the resident pages of [base, end) in address
// order, a subslice of the index.
func (s *Space) residentLocked(base, end Addr) []residentPage {
	lo := s.searchResidentLocked(base.PageIndex())
	hi := lo
	for hi < len(s.resident) && s.resident[hi].vpn < end.PageIndex() {
		hi++
	}
	return s.resident[lo:hi]
}

// InjectStalePageIndex plants (or clears) the stale-page-index bug: pages
// materialized by a first touch are left out of the resident index, so a
// later SetPKey or ZeroResident over their range misses them and they keep
// their old key and contents. Exists solely so the conformance oracle can
// prove it catches this class; never set in production paths.
func (s *Space) InjectStalePageIndex(on bool) {
	s.mu.Lock()
	s.staleIndex = on
	s.mu.Unlock()
}

// SetPKey retags [base, base+size) with a new protection key, the analogue
// of pkey_mprotect. The range must be page-aligned and fully reserved. Both
// resident pages and the backing regions are retagged, so pages touched
// later inherit the new key; a region partially covered by the range is
// split so the retag applies exactly to [base, base+size).
func (s *Space) SetPKey(base Addr, size uint64, key mpk.Key) error {
	if base&PageMask != 0 || size&PageMask != 0 {
		return fmt.Errorf("vm: pkey_mprotect: range [%v, %#x) not page-aligned", base, uint64(base)+size)
	}
	if !key.Valid() {
		return fmt.Errorf("vm: pkey_mprotect: invalid protection key %d", key)
	}
	if size == 0 {
		// pkey_mprotect(len=0) succeeds and changes nothing; without this
		// the split below would cut the enclosing region around an empty
		// piece.
		return nil
	}
	// Same overflow-safe bound as Reserve: a wrapping base+size used to
	// make end precede base, so the reservation walk below saw an empty
	// range and the call succeeded as a silent no-op.
	if size > uint64(MaxAddr) || uint64(base) > uint64(MaxAddr)-size {
		return fmt.Errorf("vm: pkey_mprotect: [%v, +%#x) outside %d-bit address space", base, size, AddrBits)
	}
	end := base + Addr(size)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Verify the whole range is reserved before mutating anything: from
	// the first region ending past base, each must start where the last
	// one ended until the range is covered.
	first := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].End() > base })
	for a, i := base, first; a < end; i++ {
		if i == len(s.regions) || s.regions[i].Base > a {
			return fmt.Errorf("vm: pkey_mprotect: %v not reserved", a)
		}
		a = s.regions[i].End()
	}
	for i := first; i < len(s.regions) && s.regions[i].Base < end; i++ {
		r := s.regions[i]
		lo, hi := r.Base, r.End()
		if base > lo {
			s.insertRegionLocked(i, &Region{Name: r.Name, Base: lo, Size: uint64(base - lo), PKey: r.PKey})
			i++
			lo = base
		}
		if end < hi {
			s.insertRegionLocked(i+1, &Region{Name: r.Name, Base: end, Size: uint64(hi - end), PKey: r.PKey})
			hi = end
		}
		// Bounds are written only on a split: allocators read a whole
		// region's bounds without the space lock while retags of that
		// region run under it.
		if r.Base != lo || r.End() != hi {
			r.Base, r.Size = lo, uint64(hi-lo)
		}
		r.PKey = key
	}
	for _, rp := range s.residentLocked(base, end) {
		rp.p.setKey(key)
	}
	return nil
}

// SetPageKey retags the resident pages of [base, base+size) with a new
// protection key without touching the region table — the in-place healing
// primitive the fault supervisor uses to migrate a misclassified object
// MT→MU. Unlike SetPKey it never splits a reservation, so allocator
// region-ownership checks (pkalloc's regionT/regionU Contains tests) keep
// seeing the original reservations; only the page-level key, which is what
// the MMU checks, changes. Pages in the range that are not yet resident
// are materialized first so the retag sticks. The range must be
// page-aligned and fully reserved.
func (s *Space) SetPageKey(base Addr, size uint64, key mpk.Key) error {
	if base&PageMask != 0 || size&PageMask != 0 {
		return fmt.Errorf("vm: set page key: range [%v, %#x) not page-aligned", base, uint64(base)+size)
	}
	if !key.Valid() {
		return fmt.Errorf("vm: set page key: invalid protection key %d", key)
	}
	if size != 0 && (size > uint64(MaxAddr) || uint64(base) > uint64(MaxAddr)-size) {
		return fmt.Errorf("vm: set page key: [%v, +%#x) outside %d-bit address space", base, size, AddrBits)
	}
	end := base + Addr(size)
	s.mu.Lock()
	defer s.mu.Unlock()
	for a := base; a < end; {
		r := s.regionAtLocked(a)
		if r == nil {
			return fmt.Errorf("vm: set page key: %v not reserved", a)
		}
		a = r.End()
	}
	for a := base; a < end; a += PageSize {
		vpn := a.PageIndex()
		p := s.pages[vpn]
		if p == nil {
			p = newPage(key)
			s.pages[vpn] = p
			s.indexLocked(vpn, p)
		}
		p.setKey(key)
	}
	return nil
}

// ZeroResident clears the contents of every resident page in [base,
// base+size), leaving keys and residency untouched. Quarantine uses it to
// scrub a compromised untrusted pool before handing the address range to a
// fresh allocator. The range must be page-aligned.
func (s *Space) ZeroResident(base Addr, size uint64) error {
	if base&PageMask != 0 || size&PageMask != 0 {
		return fmt.Errorf("vm: zero resident: range [%v, %#x) not page-aligned", base, uint64(base)+size)
	}
	if size != 0 && (size > uint64(MaxAddr) || uint64(base) > uint64(MaxAddr)-size) {
		return fmt.Errorf("vm: zero resident: [%v, +%#x) outside %d-bit address space", base, size, AddrBits)
	}
	end := base + Addr(size)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rp := range s.residentLocked(base, end) {
		clear(rp.p.data)
	}
	return nil
}

// PKeyAt returns the protection key governing address a and whether a is
// reserved at all.
func (s *Space) PKeyAt(a Addr) (mpk.Key, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if p := s.pages[a.PageIndex()]; p != nil {
		return p.key(), true
	}
	if r := s.regionAtLocked(a); r != nil {
		return r.PKey, true
	}
	return 0, false
}

// PageInfo describes one page for diagnostics: whether it falls inside a
// reservation, whether it has been materialized, and the protection key
// and region governing it. Crash forensics renders a window of these
// around a faulting address.
type PageInfo struct {
	Base     Addr
	Reserved bool
	Resident bool
	PKey     mpk.Key // meaningful only when Reserved
	Region   string  // owning reservation's name, "" if unreserved
}

// PageMapAround reports the pages within radius pages on each side of a
// (inclusive), clamped to the address space, oldest address first. The
// whole window is read under one lock so the view is consistent.
func (s *Space) PageMapAround(a Addr, radius int) []PageInfo {
	if radius < 0 {
		radius = 0
	}
	first := a.PageBase()
	for i := 0; i < radius && first >= PageSize; i++ {
		first -= PageSize
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]PageInfo, 0, 2*radius+1)
	for p := first; p < MaxAddr && len(out) < cap(out); p += PageSize {
		info := PageInfo{Base: p}
		if pg := s.pages[p.PageIndex()]; pg != nil {
			info.Reserved, info.Resident, info.PKey = true, true, pg.key()
		} else if r := s.regionAtLocked(p); r != nil {
			info.Reserved, info.PKey = true, r.PKey
		}
		if r := s.regionAtLocked(p); r != nil {
			info.Region = r.Name
		}
		out = append(out, info)
	}
	return out
}

// ResidentPages returns the number of pages that have been touched and are
// therefore backed by committed memory.
func (s *Space) ResidentPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// Peek copies len(buf) bytes from the address space into buf without any
// protection-key check. It stands in for accesses made by the trusted
// runtime itself (the profiler's metadata lookups, test assertions); it
// still requires the range to be reserved.
func (s *Space) Peek(a Addr, buf []byte) error {
	v := NewView(s)
	return v.Peek(a, buf)
}

// Poke copies buf into the address space without any protection-key check.
func (s *Space) Poke(a Addr, buf []byte) error {
	v := NewView(s)
	return v.Poke(a, buf)
}

func accessName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// copyChunk moves bytes between buf and one page starting at page offset po,
// returning the number of bytes moved.
func copyChunk(p *page, po int, buf []byte, write bool) int {
	n := PageSize - po
	if n > len(buf) {
		n = len(buf)
	}
	if write {
		copy(p.data[po:po+n], buf[:n])
	} else {
		copy(buf[:n], p.data[po:po+n])
	}
	return n
}
