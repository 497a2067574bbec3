// Package provenance implements PKRU-Safe's runtime provenance tracking
// (§4.3): a metadata store mapping live heap objects to their allocation
// sites, and the profiling fault handler that records which sites are
// accessed from the untrusted compartment and single-steps past each
// faulting access.
package provenance

import (
	"sort"
	"sync"

	"repro/internal/profile"
	"repro/internal/vm"
)

// Entry is the runtime metadata recorded for one live allocation: the
// paper's (address, size, AllocId) tuple.
type Entry struct {
	Base vm.Addr
	Size uint64
	ID   profile.AllocID
}

// End returns the first address past the object.
func (e Entry) End() vm.Addr { return e.Base + vm.Addr(e.Size) }

// Store tracks live allocations and answers interior-pointer lookups: the
// faulting address delivered to the handler is rarely the object base, so
// Lookup must resolve any address within [Base, Base+Size).
type Store interface {
	// Track records a new live object. Tracking an overlapping object is a
	// caller bug; the new entry wins for lookups in the overlap.
	Track(e Entry)
	// Untrack removes the object based at base, returning its entry.
	Untrack(base vm.Addr) (Entry, bool)
	// Lookup resolves any address inside a live object.
	Lookup(addr vm.Addr) (Entry, bool)
	// Len returns the number of live tracked objects.
	Len() int
}

// IntervalStore is the production store: a base-sorted slice with binary
// search, giving O(log n) lookups over tens of thousands of live objects.
type IntervalStore struct {
	entries []Entry // sorted by Base
}

// NewIntervalStore returns an empty interval store.
func NewIntervalStore() *IntervalStore { return &IntervalStore{} }

// Track implements Store.
func (s *IntervalStore) Track(e Entry) {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Base >= e.Base })
	if i < len(s.entries) && s.entries[i].Base == e.Base {
		s.entries[i] = e // re-track at same base (realloc-in-place)
		return
	}
	s.entries = append(s.entries, Entry{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = e
}

// Untrack implements Store.
func (s *IntervalStore) Untrack(base vm.Addr) (Entry, bool) {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Base >= base })
	if i >= len(s.entries) || s.entries[i].Base != base {
		return Entry{}, false
	}
	e := s.entries[i]
	s.entries = append(s.entries[:i], s.entries[i+1:]...)
	return e, true
}

// Lookup implements Store.
func (s *IntervalStore) Lookup(addr vm.Addr) (Entry, bool) {
	// First entry with Base > addr; the candidate is its predecessor.
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Base > addr })
	if i == 0 {
		return Entry{}, false
	}
	e := s.entries[i-1]
	if addr < e.End() {
		return e, true
	}
	return Entry{}, false
}

// Len implements Store.
func (s *IntervalStore) Len() int { return len(s.entries) }

// Shadow is a program's one allocation shadow store: the live site
// allocations of both pools, fed by the allocation callbacks and read by
// whoever must resolve an address to its site — the profiling fault
// handler, fault forensics, the Heal supervisor and the crossing sampler.
// It is safe for concurrent use. A nil *Shadow tracks nothing and finds
// nothing.
type Shadow struct {
	mu    sync.Mutex
	store IntervalStore
}

// Track records a new live object (log_alloc).
func (s *Shadow) Track(e Entry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.store.Track(e)
	s.mu.Unlock()
}

// Retrack moves the object based at oldBase to newBase with newSize,
// keeping its AllocId (log_realloc): because pkalloc's realloc never
// changes pools, associating the new object with the old site remains
// sound (§4.3.1). An untracked oldBase is ignored.
func (s *Shadow) Retrack(oldBase, newBase vm.Addr, newSize uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if e, ok := s.store.Untrack(oldBase); ok {
		e.Base, e.Size = newBase, newSize
		s.store.Track(e)
	}
	s.mu.Unlock()
}

// Untrack drops the object based at base (log_dealloc).
func (s *Shadow) Untrack(base vm.Addr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.store.Untrack(base)
	s.mu.Unlock()
}

// Lookup resolves any address inside a live object.
func (s *Shadow) Lookup(addr vm.Addr) (Entry, bool) {
	if s == nil {
		return Entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Lookup(addr)
}

// Len returns the number of live tracked objects.
func (s *Shadow) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Len()
}

// LinearStore is the naive baseline kept for the metadata-store ablation
// benchmark: a flat slice scanned linearly on every lookup.
type LinearStore struct {
	entries []Entry
}

// NewLinearStore returns an empty linear store.
func NewLinearStore() *LinearStore { return &LinearStore{} }

// Track implements Store.
func (s *LinearStore) Track(e Entry) {
	for i := range s.entries {
		if s.entries[i].Base == e.Base {
			s.entries[i] = e
			return
		}
	}
	s.entries = append(s.entries, e)
}

// Untrack implements Store.
func (s *LinearStore) Untrack(base vm.Addr) (Entry, bool) {
	for i := range s.entries {
		if s.entries[i].Base == base {
			e := s.entries[i]
			s.entries[i] = s.entries[len(s.entries)-1]
			s.entries = s.entries[:len(s.entries)-1]
			return e, true
		}
	}
	return Entry{}, false
}

// Lookup implements Store.
func (s *LinearStore) Lookup(addr vm.Addr) (Entry, bool) {
	for _, e := range s.entries {
		if addr >= e.Base && addr < e.End() {
			return e, true
		}
	}
	return Entry{}, false
}

// Len implements Store.
func (s *LinearStore) Len() int { return len(s.entries) }
