// Package profstore is the continuous-profiling plane's persistent state:
// a generational store of sharing profiles, the crossing sampler that
// attributes live T→U boundary crossings to allocation sites, and the
// staged-rollout machinery that shadow-applies a candidate generation
// before promoting it.
//
// The paper's dynamic analysis (§4.3) is a one-shot offline phase: profile
// once, bake the alloc→ualloc rewrites into the enforcement build, ship.
// Long-running services need the loop closed at runtime instead — heal
// deltas (the sites the supervisor migrated MT→MU) and live crossing
// observations accumulate into *generations*, each a full profile snapshot
// with provenance, and a generation only becomes active after a staged
// comparison shows it does not regress fault rates. Sites that stop
// crossing for a window of generations surface as re-tighten candidates:
// the MU→MT demotions a fresh profiling run would have discovered.
package profstore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// StoreSchema versions the store's JSON persistence and the /profile
// endpoint's view of it.
const StoreSchema = 1

// DefaultRetightenWindow is how many generations a site must go without an
// observed crossing before it is proposed for MU→MT demotion.
const DefaultRetightenWindow = 2

// Generation is one versioned profile snapshot. Seq 0 is the seed; every
// later generation extends its parent with one source's delta (a heal run,
// a merge, a profiling rerun).
type Generation struct {
	Seq    int
	Parent int // -1 for the seed generation
	Source string
	Sites  *profile.Profile
}

// Store holds the generation history, the active generation, and the
// last-seen bookkeeping behind re-tighten proposals. All methods are safe
// for concurrent use.
type Store struct {
	mu       sync.Mutex
	gens     []Generation
	active   int
	lastSeen map[profile.AllocID]int // generation a site last crossed in
	ring     *trace.Ring
}

// New returns a store holding only the empty seed generation, active.
func New() *Store {
	return &Store{
		gens:     []Generation{{Seq: 0, Parent: -1, Source: "seed", Sites: profile.New()}},
		lastSeen: make(map[profile.AllocID]int),
	}
}

// SetTrace attaches an event ring receiving ProfileSwap events on
// promotion (nil detaches).
func (s *Store) SetTrace(r *trace.Ring) {
	s.mu.Lock()
	s.ring = r
	s.mu.Unlock()
}

// SetTelemetry publishes the store's state as gauges: the active
// generation sequence and the number of generations held.
func (s *Store) SetTelemetry(reg *telemetry.Registry) {
	reg.GaugeFunc("pkrusafe_profile_generation",
		"Sequence number of the active profile generation.",
		func() float64 { return float64(s.ActiveSeq()) })
	reg.GaugeFunc("pkrusafe_profile_generations",
		"Profile generations held by the store.",
		func() float64 { return float64(s.Len()) })
}

// Len returns the number of generations held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.gens)
}

// ActiveSeq returns the active generation's sequence number.
func (s *Store) ActiveSeq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Active returns the active generation. The returned profile is shared;
// callers must treat it as read-only.
func (s *Store) Active() Generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gens[s.active]
}

// Generation returns the generation with the given sequence number.
func (s *Store) Generation(seq int) (Generation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq < 0 || seq >= len(s.gens) {
		return Generation{}, false
	}
	return s.gens[seq], true
}

// Commit derives a new candidate generation: the active generation's sites
// merged with delta, attributed to source. The candidate is NOT active;
// promotion is a separate, deliberate step (normally gated on a staged
// rollout). Delta sites count as seen now — they just demonstrably
// crossed — and sites entering the store for the first time are
// initialized as seen at the commit, so a freshly loaded profile is not
// instantly proposed for demotion.
func (s *Store) Commit(delta *profile.Profile, source string) Generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := len(s.gens)
	sites := profile.New()
	sites.Merge(s.gens[s.active].Sites)
	if delta != nil {
		sites.Merge(delta)
		for _, id := range delta.IDs() {
			if s.lastSeen[id] < seq {
				s.lastSeen[id] = seq
			}
		}
	}
	for _, id := range sites.IDs() {
		if _, ok := s.lastSeen[id]; !ok {
			s.lastSeen[id] = seq
		}
	}
	gen := Generation{Seq: seq, Parent: s.active, Source: source, Sites: sites}
	s.gens = append(s.gens, gen)
	return gen
}

// MarkSeen records that the given sites were observed crossing under the
// active generation — the sampler's feed into re-tighten bookkeeping.
func (s *Store) MarkSeen(ids ...profile.AllocID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if s.lastSeen[id] < s.active {
			s.lastSeen[id] = s.active
		}
	}
}

// LastSeen returns the generation id last crossed in (ok=false if never).
func (s *Store) LastSeen(id profile.AllocID) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen, ok := s.lastSeen[id]
	return gen, ok
}

// Promote makes generation seq active and emits a ProfileSwap trace
// event. Promoting the already-active generation is a no-op.
func (s *Store) Promote(seq int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq < 0 || seq >= len(s.gens) {
		return fmt.Errorf("profstore: promote of unknown generation %d (store holds %d)", seq, len(s.gens))
	}
	if seq == s.active {
		return nil
	}
	prev := s.active
	s.active = seq
	if s.ring != nil {
		s.ring.Emit(trace.Event{Kind: trace.ProfileSwap,
			A: uint64(seq), B: uint64(prev), Note: s.gens[seq].Source})
	}
	return nil
}

// Candidate is one re-tighten proposal: a site in the examined generation
// that has not been observed crossing for at least the window.
type Candidate struct {
	ID       profile.AllocID
	LastSeen int // generation last observed crossing in
}

// Retighten proposes MU→MT demotions against the active generation: sites
// it shares that have not crossed for at least window generations. A
// window <= 0 means DefaultRetightenWindow. Proposals are sorted by site.
func (s *Store) Retighten(window int) []Candidate {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retightenLocked(s.gens[s.active], window)
}

func (s *Store) retightenLocked(gen Generation, window int) []Candidate {
	if window <= 0 {
		window = DefaultRetightenWindow
	}
	out := []Candidate{}
	for _, id := range gen.Sites.IDs() {
		last := s.lastSeen[id]
		if gen.Seq-last >= window {
			out = append(out, Candidate{ID: id, LastSeen: last})
		}
	}
	return out
}

// Diff is the deterministic comparison of two generations, plus the
// re-tighten proposals computed against the `to` generation.
type Diff struct {
	Schema    int             `json:"schema"`
	From      int             `json:"from"`
	To        int             `json:"to"`
	Added     []string        `json:"added"`    // in to, not in from
	Removed   []string        `json:"removed"`  // in from, not in to
	Retained  []string        `json:"retained"` // in both
	Window    int             `json:"retighten_window"`
	Retighten []DiffCandidate `json:"retighten"`
}

// DiffCandidate is a re-tighten proposal in a Diff.
type DiffCandidate struct {
	Site     string `json:"site"`
	LastSeen int    `json:"last_seen"`
}

// Diff compares two generations by sequence number. Site lists are sorted,
// so the same store yields byte-identical diffs. A window <= 0 means
// DefaultRetightenWindow.
func (s *Store) Diff(from, to, window int) (Diff, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < 0 || from >= len(s.gens) || to < 0 || to >= len(s.gens) {
		return Diff{}, fmt.Errorf("profstore: diff %d -> %d outside store of %d generation(s)", from, to, len(s.gens))
	}
	if window <= 0 {
		window = DefaultRetightenWindow
	}
	a, b := s.gens[from].Sites, s.gens[to].Sites
	d := Diff{Schema: StoreSchema, From: from, To: to, Window: window,
		Added: []string{}, Removed: []string{}, Retained: []string{}, Retighten: []DiffCandidate{}}
	for _, id := range b.IDs() {
		if a.Contains(id) {
			d.Retained = append(d.Retained, id.String())
		} else {
			d.Added = append(d.Added, id.String())
		}
	}
	for _, id := range a.IDs() {
		if !b.Contains(id) {
			d.Removed = append(d.Removed, id.String())
		}
	}
	for _, c := range s.retightenLocked(s.gens[to], window) {
		d.Retighten = append(d.Retighten, DiffCandidate{Site: c.ID.String(), LastSeen: c.LastSeen})
	}
	return d, nil
}

// jsonStore is the persisted shape. Profiles marshal as sorted site maps,
// so the whole file is byte-deterministic and diffs cleanly in version
// control — the same property the profile format itself guarantees.
type jsonStore struct {
	Schema      int              `json:"schema"`
	Active      int              `json:"active"`
	Generations []jsonGeneration `json:"generations"`
	LastSeen    map[string]int   `json:"last_seen"`
}

type jsonGeneration struct {
	Seq    int              `json:"seq"`
	Parent int              `json:"parent"`
	Source string           `json:"source"`
	Sites  *profile.Profile `json:"sites"`
}

// WriteJSON persists the store as schema-versioned, deterministic JSON.
func (s *Store) WriteJSON(w io.Writer) error {
	s.mu.Lock()
	out := jsonStore{Schema: StoreSchema, Active: s.active, LastSeen: make(map[string]int, len(s.lastSeen))}
	for _, g := range s.gens {
		out.Generations = append(out.Generations, jsonGeneration{Seq: g.Seq, Parent: g.Parent, Source: g.Source, Sites: g.Sites})
	}
	for id, gen := range s.lastSeen {
		out.LastSeen[id.String()] = gen
	}
	s.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Load reads a store persisted by WriteJSON.
func Load(r io.Reader) (*Store, error) {
	var in jsonStore
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("profstore: %w", err)
	}
	if in.Schema != StoreSchema {
		return nil, fmt.Errorf("profstore: unsupported store schema %d (want %d)", in.Schema, StoreSchema)
	}
	if len(in.Generations) == 0 {
		return nil, fmt.Errorf("profstore: store holds no generations")
	}
	s := &Store{lastSeen: make(map[profile.AllocID]int, len(in.LastSeen))}
	for i, g := range in.Generations {
		if g.Seq != i {
			return nil, fmt.Errorf("profstore: generation %d stored out of order (seq %d)", i, g.Seq)
		}
		if g.Sites == nil {
			g.Sites = profile.New()
		}
		s.gens = append(s.gens, Generation{Seq: g.Seq, Parent: g.Parent, Source: g.Source, Sites: g.Sites})
	}
	if in.Active < 0 || in.Active >= len(s.gens) {
		return nil, fmt.Errorf("profstore: active generation %d outside store of %d", in.Active, len(s.gens))
	}
	s.active = in.Active
	for name, gen := range in.LastSeen {
		id, err := profile.ParseAllocID(name)
		if err != nil {
			return nil, err
		}
		s.lastSeen[id] = gen
	}
	return s, nil
}

// SaveFile persists the store to path.
func (s *Store) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a store from path.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// LoadFileOrNew reads a store from path, returning a fresh store when the
// file does not exist yet — the first run of a service bootstraps its own
// store.
func LoadFileOrNew(path string) (*Store, error) {
	s, err := LoadFile(path)
	if os.IsNotExist(err) {
		return New(), nil
	}
	return s, err
}

// ActiveView is the /profile endpoint's schema-versioned rendering of the
// active generation.
type ActiveView struct {
	Schema      int              `json:"schema"`
	Active      int              `json:"active"`
	Generations int              `json:"generations"`
	Parent      int              `json:"parent"`
	Source      string           `json:"source"`
	Sites       *profile.Profile `json:"sites"`
}

// View renders the active generation for serving.
func (s *Store) View() ActiveView {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gens[s.active]
	return ActiveView{Schema: StoreSchema, Active: g.Seq, Generations: len(s.gens),
		Parent: g.Parent, Source: g.Source, Sites: g.Sites}
}
