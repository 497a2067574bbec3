package profstore

import (
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/provenance"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// observed returns the sampler's aggregate for one site.
func observed(s *Sampler, id profile.AllocID) (SiteObs, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.sites[id]
	if !ok {
		return SiteObs{}, false
	}
	return *o, true
}

// oneObject is a shadow store holding one live object, [base, base+size)
// from site id.
func oneObject(id profile.AllocID, base vm.Addr, size uint64) *provenance.Shadow {
	sh := new(provenance.Shadow)
	sh.Track(provenance.Entry{Base: base, Size: size, ID: id})
	return sh
}

func TestSamplerAttributesCrossings(t *testing.T) {
	id := site("lib::buf", 0, 0)
	ring := trace.NewRing(8)
	s := NewSampler(SamplerConfig{
		Shadow:    oneObject(id, 0x1000, 64),
		Telemetry: telemetry.NewRegistry(),
		Ring:      ring,
	})
	s.ObserveCrossing("ulib", []uint64{0x1000}, 5*time.Nanosecond)
	s.ObserveCrossing("ulib", []uint64{0x9999}, time.Nanosecond) // unattributed

	if s.seen.Load() != 2 || s.Sampled() != 2 {
		t.Fatalf("seen/sampled = %d/%d, want 2/2", s.seen.Load(), s.Sampled())
	}
	obs, ok := observed(s, id)
	if !ok || obs.Crossings != 1 || obs.Bytes != 64 {
		t.Fatalf("observed = %+v,%v", obs, ok)
	}
	sites := s.Sites()
	if len(sites) != 1 || sites[0] != id {
		t.Fatalf("sites = %v", sites)
	}
	evs := ring.Snapshot()
	if len(evs) != 1 || evs[0].Kind != trace.Crossing || evs[0].A != 0x1000 || evs[0].Note != id.String() {
		t.Fatalf("trace events = %v", evs)
	}
}

func TestSamplerDedupesObjectsWithinOneCrossing(t *testing.T) {
	id := site("lib::buf", 0, 0)
	s := NewSampler(SamplerConfig{Shadow: oneObject(id, 0x1000, 64)})
	// Pointer + interior pointer into the same object: one attribution.
	s.ObserveCrossing("ulib", []uint64{0x1000, 0x1008}, 0)
	obs, _ := observed(s, id)
	if obs.Crossings != 1 {
		t.Fatalf("crossings = %d, want 1 (dedup within a call)", obs.Crossings)
	}
}

func TestSamplerInterval(t *testing.T) {
	id := site("lib::buf", 0, 0)
	s := NewSampler(SamplerConfig{Shadow: oneObject(id, 0x1000, 64), Interval: 4})
	for i := 0; i < 8; i++ {
		s.ObserveCrossing("ulib", []uint64{0x1000}, 0)
	}
	if s.seen.Load() != 8 || s.Sampled() != 2 {
		t.Fatalf("seen/sampled = %d/%d, want 8/2 at interval 4", s.seen.Load(), s.Sampled())
	}
	obs, _ := observed(s, id)
	if obs.Crossings != 2 {
		t.Fatalf("attributed crossings = %d, want 2", obs.Crossings)
	}
}

func TestSamplerNoResolver(t *testing.T) {
	s := NewSampler(SamplerConfig{})
	s.ObserveCrossing("ulib", []uint64{0x1000}, 0)
	if s.Sampled() != 1 || len(s.Sites()) != 0 {
		t.Fatalf("resolver-less sampler: sampled=%d sites=%v", s.Sampled(), s.Sites())
	}
}

func TestSamplerNilSafety(t *testing.T) {
	var s *Sampler
	if s.Sampled() != 0 || s.Sites() != nil {
		t.Fatal("nil sampler accessors not zero-valued")
	}
	s.FeedStore(New()) // must not panic
}

func TestSamplerFeedStore(t *testing.T) {
	id := site("lib::buf", 0, 0)
	store := New()
	g := store.Commit(deltaOf(id), "heal")
	if err := store.Promote(g.Seq); err != nil {
		t.Fatal(err)
	}
	// Two stale generations would make id a re-tighten candidate...
	for i := 0; i < 2; i++ {
		gg := store.Commit(nil, "merge")
		if err := store.Promote(gg.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.Retighten(2); len(got) != 1 {
		t.Fatalf("precondition: want 1 candidate, got %+v", got)
	}
	// ...unless the sampler saw it crossing under the active generation.
	s := NewSampler(SamplerConfig{Shadow: oneObject(id, 0x1000, 64)})
	s.ObserveCrossing("ulib", []uint64{0x1000}, 0)
	s.FeedStore(store)
	if got := store.Retighten(2); len(got) != 0 {
		t.Fatalf("fed store still proposes %+v", got)
	}
}
