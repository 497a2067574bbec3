package vm

import (
	"sync"
	"testing"

	"repro/internal/mpk"
)

// TestSetPKeyRaceWithReaders hammers SetPKey concurrently with PKeyAt and
// PageMapAround over the same span. Run under -race this pins down the
// Space locking discipline; without -race it still checks that readers
// only ever observe one of the keys actually written, never torn or stale
// garbage.
func TestSetPKeyRaceWithReaders(t *testing.T) {
	const (
		base  Addr = 0x5000_0000_0000
		pages      = 64
		iters      = 200
	)
	s := NewSpace()
	if _, err := s.Reserve("race", base, pages*PageSize, 2); err != nil {
		t.Fatal(err)
	}

	keys := []mpk.Key{2, 5, 9}
	valid := map[mpk.Key]bool{}
	for _, k := range keys {
		valid[k] = true
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	// Writers: flip the whole span and sub-spans between the palette keys.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				k := keys[(i+w)%len(keys)]
				off := Addr((i % 4) * 8 * PageSize)
				size := uint64((8 + i%8) * PageSize)
				if uint64(off)+size > pages*PageSize {
					size = pages*PageSize - uint64(off)
				}
				if err := s.SetPKey(base+off, size, k); err != nil {
					t.Errorf("SetPKey: %v", err)
					return
				}
			}
		}(w)
	}

	// Readers: point queries across the span.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := base + Addr(i%pages)*PageSize
				k, ok := s.PKeyAt(a)
				if !ok {
					t.Errorf("PKeyAt(%v): address vanished", a)
					return
				}
				if !valid[k] {
					t.Errorf("PKeyAt(%v) = %v, not a key any writer installed", a, k)
					return
				}
			}
		}()
	}

	// Reader: windowed page-map sweeps (the crash-forensics path).
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, pi := range s.PageMapAround(base+Addr(i%pages)*PageSize, 8) {
				if pi.Reserved && pi.Base >= base && pi.Base < base+pages*PageSize && !valid[pi.PKey] {
					t.Errorf("PageMapAround: page %v has key %v, not a key any writer installed", pi.Base, pi.PKey)
					return
				}
			}
		}
	}()

	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestCheckedAccessRacesRetag runs checked loads on one goroutine while
// another retags the same span, the way a vkey eviction on one thread
// retags pages another thread is touching. Under -race it pins the page
// key as an atomic: the access path reads it outside the page-table lock.
func TestCheckedAccessRacesRetag(t *testing.T) {
	const base Addr = 0x5000_0000_0000
	s := NewSpace()
	if _, err := s.Reserve("retag", base, 4*PageSize, 2); err != nil {
		t.Fatal(err)
	}
	th := NewThread(s, nil) // PermitAll: every key is readable
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := s.SetPKey(base, 4*PageSize, mpk.Key(2+i%3)); err != nil {
				t.Errorf("SetPKey: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		if _, err := th.Load64(base + Addr(i%4)*PageSize); err != nil {
			t.Fatalf("Load64: %v", err)
		}
	}
	<-done
}

// TestWholeRegionRetagKeepsBoundsQuiet pins that retagging a whole region
// leaves its bounds unwritten: domain allocators read a pool region's
// Base and Size without the space lock while vkey evictions retag it.
func TestWholeRegionRetagKeepsBoundsQuiet(t *testing.T) {
	const base Addr = 0x5100_0000_0000
	s := NewSpace()
	r, err := s.Reserve("pool", base, 4*PageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := s.SetPKey(base, 4*PageSize, mpk.Key(2+i%2)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if r.Base != base || r.Size != 4*PageSize {
			t.Fatalf("region bounds moved: %v +%#x", r.Base, r.Size)
		}
	}
	<-done
}

// TestFirstTouchRacesRetag faults pages in from two goroutines, one
// walking up and one walking down so the resident index takes both its
// append and its insert path, while a third retags sub-ranges. A final
// retag of the whole span must then reach every page: a page that
// escaped the index would keep an older key.
func TestFirstTouchRacesRetag(t *testing.T) {
	const (
		base  Addr = 0x5200_0000_0000
		pages      = 128
	)
	s := NewSpace()
	if _, err := s.Reserve("touch", base, pages*PageSize, 2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, down := range []bool{false, true} {
		wg.Add(1)
		go func(down bool) {
			defer wg.Done()
			th := NewThread(s, nil)
			for i := 0; i < pages; i++ {
				pg := i
				if down {
					pg = pages - 1 - i
				}
				if _, err := th.Load8(base + Addr(pg)*PageSize); err != nil {
					t.Errorf("Load8: %v", err)
					return
				}
			}
		}(down)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			off := Addr(i%(pages/8)) * 8 * PageSize
			if err := s.SetPKey(base+off, 8*PageSize, mpk.Key(3+i%3)); err != nil {
				t.Errorf("SetPKey: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := s.SetPKey(base, pages*PageSize, 9); err != nil {
		t.Fatal(err)
	}
	if got := s.ResidentPages(); got != pages {
		t.Fatalf("resident pages = %d, want %d", got, pages)
	}
	for pg := 0; pg < pages; pg++ {
		if k, _ := s.PKeyAt(base + Addr(pg)*PageSize); k != 9 {
			t.Fatalf("page %d keeps key %d after the whole-span retag to 9", pg, k)
		}
	}
}
