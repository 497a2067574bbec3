package supervise

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/mpk"
	"repro/internal/pkalloc"
	"repro/internal/vm"
)

// TestConcurrentShieldDomainQuarantineRace hammers Shield from many
// workers across several domains while the Quarantine policy bumps pool
// epochs underneath them. Run under -race, it proves the two invariants
// per-domain quarantine must keep under hostile concurrency: an
// allocation from one domain's pool never lands outside that pool's
// reservation (a neighbour's scrub must not leak its space into this
// pool's fresh free list), and the global recovery budget never goes
// negative no matter how many recoveries race for it.
func TestConcurrentShieldDomainQuarantineRace(t *testing.T) {
	space := vm.NewSpace()
	alloc, err := pkalloc.New(pkalloc.Config{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	const nDomains, nWorkers, cycles = 4, 8, 150
	names := make([]string, nDomains)
	regions := make([]*vm.Region, nDomains)
	for i := range names {
		names[i] = fmt.Sprintf("tenant%03d", i)
		r, err := alloc.AddDomainPool(names[i], mpk.Key(8+i))
		if err != nil {
			t.Fatal(err)
		}
		regions[i] = r
	}
	secret, err := alloc.Alloc(8) // MT: an untrusted load faults
	if err != nil {
		t.Fatal(err)
	}
	reg := ffi.NewRegistry()
	rt := ffi.NewRuntime(reg, alloc, nil, ffi.GatesOn)
	lib := reg.MustLibrary("u", ffi.Untrusted)
	lib.Define("boom", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
		_, e := th.Load64(secret)
		return nil, e
	})
	lib.Define("ok", func(_ *ffi.Thread, a []uint64) ([]uint64, error) {
		return a, nil
	})
	tracer := gatetrace.New(gatetrace.Config{Capacity: 4})
	sup := New(Config{Policy: Quarantine}, Deps{Alloc: alloc})

	errs := make(chan string, nWorkers*cycles)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.NewThread()
			for c := 0; c < cycles; c++ {
				i := (w + c) % nDomains
				tc := tracer.Start(names[i])
				th.SetTraceContext(tc)
				fn := "ok"
				if c%3 == 0 {
					fn = "boom" // every third request takes a pkey fault
				}
				serr := sup.Shield(th, names[i]+".op", func() error {
					_, e := th.Call("u", fn, 1)
					return e
				})
				th.SetTraceContext(nil)
				tc.Finish()
				var ce *CompartmentError
				if serr != nil && !errors.As(serr, &ce) {
					errs <- fmt.Sprintf("Shield returned a non-compartment error: %v", serr)
				}
				// A neighbour's concurrent epoch bump replaces *its* free
				// list; this domain's allocations must stay inside this
				// domain's reservation regardless.
				if addr, aerr := alloc.DomainAlloc(names[i], 64); aerr == nil {
					r := regions[i]
					if addr < r.Base || addr+64 > r.Base+vm.Addr(r.Size) {
						errs <- fmt.Sprintf("alloc for %s landed at %#x, outside its pool [%#x, %#x)",
							names[i], addr, r.Base, r.Base+vm.Addr(r.Size))
					}
				}
				if left := sup.budgetRemaining(); left < 0 {
					errs <- fmt.Sprintf("recovery budget went negative: %d", left)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	seen := 0
	for e := range errs {
		if seen < 10 {
			t.Error(e)
		}
		seen++
	}
	if seen > 10 {
		t.Errorf("... and %d further violations", seen-10)
	}

	// Epoch bookkeeping must reconcile: each pool's epoch is exactly the
	// number of domain-tier quarantines the supervisor spent on it.
	quarantined := 0
	for _, n := range names {
		ep, ok := alloc.DomainEpoch(n)
		if !ok {
			t.Fatalf("domain pool %s vanished", n)
		}
		if got := sup.DomainQuarantines(n); uint64(got) != ep {
			t.Errorf("%s: epoch %d != %d supervisor quarantines", n, ep, got)
		}
		if ep > 0 {
			quarantined++
		}
	}
	if quarantined == 0 {
		t.Error("no domain was ever quarantined; the race exercised nothing")
	}
}

// budgetRemaining returns how many recovery actions the program may still
// spend.
func (s *Supervisor) budgetRemaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budgetLeft
}
