package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ffi"
	"repro/internal/heap"
	"repro/internal/profile"
	"repro/internal/provenance"
	"repro/internal/vm"
	"repro/internal/workload"
)

// AblationResult is one design-choice comparison: the same operation
// under the design used by PKRU-Safe and under the alternative.
type AblationResult struct {
	Name        string
	Design      string // the shipped choice
	Alternative string
	DesignNs    float64 // per-op
	AltNs       float64
	Note        string
}

// RunAblations measures the design-choice comparisons DESIGN.md calls
// out: the split allocator (arena vs free list), the WRPKRU cost model
// (on vs off), and the provenance metadata store (interval vs linear).
func RunAblations() ([]AblationResult, error) {
	var out []AblationResult

	alloc, err := ablateAllocators()
	if err != nil {
		return nil, err
	}
	out = append(out, alloc)

	gate, err := ablateGateCost()
	if err != nil {
		return nil, err
	}
	out = append(out, gate)

	out = append(out, ablateMetadata(10000))
	return out, nil
}

// ablateAllocators: identical churn against the MT arena and the MU free
// list — the paper's hypothesis that MU's slower allocator explains most
// of the alloc-configuration overhead, in isolation.
func ablateAllocators() (AblationResult, error) {
	run := func(mk func(*vm.Space, *vm.Region) heap.Allocator) (float64, error) {
		space := vm.NewSpace()
		region, err := space.Reserve("pool", 0x4000_0000, 1<<30, 0)
		if err != nil {
			return 0, err
		}
		a := mk(space, region)
		sizes := []uint64{16, 64, 256, 40, 1024, 8, 512}
		var live [64]vm.Addr
		const ops = 200_000
		start := time.Now()
		for i := 0; i < ops; i++ {
			slot := i % len(live)
			if live[slot] != 0 {
				if err := a.Free(live[slot]); err != nil {
					return 0, err
				}
			}
			addr, err := a.Alloc(sizes[i%len(sizes)])
			if err != nil {
				return 0, err
			}
			live[slot] = addr
		}
		return float64(time.Since(start).Nanoseconds()) / ops, nil
	}
	arenaNs, err := run(func(_ *vm.Space, r *vm.Region) heap.Allocator {
		return heap.NewArena(heap.NewPagePool(r))
	})
	if err != nil {
		return AblationResult{}, err
	}
	flNs, err := run(func(s *vm.Space, r *vm.Region) heap.Allocator {
		return heap.NewFreeList(heap.NewPagePool(r), s)
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:        "split allocator",
		Design:      "arena (MT)",
		Alternative: "free list (MU)",
		DesignNs:    arenaNs,
		AltNs:       flNs,
		Note:        "per alloc/free pair; the gap is the alloc-config overhead source (§5.3)",
	}, nil
}

// ablateGateCost: the same gated empty call with and without the WRPKRU
// serialization model.
func ablateGateCost() (AblationResult, error) {
	run := func(cost int) (float64, error) {
		w, err := workload.NewMicroWorld()
		if err != nil {
			return 0, err
		}
		w.Prog.Runtime().SetGateCost(cost)
		th := w.Prog.Main()
		const ops = 200_000
		if _, err := th.Call(workload.MicroUntrustedLib, "empty"); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < ops; i++ {
			if _, err := th.Call(workload.MicroUntrustedLib, "empty"); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / ops, nil
	}
	withCost, err := run(0)
	if err != nil {
		return AblationResult{}, err
	}
	withModel, err := run(ffi.DefaultGateCost)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:        "WRPKRU cost model",
		Design:      fmt.Sprintf("modeled (%d spins/WRPKRU)", ffi.DefaultGateCost),
		Alternative: "free gates",
		DesignNs:    withModel,
		AltNs:       withCost,
		Note:        "per gated call; the delta is what the serialization model adds",
	}, nil
}

// ablateMetadata: interior-pointer lookups in the two store designs at a
// realistic live-object count.
func ablateMetadata(live int) AblationResult {
	fill := func(s provenance.Store) {
		for i := 0; i < live; i++ {
			s.Track(provenance.Entry{
				Base: vm.Addr(0x10000 + i*256),
				Size: 128,
				ID:   profile.AllocID{Func: "f", Site: uint32(i)},
			})
		}
	}
	run := func(s provenance.Store) float64 {
		fill(s)
		const ops = 200_000
		start := time.Now()
		for i := 0; i < ops; i++ {
			addr := vm.Addr(0x10000 + (i%live)*256 + 64)
			s.Lookup(addr)
		}
		return float64(time.Since(start).Nanoseconds()) / ops
	}
	iv := run(provenance.NewIntervalStore())
	ln := run(provenance.NewLinearStore())
	return AblationResult{
		Name:        "metadata store",
		Design:      "interval (binary search)",
		Alternative: "linear scan",
		DesignNs:    iv,
		AltNs:       ln,
		Note:        fmt.Sprintf("per interior lookup at %d live objects (the §4.3.2 fault path)", live),
	}
}

// FormatAblations renders the comparisons.
func FormatAblations(rs []AblationResult) string {
	var b strings.Builder
	b.WriteString("Ablations: design choices vs alternatives (per-op times)\n")
	for _, r := range rs {
		ratio := 0.0
		if r.DesignNs > 0 {
			ratio = r.AltNs / r.DesignNs
		}
		fmt.Fprintf(&b, "%-18s %-28s %8.1fns   %-28s %8.1fns   (%.1fx)\n",
			r.Name, r.Design, r.DesignNs, r.Alternative, r.AltNs, ratio)
		fmt.Fprintf(&b, "%-18s %s\n", "", r.Note)
	}
	return b.String()
}
