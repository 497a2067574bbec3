package bench

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/domains"
	"repro/internal/vm"
)

// VKeyResult is one virtual-key overhead sample: the cost of a full
// domain round-trip (enter + one load from the domain's pool + exit) for
// a given tenant count. With the tenant count at or below the hardware
// slot count every entry is a slot hit; above it, round-robin entry is
// the LRU cache's worst case — every entry misses, evicts a victim and
// retags two pools. The Hit/Miss split quantifies exactly what key
// virtualization costs when it actually has to multiplex.
type VKeyResult struct {
	Name      string
	Domains   int
	PerCycle  time.Duration // one enter+load+exit round-trip
	Total     time.Duration // total for Iters cycles (best of repeats)
	Misses    uint64        // slot misses across the whole scenario
	Evictions uint64        // evictions across the whole scenario
}

// RunVKeys measures slot-hit and slot-miss domain entry for the given
// iteration count. The scenarios share one manager shape but use fresh
// worlds so neither warms the other's allocator or LRU state.
func RunVKeys(iters int) ([]VKeyResult, error) {
	var out []VKeyResult
	type scenario struct {
		name  string
		extra int // domains beyond the slot count
	}
	for _, sc := range []scenario{
		{"resident", 0}, // tenants == slots: steady state is all hits
		{"thrash", 4},   // tenants > slots, round-robin: every entry misses
	} {
		space := vm.NewSpace()
		m, err := domains.NewManager(space)
		if err != nil {
			return nil, err
		}
		n := m.Table().Slots() + sc.extra
		th := vm.NewThread(space, nil)
		doms := make([]*domains.Domain, n)
		bufs := make([]vm.Addr, n)
		for i := 0; i < n; i++ {
			d, err := m.AddDomain(fmt.Sprintf("bench%02d", i))
			if err != nil {
				return nil, err
			}
			buf, err := m.Alloc(d, 64)
			if err != nil {
				return nil, err
			}
			if err := th.Store64(buf, uint64(i)); err != nil {
				return nil, err
			}
			doms[i], bufs[i] = d, buf
		}
		cur := 0
		cycle := func() error {
			i := cur % n
			cur++
			restore, err := m.Enter(th, doms[i])
			if err != nil {
				return err
			}
			if _, err := th.Load64(bufs[i]); err != nil {
				restore()
				return err
			}
			return restore()
		}
		total, err := timedLoop(iters, cycle)
		if err != nil {
			return nil, err
		}
		st := m.Table().Stats()
		out = append(out, VKeyResult{
			Name:      sc.name,
			Domains:   n,
			PerCycle:  total / time.Duration(iters),
			Total:     total,
			Misses:    st.SlotMisses,
			Evictions: st.Evictions,
		})
	}
	return out, nil
}

// VKeyMissFactor returns thrash / resident — the multiplier a slot miss
// (LRU eviction + two pool retags + revalidation) puts on domain entry.
func VKeyMissFactor(rs []VKeyResult) float64 {
	var hit, miss time.Duration
	for _, r := range rs {
		switch r.Name {
		case "resident":
			hit = r.PerCycle
		case "thrash":
			miss = r.PerCycle
		}
	}
	if hit <= 0 {
		return 0
	}
	return float64(miss) / float64(hit)
}

// FormatVKeys renders the virtual-key overhead results.
func FormatVKeys(rs []VKeyResult) string {
	s := "Virtual-key overhead: domain enter+load+exit, slot hit vs miss\n"
	s += fmt.Sprintf("%-10s %8s %12s %12s %10s\n", "scenario", "domains", "per-cycle", "misses", "evictions")
	for _, r := range rs {
		s += fmt.Sprintf("%-10s %8d %12v %12d %10d\n", r.Name, r.Domains, r.PerCycle, r.Misses, r.Evictions)
	}
	s += fmt.Sprintf("slot-miss factor: %.2fx\n", VKeyMissFactor(rs))
	return s
}

// VKeysRecord is the vkeys experiment's BENCH record: each scenario's
// round-trip cost, loop time and slot traffic, and the slot-miss factor.
func VKeysRecord(iters int, rs []VKeyResult) *Record {
	rec := NewRecord("vkeys", map[string]string{"iters": strconv.Itoa(iters)})
	for _, r := range rs {
		rec.Add(r.Name, "domains", "count", 1, float64(r.Domains))
		rec.Add(r.Name, "per_cycle_ns", "ns", iters, float64(r.PerCycle.Nanoseconds()))
		rec.Add(r.Name, "total_s", "s", iters, r.Total.Seconds())
		rec.Add(r.Name, "misses", "count", 1, float64(r.Misses))
		rec.Add(r.Name, "evictions", "count", 1, float64(r.Evictions))
	}
	rec.Add("vkeys", "slot_miss_factor", "ratio", iters, VKeyMissFactor(rs))
	return rec
}
