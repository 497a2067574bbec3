package domains_test

import (
	"fmt"
	"testing"

	"repro/internal/domains"
	"repro/internal/vm"
)

// FuzzVKeys drives random N-domain traces — add, remove, enter, exit,
// probe — against the ideal unbounded-keys expectation: a probe of domain
// j's buffer succeeds iff the thread is in the trusted compartment or
// currently inside domain j. The multiplexer underneath (evictions, slot
// recycling, region reuse) must never change that answer.
func FuzzVKeys(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x10, 0x42, 0x13, 0x03})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02})
	f.Add([]byte{0x10, 0x20, 0x44, 0x03, 0x03, 0x03, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		space := vm.NewSpace()
		m, err := domains.NewManager(space)
		if err != nil {
			t.Fatal(err)
		}
		th := vm.NewThread(space, nil)
		live := make(map[int]*domains.Domain)
		bufs := make(map[int]vm.Addr)
		var stack []int // entered domain indices (model side)
		var restores []func() error
		entered := func(k int) bool {
			for _, e := range stack {
				if e == k {
					return true
				}
			}
			return false
		}
		if len(data) > 256 {
			data = data[:256]
		}
		for _, b := range data {
			op, k := int(b)>>4&0x7, int(b)&0x7
			switch op % 5 {
			case 0: // add
				if _, ok := live[k]; ok {
					continue
				}
				d, err := m.AddDomain(fmt.Sprintf("f%d", k))
				if err != nil {
					t.Fatalf("AddDomain: %v", err)
				}
				buf, err := m.Alloc(d, 16)
				if err != nil {
					t.Fatalf("Alloc: %v", err)
				}
				// Raw poke: initialize without depending on thread rights.
				if err := space.Poke(buf, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
					t.Fatalf("Poke: %v", err)
				}
				live[k], bufs[k] = d, buf
			case 1: // remove (not while entered — dangling frames excluded)
				if _, ok := live[k]; !ok || entered(k) {
					continue
				}
				if err := m.RemoveDomain(live[k].Name); err != nil {
					t.Fatalf("RemoveDomain: %v", err)
				}
				delete(live, k)
				delete(bufs, k)
			case 2: // enter
				d, ok := live[k]
				if !ok {
					continue
				}
				restore, err := m.Enter(th, d)
				if err != nil {
					t.Fatalf("Enter: %v", err)
				}
				stack = append(stack, k)
				restores = append(restores, restore)
			case 3: // exit
				if len(restores) == 0 {
					continue
				}
				if err := restores[len(restores)-1](); err != nil {
					t.Fatalf("restore: %v", err)
				}
				restores = restores[:len(restores)-1]
				stack = stack[:len(stack)-1]
			case 4: // probe domain k's buffer
				buf, ok := bufs[k]
				if !ok {
					continue
				}
				want := len(stack) == 0 || stack[len(stack)-1] == k
				_, err := th.Load64(buf)
				if got := err == nil; got != want {
					t.Fatalf("probe dom %d from stack %v: real readable=%v, model readable=%v (table: %+v)",
						k, stack, got, want, m.Table().Stats())
				}
			}
		}
		for i := len(restores) - 1; i >= 0; i-- {
			if err := restores[i](); err != nil {
				t.Fatalf("final restore: %v", err)
			}
		}
	})
}
