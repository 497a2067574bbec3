package browser

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// engineCounts are the exact event counts of a span of engine work.
type engineCounts struct {
	steps       uint64 // AST nodes the engine evaluated
	transitions uint64 // gate transitions
	accesses    uint64 // checked vm loads + stores
	pkuFaults   uint64 // PKU faults delivered
}

func countsOf(b *Browser) engineCounts {
	st := b.Prog.Main().VM.Stats()
	return engineCounts{b.Engine.Steps(), b.Prog.Transitions(), st.Loads + st.Stores, st.PKUFaults}
}

func (c engineCounts) sub(o engineCounts) engineCounts {
	return engineCounts{c.steps - o.steps, c.transitions - o.transitions, c.accesses - o.accesses, c.pkuFaults - o.pkuFaults}
}

// TestEngineExactCounts holds the engine to the exact work of each compute
// kernel of the benchmark and of one dom kind, run once in the MPK build
// from a profile collected at a quarter of the load: the value bench(n)
// returns, and the steps, gate transitions, checked accesses and PKU faults
// of loading the page and script (load) and of one bench(n) call (op). The
// engine's checked heap accesses are the workload the evaluation measures,
// so an interpreter change that adds or elides one must show up here.
func TestEngineExactCounts(t *testing.T) {
	cases := []struct {
		name     string
		n        float64
		value    float64
		load, op engineCounts
	}{
		{"v8-richards", 2, 128, engineCounts{11, 2, 294, 0}, engineCounts{13590, 1, 8350, 0}},
		{"ss-bitops", 2, 3071790417, engineCounts{3, 2, 284, 0}, engineCounts{18019, 1, 4564, 0}},
		{"js-objects", 1, 13698, engineCounts{2, 2, 279, 0}, engineCounts{3486, 1, 9533, 0}},
		{"UniPoker", 1, 6112, engineCounts{8, 2, 289, 0}, engineCounts{13382, 1, 6385, 0}},
		{"v8-crypto", 1, 327536565, engineCounts{3, 2, 284, 0}, engineCounts{16271, 1, 4164, 0}},
		{"dom-attr", 61, 366, engineCounts{3, 3, 281, 0}, engineCounts{1657, 184, 732, 0}},
	}
	benchs := map[string]workload.Benchmark{}
	for _, b := range append(workload.Dromaeo(), workload.JetStream2()...) {
		if _, dup := benchs[b.Name]; !dup {
			benchs[b.Name] = b
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, ok := benchs[c.name]
			if !ok {
				t.Fatalf("no benchmark %q", c.name)
			}
			load := func(br *Browser) (uint64, error) {
				page := b.HTML
				if page == "" {
					page = workload.HarnessPage
				}
				if err := br.LoadHTML(page); err != nil {
					return 0, err
				}
				if _, err := br.ExecScript(b.Setup); err != nil {
					return 0, err
				}
				return br.LookupScriptFunc("bench")
			}
			prof, err := CollectProfile(func(br *Browser) error {
				fn, err := load(br)
				if err != nil {
					return err
				}
				_, err = br.InvokeScriptFunc(fn, math.Max(1, c.n/4))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			br, err := New(core.MPK, prof)
			if err != nil {
				t.Fatal(err)
			}
			c0 := countsOf(br)
			fn, err := load(br)
			if err != nil {
				t.Fatal(err)
			}
			c1 := countsOf(br)
			v, err := br.InvokeScriptFunc(fn, c.n)
			if err != nil {
				t.Fatal(err)
			}
			gotLoad, gotOp := c1.sub(c0), countsOf(br).sub(c1)
			if v != c.value {
				t.Errorf("bench(%v) = %v, want %v", c.n, v, c.value)
			}
			if gotLoad != c.load {
				t.Errorf("load counts %+v, want %+v", gotLoad, c.load)
			}
			if gotOp != c.op {
				t.Errorf("op counts %+v, want %+v", gotOp, c.op)
			}
		})
	}
}
