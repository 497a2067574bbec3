package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/domains"
	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/profile"
	"repro/internal/profstore"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// The gate cost ladder splits one gated request into its parts. Each rung
// is the same one-load call with one more mechanism switched on through
// the layers' public setters; a rung's metric is its per-call time minus
// the rung below it.
const (
	ladderCalls   = 20000 // calls per timed batch
	ladderRepeats = 15    // batches per rung, interleaved across rungs
	traceBatch    = 256   // calls per gatetrace context on the traced rung
)

// rung is one step of the ladder: the metric it reports and the call it
// times, in a world configured up to that step.
type rung struct {
	name string
	call func() error
}

// ladderWorld builds a fresh domains world with one trusted library, one
// untrusted library and one domain-bound library, each defining "read"
// (one Load64 of the address passed).
type ladderWorld struct {
	m      *domains.Manager
	rt     *ffi.Runtime
	th     *ffi.Thread
	shared vm.Addr // MU word every compartment may read
	own    vm.Addr // word in the domain's own pool
}

func newLadderWorld() (*ladderWorld, error) {
	m, err := domains.NewManager(vm.NewSpace())
	if err != nil {
		return nil, err
	}
	reg := ffi.NewRegistry()
	read := func(t *ffi.Thread, args []uint64) ([]uint64, error) {
		v, err := t.Load64(vm.Addr(args[0]))
		return []uint64{v}, err
	}
	reg.MustLibrary("plain", ffi.Trusted).Define("read", read)
	reg.MustLibrary("untrusted", ffi.Untrusted).Define("read", read)
	reg.MustLibrary("tenant", ffi.Untrusted).Define("read", read)
	rt := ffi.NewRuntime(reg, m.Allocator(), nil, ffi.GatesOn)
	d, err := m.AddDomain("tenant")
	if err != nil {
		return nil, err
	}
	m.BindLibrary(rt, "tenant", d)
	w := &ladderWorld{m: m, rt: rt}
	if w.shared, err = m.AllocShared(64); err != nil {
		return nil, err
	}
	if w.own, err = m.Alloc(d, 64); err != nil {
		return nil, err
	}
	w.th = rt.NewThread()
	return w, nil
}

func (w *ladderWorld) callLib(lib string, addr vm.Addr) func() error {
	return func() error {
		_, err := w.th.Call(lib, "read", uint64(addr))
		return err
	}
}

// buildLadder returns the rungs in order. Every rung has its own world,
// so rungs can be timed interleaved without toggling settings.
func buildLadder() ([]rung, error) {
	var worlds [9]*ladderWorld
	for i := range worlds {
		w, err := newLadderWorld()
		if err != nil {
			return nil, err
		}
		worlds[i] = w
	}
	// 1: a checked load of a resident page.
	w1 := worlds[0]
	// 2: a plain (ungated) call into a trusted library.
	w2 := worlds[1]
	// 3: a gated call with a free WRPKRU.
	w3 := worlds[2]
	w3.rt.SetGateCost(0)
	// 4: a gated call at the calibrated WRPKRU cost.
	w4 := worlds[3]
	// 5: plus the gate-exit PKRU audit.
	w5 := worlds[4]
	w5.rt.SetExitAudit(true)
	// 6: a domain gate (vkey Enter/Leave), exit audit on.
	w6 := worlds[5]
	w6.rt.SetExitAudit(true)
	// 7: plus telemetry: metrics registry, event ring, crossing sampler.
	w7 := worlds[6]
	observe(w7)
	// 8: plus gatetrace: a request context on the thread and register.
	w8 := worlds[7]
	tracer8 := observe(w8)
	tc8 := traced(w8, tracer8)
	// 9: plus the supervisor's checkpoint (Shield).
	w9 := worlds[8]
	tracer9 := observe(w9)
	tc9 := traced(w9, tracer9)
	sup := supervise.New(supervise.Config{Policy: supervise.Quarantine},
		supervise.Deps{Alloc: w9.m.Allocator()})
	call9 := w9.callLib("tenant", w9.own)

	return []rung{
		{"vm.access_ns", func() error { _, err := w1.th.VM.Load64(w1.shared); return err }},
		{"ffi.plain_call_ns", w2.callLib("plain", w2.shared)},
		{"ffi.gate0_ns", w3.callLib("untrusted", w3.shared)},
		{"ffi.wrpkru_model_ns", w4.callLib("untrusted", w4.shared)},
		{"ffi.exit_audit_ns", w5.callLib("untrusted", w5.shared)},
		{"vkey.domain_gate_ns", w6.callLib("tenant", w6.own)},
		{"telemetry.gate_ns", w7.callLib("tenant", w7.own)},
		{"gatetrace.gate_ns", tc8.wrap(w8.callLib("tenant", w8.own))},
		{"supervise.shield_ns", tc9.wrap(func() error { return sup.Shield(w9.th, "tenant.read", call9) })},
	}, nil
}

// observe attaches telemetry to w as the tenants workload does, re-minting
// the thread so it reports into the registry, and returns a tracer for
// the rungs above it.
func observe(w *ladderWorld) *gatetrace.Tracer {
	reg := telemetry.NewRegistry()
	ring := trace.NewRing(ringCap)
	w.m.SetTelemetry(reg)
	w.rt.SetTelemetry(reg)
	w.rt.SetTrace(ring)
	w.rt.SetCrossingSink(profstore.NewSampler(profstore.SamplerConfig{
		Interval: sampleInterval, Telemetry: reg, Ring: ring}))
	w.th = w.rt.NewThread()
	return gatetrace.New(gatetrace.Config{Registry: reg, Capacity: retainCap})
}

// tracedCalls keeps a gatetrace context open on the rung's thread,
// finishing it and starting the next every traceBatch calls so spans do
// not pile up on one context.
type tracedCalls struct {
	w      *ladderWorld
	tracer *gatetrace.Tracer
	tc     *gatetrace.Context
	n      int
}

func traced(w *ladderWorld, tracer *gatetrace.Tracer) *tracedCalls {
	w.m.SetTracing(tracer)
	return &tracedCalls{w: w, tracer: tracer}
}

func (t *tracedCalls) wrap(call func() error) func() error {
	return func() error {
		if t.n%traceBatch == 0 {
			if t.tc != nil {
				t.tc.Finish()
			}
			t.tc = t.tracer.Start("tenant")
			t.w.th.SetTraceContext(t.tc)
			t.tracer.Bind(t.w.th.VM, t.tc)
		}
		t.n++
		return call()
	}
}

// timeBatch returns the mean ns per call over n calls.
func timeBatch(call func() error, n int) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := call(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// runLadder times every rung ladderRepeats times, rotating the order each
// round so host drift spreads evenly, and returns each rung's fastest
// batch in ns per call: at this scale interference only ever adds time,
// so the minimum is the least disturbed reading.
func runLadder(rungs []rung) (map[string]float64, error) {
	for _, r := range rungs {
		if _, err := timeBatch(r.call, ladderCalls/10); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", r.name, err)
		}
	}
	samples := make([][]float64, len(rungs))
	for rep := 0; rep < ladderRepeats; rep++ {
		for j := range rungs {
			k := (j + rep) % len(rungs)
			ns, err := timeBatch(rungs[k].call, ladderCalls)
			if err != nil {
				return nil, fmt.Errorf("ladder %s: %w", rungs[k].name, err)
			}
			samples[k] = append(samples[k], ns)
		}
	}
	out := make(map[string]float64, len(rungs))
	for k, r := range rungs {
		out[r.name] = minF(samples[k])
	}
	return out, nil
}

// ladderMetrics turns the rung medians into per-layer metrics: each rung
// as its increase over the rung below, plus ffi.gate_ns, the calibrated
// gate's whole cost over a plain call (ffi.gate0_ns + ffi.wrpkru_model_ns).
func ladderMetrics(rungs []rung, med map[string]float64, m metrics) {
	prev := 0.0
	for _, r := range rungs {
		m.add(r.name, "ns", med[r.name]-prev)
		prev = med[r.name]
	}
	m.add("ffi.gate_ns", "ns", med["ffi.wrpkru_model_ns"]-med["ffi.plain_call_ns"])
}

// configLadder times the same fixed op sequence in Base, Alloc and MPK
// builds of a browser world, interleaved and rotated like the gate
// ladder, and returns each build's fastest batch in µs per op and the
// number of ops run (all of them output- and count-checked).
func configLadder(kinds []kindSpec, seq []int, profs []*profile.Profile, expect []expectation, ops, repeats int) (map[core.BuildConfig]float64, int, error) {
	cfgs := []core.BuildConfig{core.Base, core.Alloc, core.MPK}
	worlds := make([]*browserWorld, len(cfgs))
	for i, cfg := range cfgs {
		w, err := buildBrowserWorld(cfg, kinds, seq, profs)
		if err != nil {
			return nil, 0, err
		}
		if err := w.check(expect); err != nil {
			return nil, 0, fmt.Errorf("%v build: %w", cfg, err)
		}
		worlds[i] = w
	}
	samples := make([][]float64, len(cfgs))
	attempted := 0
	for rep := 0; rep < repeats; rep++ {
		for j := range cfgs {
			k := (j + rep) % len(cfgs)
			start := time.Now()
			for i := 0; i < ops; i++ {
				attempted++
				if err := worlds[k].op(i, nil); err != nil {
					return nil, attempted, fmt.Errorf("%v build: %w", cfgs[k], err)
				}
			}
			samples[k] = append(samples[k], float64(time.Since(start).Microseconds())/float64(ops))
		}
	}
	out := make(map[core.BuildConfig]float64, len(cfgs))
	for k, cfg := range cfgs {
		out[cfg] = minF(samples[k])
	}
	return out, attempted, nil
}
