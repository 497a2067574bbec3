package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/domains"
	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/profstore"
	"repro/internal/resilience"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vkey"
	"repro/internal/vm"
)

// The tenants workload is the pkru-servo -domains request path, wired
// the way that command wires it: a metrics registry, a 256-entry event
// ring, a gatetrace tracer, a crossing sampler at interval 8, a
// Quarantine supervisor and per-tenant circuit breakers.
const (
	numTenants     = 32  // logical domains, on the 13 spare hardware slots
	churnEvery     = 256 // one tenant is removed and re-added every churnEvery ops
	ringCap        = 256 // trace.Ring capacity, as pkru-servo's traceCap
	retainCap      = 256 // gatetrace retained-trace ring, as pkru-servo's retainedCap
	sampleInterval = 8   // crossing sampler interval, pkru-servo's default
	tenantSeqLen   = 1 << 16
)

// tenantWorld is one built multi-tenant world and its single client.
type tenantWorld struct {
	seed     int64
	m        *domains.Manager
	tracer   *gatetrace.Tracer
	rt       *ffi.Runtime
	sup      *supervise.Supervisor
	breakers *resilience.Group
	setup    *vm.Thread // trusted thread that seeds tenant buffers
	th       *ffi.Thread
	names    []string
	labels   []string
	bufs     []vm.Addr
	gens     []int

	seq, probes, victims []int

	rec     *recorder // the current op's recorder, for the body span
	addTime []time.Duration
}

// buildTenantWorld builds the world and adds every tenant, timing each
// add (domains.add_us_per_tenant).
func buildTenantWorld(seed int64) (*tenantWorld, error) {
	space := vm.NewSpace()
	m, err := domains.NewManager(space)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	m.SetTelemetry(reg)
	ring := trace.NewRing(ringCap)
	tracer := gatetrace.New(gatetrace.Config{Registry: reg, Capacity: retainCap})
	m.SetTracing(tracer)
	rt := ffi.NewRuntime(ffi.NewRegistry(), m.Allocator(), nil, ffi.GatesOn)
	rt.SetTelemetry(reg)
	rt.SetTrace(ring)
	rt.SetCrossingSink(profstore.NewSampler(profstore.SamplerConfig{
		Interval: sampleInterval, Telemetry: reg, Ring: ring}))
	sup := supervise.New(supervise.Config{Policy: supervise.Quarantine},
		supervise.Deps{Alloc: m.Allocator(), Ring: ring, Telemetry: reg})
	breakers := resilience.NewGroup(resilience.Config{})
	breakers.SetTelemetry(reg)

	seq := tenantSequence(seed, numTenants, tenantSeqLen)
	w := &tenantWorld{
		seed: seed, m: m, tracer: tracer, rt: rt, sup: sup, breakers: breakers,
		setup:   vm.NewThread(space, nil),
		names:   make([]string, numTenants),
		labels:  make([]string, numTenants),
		bufs:    make([]vm.Addr, numTenants),
		gens:    make([]int, numTenants),
		seq:     seq,
		probes:  probeSequence(seed, seq, numTenants),
		victims: churnSequence(seed, numTenants, tenantSeqLen/churnEvery),
	}
	for i := range w.names {
		w.names[i] = fmt.Sprintf("tenant%03d", i)
		w.labels[i] = w.names[i] + ".work"
		start := time.Now()
		if err := w.addTenant(i); err != nil {
			return nil, err
		}
		w.addTime = append(w.addTime, time.Since(start))
	}
	w.th = rt.NewThread()
	return w, nil
}

// addTenant creates tenant i's domain, its 64-byte buffer holding the
// tenant's seeded value, and its library bound to the domain.
func (w *tenantWorld) addTenant(i int) error {
	d, err := w.m.AddDomain(w.names[i])
	if err != nil {
		return err
	}
	buf, err := w.m.Alloc(d, 64)
	if err != nil {
		return err
	}
	if err := w.setup.Store64(buf, tenantValue(w.seed, i, w.gens[i])); err != nil {
		return err
	}
	lib, err := w.rt.Registry.Library(w.names[i], ffi.Untrusted)
	if err != nil {
		return err
	}
	lib.Define("work", w.work)
	w.m.BindLibrary(w.rt, w.names[i], d)
	w.bufs[i] = buf
	return nil
}

// churn removes tenant i and adds it back as a new incarnation: its key
// slot and pool are recycled, and its buffer holds a new value.
func (w *tenantWorld) churn(i int) error {
	if err := w.m.RemoveDomain(w.names[i]); err != nil {
		return err
	}
	w.breakers.Forget(w.names[i])
	w.gens[i]++
	return w.addTenant(i)
}

// work is every tenant library's entry point, run with the tenant's
// domain rights. It reads its own buffer, writes the request sequence
// number beside it, and probes another tenant's buffer, which must be
// denied. args: own buffer, probe address, sequence number. Returns the
// value read and 1 when the probe was denied.
func (w *tenantWorld) work(t *ffi.Thread, args []uint64) ([]uint64, error) {
	s := w.rec.begin(spBody)
	defer w.rec.end(s)
	own := vm.Addr(args[0])
	v, err := t.Load64(own)
	if err != nil {
		return nil, err
	}
	if err := t.Store64(own+8, args[2]); err != nil {
		return nil, err
	}
	denied := uint64(0)
	if _, perr := t.Load64(vm.Addr(args[1])); perr != nil {
		var f *vm.Fault
		if !errors.As(perr, &f) {
			return nil, perr
		}
		denied = 1
	}
	return []uint64{v, denied}, nil
}

// op is one closed-loop request: admission, trace start, a shielded
// domain call, trace finish and the breaker's success record; every
// churnEvery-th op first churns a seeded victim. The read must return the
// tenant's current seeded value and the probe must be denied.
func (w *tenantWorld) op(i int, rec *recorder) error {
	w.rec = rec
	if i > 0 && i%churnEvery == 0 {
		s := rec.begin(spChurn)
		err := w.churn(w.victims[(i/churnEvery)%len(w.victims)])
		rec.end(s)
		if err != nil {
			return fmt.Errorf("churn: %w", err)
		}
	}
	ti := w.seq[i%len(w.seq)]
	name := w.names[ti]

	s := rec.begin(spAdmit)
	_, err := w.breakers.Allow(name)
	rec.end(s)
	if err != nil {
		return err
	}

	s = rec.begin(spTraceStart)
	tc := w.tracer.Start(name)
	w.th.SetTraceContext(tc)
	w.tracer.Bind(w.th.VM, tc)
	rec.end(s)

	var misses uint64
	if rec != nil {
		misses = w.m.Table().Stats().SlotMisses
	}
	var res []uint64
	own, probe := w.bufs[ti], w.bufs[w.probes[i%len(w.probes)]]
	var call int32
	s = rec.begin(spShield)
	err = w.sup.Shield(w.th, w.labels[ti], func() error {
		call = rec.begin(spCallHit)
		var cerr error
		res, cerr = w.th.Call(name, "work", uint64(own), uint64(probe), uint64(i))
		rec.end(call)
		return cerr
	})
	rec.end(s)
	if rec != nil && w.m.Table().Stats().SlotMisses != misses {
		rec.rename(call, spCallMiss)
	}

	s = rec.begin(spTraceFinish)
	w.tracer.Unbind(w.th.VM)
	w.th.SetTraceContext(nil)
	tc.Finish()
	rec.end(s)
	if err != nil {
		w.breakers.RecordFault(name)
		return fmt.Errorf("%s: %w", name, err)
	}
	s = rec.begin(spRecord)
	w.breakers.RecordSuccess(name)
	rec.end(s)

	if want := tenantValue(w.seed, ti, w.gens[ti]); res[0] != want {
		return fmt.Errorf("%s: read %#x, want %#x", name, res[0], want)
	}
	if res[1] != 1 {
		return fmt.Errorf("%s: cross-tenant probe of %s was not denied (leak)", name, w.names[w.probes[i%len(w.probes)]])
	}
	return nil
}

// probeCounts runs ops [0, n) on a fresh world and returns the key
// table's counters and the client's event counts over them.
func (w *tenantWorld) probeCounts(n int) (vkey.Stats, counts, uint64, error) {
	for i := 0; i < n; i++ {
		if err := w.op(i, nil); err != nil {
			return vkey.Stats{}, counts{}, 0, err
		}
	}
	st := w.th.VM.Stats()
	return w.m.Table().Stats(), counts{w.rt.Transitions(), st.Loads + st.Stores, st.PKUFaults},
		w.tracer.Stats().Retained, nil
}
