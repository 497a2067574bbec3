// Package core is the public face of the PKRU-Safe reproduction: it wires
// the simulated MPK hardware, the compartment-aware allocator, the FFI call
// gates and the provenance profiler into the four build configurations the
// paper evaluates, and exposes the allocation-site API through which an
// application's trusted code allocates.
//
// The intended workflow is the paper's four-stage pipeline (§3.1):
//
//  1. annotate: declare each unsafe library Untrusted in an ffi.Registry;
//  2. profile build: NewProgram(reg, Profiling, nil) — gates on, all heap
//     data in MT, the provenance tracer recording every cross-compartment
//     access by interposing on faults;
//  3. profiling runs: exercise the program, then RecordedProfile();
//  4. enforcement build: NewProgram(reg, MPK, prof) — allocation sites in
//     the profile are rewritten to draw from MU, everything else stays in
//     the now-inaccessible-from-U trusted pool.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/pkalloc"
	"repro/internal/profile"
	"repro/internal/profstore"
	"repro/internal/provenance"
	"repro/internal/sig"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// BuildConfig selects which parts of PKRU-Safe's instrumentation a build
// enables, matching the configurations of §5.3 plus the profiling build.
type BuildConfig uint8

const (
	// Base: unmodified program — no heap split, no gates. The baseline.
	Base BuildConfig = iota
	// Alloc: pkalloc with the profile applied (shared sites served from
	// MU's slower allocator) but no call gates. Isolates allocator cost.
	Alloc
	// MPK: the full system — profile applied and call gates enforcing the
	// compartment boundary.
	MPK
	// Profiling: the instrumented profile build — gates on so untrusted
	// accesses to MT fault, every trusted allocation tracked, faults
	// recorded into a fresh profile and single-stepped past.
	Profiling
)

func (c BuildConfig) String() string {
	switch c {
	case Base:
		return "base"
	case Alloc:
		return "alloc"
	case MPK:
		return "mpk"
	case Profiling:
		return "profiling"
	default:
		return fmt.Sprintf("BuildConfig(%d)", uint8(c))
	}
}

func (c BuildConfig) appliesProfile() bool { return c == Alloc || c == MPK }
func (c BuildConfig) gatesOn() bool        { return c == MPK || c == Profiling }

// Site is one registered allocation call site in trusted code. The
// enforcement build decides once, at registration, which pool the site
// draws from — the analogue of rewriting the allocator call in the IR.
type Site struct {
	ID   profile.AllocID
	Pool pkalloc.Compartment

	mu     sync.Mutex
	allocs uint64
	bytes  uint64

	// Registry counters, resolved once at registration so the per-alloc
	// path never does a label lookup. Nil (a no-op) without telemetry.
	mAllocs *telemetry.Counter
	mBytes  *telemetry.Counter
}

// Allocs returns how many allocations the site has served.
func (s *Site) Allocs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocs
}

// Bytes returns how many bytes the site has served.
func (s *Site) Bytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Program is one built instance of an application under a configuration.
type Program struct {
	cfg     BuildConfig
	space   *vm.Space
	alloc   *pkalloc.Allocator
	sigs    *sig.Table
	runtime *ffi.Runtime
	tracer  *provenance.Tracer
	rec     *obs.Recorder         // fault forensics, nil unless Options.Forensics
	sup     *supervise.Supervisor // nil unless Options.Supervision enables recovery
	sampler *profstore.Sampler    // crossing sampler, nil unless Options.Crossings
	gtrace  *gatetrace.Tracer     // request-scoped tracing, nil unless Options.Tracing
	applied *profile.Profile      // profile consumed by Alloc/MPK builds

	mu    sync.Mutex
	sites map[profile.AllocID]*Site

	main *ffi.Thread

	tel *programTelemetry
}

// programTelemetry holds the registry plus the handles the program's own
// paths report into. Nil when no registry is attached.
type programTelemetry struct {
	reg        *telemetry.Registry
	siteAllocs *telemetry.CounterVec // allocations by site and pool
	siteBytes  *telemetry.CounterVec // bytes by site and pool
	allocLat   map[pkalloc.Compartment]*telemetry.Histogram
	freeLat    map[pkalloc.Compartment]*telemetry.Histogram
}

// poolName is the label value for a compartment, matching the paper's
// heap names.
func poolName(c pkalloc.Compartment) string {
	if c == pkalloc.Untrusted {
		return "MU"
	}
	return "MT"
}

// Options tunes NewProgram beyond the defaults.
type Options struct {
	// AllocConfig overrides pkalloc pool placement (zero fields default).
	AllocConfig pkalloc.Config
	// Store overrides the provenance metadata store (Profiling builds).
	Store provenance.Store
	// GateCost overrides the simulated per-WRPKRU cost (spin iterations).
	// Nil keeps ffi.DefaultGateCost; a pointer to 0 makes gates free (for
	// ablations).
	GateCost *int
	// Trace, when non-nil, records gate traversals and (in Profiling
	// builds) fault handling into the ring for post-mortem dumps.
	Trace *trace.Ring
	// Telemetry, when non-nil, attaches every layer of the program — VM
	// access/fault counters, gate crossings and latencies, allocation
	// sites, heap gauges, the profiler — to the metrics registry.
	Telemetry *telemetry.Registry
	// Forensics attaches an obs.Recorder that shadows allocation sites
	// and observes fault delivery so a fatal MPK violation can be turned
	// into a structured crash report (Program.Forensics().Capture).
	Forensics bool
	// Supervision configures the compartment fault supervisor. The zero
	// value (policy Abort) keeps the paper's fail-stop semantics: no
	// recovery points, failures kill the run. Any other policy makes
	// supervised cross-compartment calls recoverable; the Heal policy
	// implies Forensics, since healing resolves fault addresses through
	// the forensics shadow store.
	Supervision supervise.Config
	// Crossings attaches a boundary-crossing sampler: every forward gate
	// traversal's arguments are resolved through the forensics shadow
	// store and attributed to their allocation sites (implies Forensics).
	// The observations feed the continuous-profiling plane — telemetry
	// (pkrusafe_profile_*), trace Crossing events and, via FeedStore, the
	// generational profile store's re-tighten bookkeeping.
	Crossings bool
	// CrossingInterval samples every Nth forward crossing; <= 1 keeps all.
	CrossingInterval int
	// Tracing, when non-nil, attaches the request-scoped gate tracer:
	// callers open a gatetrace.Context per request (Tracing.Start) and
	// attach it to the serving thread (ffi.Thread.SetTraceContext); gate
	// traversals, supervisor recovery actions and vkey evictions then land
	// on that request's trace. The tracer's histograms register on
	// whatever registry the tracer was built with — pass the same registry
	// as Options.Telemetry to keep one export plane.
	Tracing *gatetrace.Tracer
}

// NewProgram builds a program from annotated libraries under the given
// configuration. Alloc and MPK builds require the profile produced by a
// prior Profiling run; Base and Profiling builds must pass nil.
func NewProgram(reg *ffi.Registry, cfg BuildConfig, prof *profile.Profile, opts ...Options) (*Program, error) {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	if cfg.appliesProfile() && prof == nil {
		return nil, fmt.Errorf("core: %v build requires a profile; run a Profiling build first", cfg)
	}
	if !cfg.appliesProfile() && prof != nil {
		return nil, fmt.Errorf("core: %v build does not consume a profile", cfg)
	}
	space := vm.NewSpace()
	acfg := opt.AllocConfig
	acfg.Space = space
	alloc, err := pkalloc.New(acfg)
	if err != nil {
		return nil, err
	}
	sigs := new(sig.Table)
	mode := ffi.GatesOff
	if cfg.gatesOn() {
		mode = ffi.GatesOn
	}
	p := &Program{
		cfg:     cfg,
		space:   space,
		alloc:   alloc,
		sigs:    sigs,
		runtime: ffi.NewRuntime(reg, alloc, sigs, mode),
		applied: prof,
		sites:   make(map[profile.AllocID]*Site),
	}
	if opt.GateCost != nil {
		p.runtime.SetGateCost(*opt.GateCost)
	}
	if opt.Trace != nil {
		p.runtime.SetTrace(opt.Trace)
	}
	if opt.Telemetry != nil {
		p.attachTelemetry(opt.Telemetry)
	}
	if opt.Supervision.Policy == supervise.Heal || opt.Crossings {
		// Healing and crossing attribution both resolve addresses to
		// allocation sites through the forensics shadow store, so the
		// recorder must be present.
		opt.Forensics = true
	}
	if opt.Forensics {
		// The recorder keeps its own metadata store: Options.Store is the
		// profiler's, and sharing one instance across the tracer's and the
		// recorder's locks would race.
		p.rec = obs.NewRecorder(obs.Config{
			Space:       space,
			TrustedKey:  alloc.TrustedKey(),
			BuildConfig: cfg.String(),
			Ring:        opt.Trace,
		})
		// Installed before the tracer so repairing handlers dispatch
		// first; the recorder only observes faults nothing else claims.
		p.rec.Install(sigs)
	}
	if cfg == Profiling {
		p.tracer = provenance.NewTracer(opt.Store, profile.New(), alloc.TrustedKey())
		if opt.Trace != nil {
			p.tracer.SetTrace(opt.Trace)
		}
		if opt.Telemetry != nil {
			p.tracer.SetTelemetry(opt.Telemetry)
		}
		// Installed immediately; applications that register their own
		// SIGSEGV handlers first are chained to automatically.
		p.tracer.Install(sigs)
	}
	if opt.Crossings {
		p.sampler = profstore.NewSampler(profstore.SamplerConfig{
			Resolve: func(addr uint64) (profile.AllocID, uint64, bool) {
				e, ok := p.rec.Lookup(addr)
				return e.ID, e.Size, ok
			},
			Interval:  opt.CrossingInterval,
			Telemetry: opt.Telemetry,
			Ring:      opt.Trace,
		})
		p.runtime.SetCrossingSink(p.sampler)
	}
	if opt.Supervision.Policy != supervise.Abort {
		p.sup = supervise.New(opt.Supervision, supervise.Deps{
			Alloc:     alloc,
			Recorder:  p.rec,
			Ring:      opt.Trace,
			Telemetry: opt.Telemetry,
		})
	}
	p.gtrace = opt.Tracing
	p.main = p.runtime.NewThread()
	p.bindForensics(p.main)
	return p, nil
}

// bindForensics associates a thread's fault-delivery context with its
// compartment view so crash reports can name the active compartment.
func (p *Program) bindForensics(t *ffi.Thread) {
	if p.rec != nil {
		p.rec.BindThread(t.VM, threadState{t})
	}
}

// threadState adapts an ffi.Thread to the recorder's view of it.
type threadState struct{ t *ffi.Thread }

func (s threadState) CompartmentName() string { return s.t.CurrentTrust().String() }
func (s threadState) GateDepth() int          { return s.t.Depth() }

// attachTelemetry registers the program's metric families on reg and wires
// the runtime (threads minted afterwards inherit VM counter promotion).
func (p *Program) attachTelemetry(reg *telemetry.Registry) {
	p.runtime.SetTelemetry(reg)
	tel := &programTelemetry{
		reg: reg,
		siteAllocs: reg.CounterVec("pkrusafe_site_allocs_total",
			"Allocations served per registered allocation site.", "site", "pool"),
		siteBytes: reg.CounterVec("pkrusafe_site_bytes_total",
			"Bytes served per registered allocation site.", "site", "pool"),
		allocLat: make(map[pkalloc.Compartment]*telemetry.Histogram),
		freeLat:  make(map[pkalloc.Compartment]*telemetry.Histogram),
	}
	allocLat := reg.HistogramVec("pkrusafe_heap_alloc_latency_ns",
		"Site allocation latency inside the pkalloc pools.", "ns", "pool")
	freeLat := reg.HistogramVec("pkrusafe_heap_free_latency_ns",
		"Free latency inside the pkalloc pools.", "ns", "pool")
	gauges := reg.GaugeVec("pkrusafe_heap", "Allocator activity by pool (see field label).", "pool", "field")
	for _, c := range []pkalloc.Compartment{pkalloc.Trusted, pkalloc.Untrusted} {
		c := c
		name := poolName(c)
		tel.allocLat[c] = allocLat.With(name)
		tel.freeLat[c] = freeLat.With(name)
		stats := func() heap.Stats { return p.poolStats(c) }
		gauges.WithFunc(func() float64 { return float64(stats().BytesLive) }, name, "bytes_live")
		gauges.WithFunc(func() float64 { return float64(stats().BytesTotal) }, name, "bytes_total")
		gauges.WithFunc(func() float64 { return float64(stats().Allocs) }, name, "allocs")
		gauges.WithFunc(func() float64 { return float64(stats().Frees) }, name, "frees")
		gauges.WithFunc(func() float64 { return float64(stats().PagesMapped) }, name, "pages_mapped")
		gauges.WithFunc(func() float64 { return float64(stats().ReuseHits) }, name, "reuse_hits")
		gauges.WithFunc(func() float64 { return float64(stats().FreshAllocs) }, name, "fresh_allocs")
		gauges.WithFunc(func() float64 { return float64(stats().PageReuse) }, name, "page_reuse")
		gauges.WithFunc(func() float64 { return float64(stats().PageFresh) }, name, "page_fresh")
	}
	p.tel = tel
}

// poolStats samples one compartment's allocator stats.
func (p *Program) poolStats(c pkalloc.Compartment) heap.Stats {
	s := p.alloc.Stats()
	if c == pkalloc.Untrusted {
		return s.Untrusted
	}
	return s.Trusted
}

// Telemetry returns the attached metrics registry (nil if none).
func (p *Program) Telemetry() *telemetry.Registry {
	if p.tel == nil {
		return nil
	}
	return p.tel.reg
}

// Config returns the build configuration.
func (p *Program) Config() BuildConfig { return p.cfg }

// Space returns the program's address space.
func (p *Program) Space() *vm.Space { return p.space }

// Allocator returns the program's pkalloc instance.
func (p *Program) Allocator() *pkalloc.Allocator { return p.alloc }

// Signals returns the program's signal table.
func (p *Program) Signals() *sig.Table { return p.sigs }

// Runtime returns the FFI runtime.
func (p *Program) Runtime() *ffi.Runtime { return p.runtime }

// Main returns the program's initial thread.
func (p *Program) Main() *ffi.Thread { return p.main }

// NewThread mints an additional execution context.
func (p *Program) NewThread() *ffi.Thread {
	t := p.runtime.NewThread()
	p.bindForensics(t)
	return t
}

// Tracer returns the provenance tracer (Profiling builds only, else nil).
func (p *Program) Tracer() *provenance.Tracer { return p.tracer }

// Forensics returns the fault forensics recorder, or nil when the build
// was created without Options.Forensics. The nil recorder is safe to use.
func (p *Program) Forensics() *obs.Recorder { return p.rec }

// Supervisor returns the compartment fault supervisor, or nil when the
// build keeps the default Abort policy. The nil supervisor is safe to
// use: its Call/Shield degrade to plain calls.
func (p *Program) Supervisor() *supervise.Supervisor { return p.sup }

// Crossings returns the boundary-crossing sampler, or nil when the build
// was created without Options.Crossings. The nil sampler is safe to use.
func (p *Program) Crossings() *profstore.Sampler { return p.sampler }

// Tracing returns the request-scoped gate tracer, or nil when the build
// was created without Options.Tracing. The nil tracer is safe to use.
func (p *Program) Tracing() *gatetrace.Tracer { return p.gtrace }

// RecordedProfile returns the profile collected by a Profiling build.
func (p *Program) RecordedProfile() (*profile.Profile, error) {
	if p.tracer == nil {
		return nil, errors.New("core: RecordedProfile on a non-profiling build")
	}
	return p.tracer.Profile(), nil
}

// Site registers (or returns) the allocation site identified by the
// (function, block, site) tuple. On Alloc/MPK builds the pool decision is
// made here, once: sites present in the applied profile draw from MU.
func (p *Program) Site(fn string, block, site uint32) *Site {
	id := profile.AllocID{Func: fn, Block: block, Site: site}
	pool := pkalloc.Trusted
	if p.cfg.appliesProfile() && p.applied.Contains(id) {
		pool = pkalloc.Untrusted
	}
	return p.site(id, pool)
}

// UntrustedSite registers (or returns) an allocation site whose pool is MU
// regardless of the profile — an explicit ualloc/usalloc in the source, as
// opposed to a profile-rewritten alloc (which Site classifies itself).
func (p *Program) UntrustedSite(fn string, block, site uint32) *Site {
	return p.site(profile.AllocID{Func: fn, Block: block, Site: site}, pkalloc.Untrusted)
}

func (p *Program) site(id profile.AllocID, pool pkalloc.Compartment) *Site {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.sites[id]; ok {
		return s
	}
	s := &Site{ID: id, Pool: pool}
	if tel := p.tel; tel != nil {
		s.mAllocs = tel.siteAllocs.With(id.String(), poolName(pool))
		s.mBytes = tel.siteBytes.With(id.String(), poolName(pool))
	}
	p.sites[id] = s
	return s
}

// AllocAt serves an allocation from a registered site, routing to the pool
// the build decided and feeding the provenance tracer in Profiling builds.
// A site the supervisor has healed draws from MU even though it was
// registered trusted — the allocator-call rewrite a profiler re-run would
// have produced, applied at runtime.
func (p *Program) AllocAt(s *Site, size uint64) (vm.Addr, error) {
	pool := s.Pool
	if pool == pkalloc.Trusted && p.sup.Healed(s.ID) {
		pool = pkalloc.Untrusted
	}
	var sp telemetry.Span
	if tel := p.tel; tel != nil {
		sp = telemetry.StartSpan(tel.allocLat[pool])
	}
	addr, err := p.alloc.AllocIn(pool, size)
	sp.End()
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.allocs++
	s.bytes += size
	s.mu.Unlock()
	s.mAllocs.Inc()
	s.mBytes.Add(size)
	if p.tracer != nil && pool == pkalloc.Trusted {
		p.tracer.LogAlloc(uint64(addr), size, s.ID)
	}
	p.rec.LogAlloc(uint64(addr), size, s.ID)
	return addr, nil
}

// Realloc resizes an allocation (pool-preserving) and keeps provenance
// metadata attached to the object's original allocation site.
func (p *Program) Realloc(addr vm.Addr, newSize uint64) (vm.Addr, error) {
	newAddr, err := p.alloc.Realloc(addr, newSize)
	if err != nil {
		return 0, err
	}
	if p.tracer != nil {
		p.tracer.LogRealloc(uint64(addr), uint64(newAddr), newSize)
	}
	p.rec.LogRealloc(uint64(addr), uint64(newAddr), newSize)
	return newAddr, nil
}

// Free releases an allocation and drops its provenance metadata.
func (p *Program) Free(addr vm.Addr) error {
	if p.tracer != nil {
		p.tracer.LogDealloc(uint64(addr))
	}
	p.rec.LogDealloc(uint64(addr))
	if tel := p.tel; tel != nil {
		pool, _ := p.alloc.CompartmentOf(addr)
		sp := telemetry.StartSpan(tel.freeLat[pool])
		err := p.alloc.Free(addr)
		sp.End()
		return err
	}
	return p.alloc.Free(addr)
}

// SiteReport summarizes allocation-site placement, the source of the
// paper's "274 of Servo's 12088 allocation sites" statistic and its %MU
// column. UntrustedShare covers *instrumented sites only* — the trusted
// program's own heap traffic, the paper's Rust-side view — not the
// untrusted library's private mallocs, which always live in MU.
type SiteReport struct {
	TotalSites     int
	UntrustedSites int
	TotalAllocs    uint64
	UntrustedShare float64 // fraction of site-allocated bytes served from MU
}

// Report computes the site placement summary for this build.
func (p *Program) Report() SiteReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	var r SiteReport
	var tBytes, uBytes uint64
	r.TotalSites = len(p.sites)
	for _, s := range p.sites {
		if s.Pool == pkalloc.Untrusted {
			r.UntrustedSites++
			uBytes += s.Bytes()
		} else {
			tBytes += s.Bytes()
		}
		r.TotalAllocs += s.Allocs()
	}
	if tBytes+uBytes > 0 {
		r.UntrustedShare = float64(uBytes) / float64(tBytes+uBytes)
	}
	return r
}

// Sites returns the registered sites sorted by id (for reports and tests).
func (p *Program) Sites() []*Site {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Site, 0, len(p.sites))
	for _, s := range p.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.String() < out[j].ID.String() })
	return out
}

// Transitions returns the number of compartment transitions performed.
func (p *Program) Transitions() uint64 { return p.runtime.Transitions() }
