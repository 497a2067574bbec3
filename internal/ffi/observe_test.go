package ffi

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/gatetrace"
	"repro/internal/mpk"
	"repro/internal/pkalloc"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vkey"
	"repro/internal/vm"
)

// crossing is one CrossingSink observation.
type crossing struct {
	lib  string
	args []uint64
	lat  time.Duration
}

// recordSink keeps every crossing it is handed.
type recordSink struct{ calls []crossing }

func (s *recordSink) ObserveCrossing(lib string, args []uint64, lat time.Duration) {
	s.calls = append(s.calls, crossing{lib, append([]uint64(nil), args...), lat})
}

// countSink counts crossings without allocating, for allocation pins.
type countSink struct{ n int }

func (s *countSink) ObserveCrossing(string, []uint64, time.Duration) { s.n++ }

// obsWorld is a runtime with a trusted library "libt", an untrusted
// library "libu", and an untrusted library "tenant" whose calls gate
// through the vkey table into the domain pool "pool-t". The pool name
// differs from the library name so the tests can tell which label each
// observer is keyed by.
type obsWorld struct {
	rt      *Runtime
	table   *vkey.Table
	key     vkey.ID
	entered uint64 // the rights tenant.f last ran with
}

func newObsWorld(t *testing.T, mode GateMode) *obsWorld {
	t.Helper()
	space := vm.NewSpace()
	alloc, err := pkalloc.New(pkalloc.Config{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	rt := NewRuntime(reg, alloc, nil, mode)
	reg.MustLibrary("libt", Trusted).Define("g", func(_ *Thread, args []uint64) ([]uint64, error) {
		return args, nil
	})
	libu := reg.MustLibrary("libu", Untrusted)
	libu.Define("f", func(_ *Thread, args []uint64) ([]uint64, error) {
		return []uint64{args[0] + 1}, nil
	})
	libu.Define("cb", func(th *Thread, args []uint64) ([]uint64, error) {
		return th.Call("libt", "g", args...)
	})
	libu.Define("boom", func(*Thread, []uint64) ([]uint64, error) {
		panic("untrusted library crashed")
	})
	libu.Define("widen", func(th *Thread, _ []uint64) ([]uint64, error) {
		th.VM.SetPKRU(uint32(mpk.PermitAll))
		return nil, nil
	})
	w := &obsWorld{rt: rt}
	if mode == GatesOn {
		w.table, err = vkey.NewTable(space, vkey.Config{Reserved: []mpk.Key{alloc.TrustedKey()}})
		if err != nil {
			t.Fatal(err)
		}
		region, err := alloc.AddDomainPool("pool-t", w.table.InactiveKey())
		if err != nil {
			t.Fatal(err)
		}
		w.key = w.table.Alloc("pool-t")
		if err := w.table.Attach(w.key, region.Base, region.Size); err != nil {
			t.Fatal(err)
		}
		rt.BindLibraryDomain("tenant", DomainBinding{Pool: "pool-t", Table: w.table, Key: w.key})
	}
	reg.MustLibrary("tenant", Untrusted).Define("f", func(th *Thread, args []uint64) ([]uint64, error) {
		w.entered = uint64(uint32(th.VM.Rights()))
		return []uint64{args[0] * 2}, nil
	})
	return w
}

// ringEvent is the part of a trace.Event a gate fixes: its kind, its A
// word for GateEnter/GateExit (the PKRU installed or restored; the Span
// duration varies and is compared separately) and its note.
type ringEvent struct {
	kind trace.Kind
	a    uint64
	note string
}

// traceSpan is the part of a gatetrace.Span a gate fixes.
type traceSpan struct {
	name, domain string
	instant      bool
}

// observed is everything the four gate observers recorded in one run.
type observed struct {
	ring    []trace.Event
	libLat  map[string]uint64 // pkrusafe_gate_latency_ns series → count
	domLat  map[string]uint64 // pkrusafe_domain_gate_latency_ns series → count
	libSum  uint64            // sum over every pkrusafe_gate_latency_ns series
	spans   []gatetrace.Span
	sink    []crossing
	results []uint64
	err     error
}

// seriesCounts maps each label value of a one-label histogram family to
// its observation count.
func seriesCounts(reg *telemetry.Registry, name string) (counts map[string]uint64, sum uint64) {
	counts = map[string]uint64{}
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != name {
			continue
		}
		for _, s := range m.Series {
			counts[s.LabelValues[0]] = s.Count
			sum += s.Sum
		}
	}
	return counts, sum
}

// runObserved runs call on a fresh thread of w with the selected
// observers attached and collects what each of them saw.
func runObserved(t *testing.T, w *obsWorld, ringOnly, all bool, call func(th *Thread) ([]uint64, error)) observed {
	t.Helper()
	var (
		reg    *telemetry.Registry
		ring   *trace.Ring
		tracer *gatetrace.Tracer
		sink   *recordSink
	)
	if ringOnly || all {
		ring = trace.NewRing(64)
		w.rt.SetTrace(ring)
	}
	if all {
		reg = telemetry.NewRegistry()
		w.rt.SetTelemetry(reg)
		tracer = gatetrace.New(gatetrace.Config{Registry: reg, RetainAll: true})
		sink = &recordSink{}
		w.rt.SetCrossingSink(sink)
	}
	th := w.rt.NewThread()
	tc := tracer.Start("tenant-a")
	th.SetTraceContext(tc)
	var o observed
	func() {
		defer func() {
			if r := recover(); r != nil {
				o.err = fmt.Errorf("panic: %v", r)
			}
		}()
		o.results, o.err = call(th)
	}()
	tc.Finish()
	if ring != nil {
		o.ring = ring.Snapshot()
	}
	if all {
		o.libLat, o.libSum = seriesCounts(reg, "pkrusafe_gate_latency_ns")
		o.domLat, _ = seriesCounts(reg, gatetrace.GateLatencyMetric)
		if got := tracer.Retained(); len(got) != 1 {
			t.Fatalf("retained %d traces, want 1", len(got))
		} else {
			o.spans = got[0].Spans
		}
		o.sink = sink.calls
	}
	if th.Depth() != 0 || th.CurrentTrust() != Trusted || th.CurrentLib() != "" {
		t.Errorf("after the call: depth %d, trust %v, lib %q; want 0, trusted, \"\"",
			th.Depth(), th.CurrentTrust(), th.CurrentLib())
	}
	return o
}

// TestGateObservations pins what each gate traversal hands its observers
// — the event ring, the per-library and per-domain latency histograms,
// the request trace and the crossing sink — for every kind of gate, and
// that with no observers the same gates still run to the same results.
func TestGateObservations(t *testing.T) {
	untrusted := uint64(uint32(newObsWorld(t, GatesOn).rt.UntrustedPKRU()))
	all := uint64(uint32(mpk.PermitAll))
	const domRights = ^uint64(0) // the domain gate's installed rights, read in the callee
	cases := []struct {
		name       string
		mode       GateMode
		setup      func(w *obsWorld)
		call       func(th *Thread) ([]uint64, error)
		wantRes    []uint64
		wantErr    error  // matched with errors.Is
		wantErrStr string // the whole error text, when wantErr is nil
		aborted    bool
		ring       []ringEvent // ring with every observer attached
		libLat     map[string]uint64
		domLat     map[string]uint64
		spans      []traceSpan
		sink       []crossing // lib and args; latency compared separately
	}{
		{
			name:    "forward",
			mode:    GatesOn,
			call:    func(th *Thread) ([]uint64, error) { return th.Call("libu", "f", 41) },
			wantRes: []uint64{42},
			ring: []ringEvent{
				{trace.GateEnter, untrusted, ""}, {trace.GateExit, all, ""}, {trace.Span, 0, "gate:libu"},
			},
			libLat: map[string]uint64{"libu": 1},
			domLat: map[string]uint64{"libu": 1},
			spans:  []traceSpan{{"gate:libu", "libu", false}},
			sink:   []crossing{{lib: "libu", args: []uint64{41}}},
		},
		{
			name:    "reverse",
			mode:    GatesOn,
			call:    func(th *Thread) ([]uint64, error) { return th.Call("libu", "cb", 7, 8) },
			wantRes: []uint64{7, 8},
			ring: []ringEvent{
				{trace.GateEnter, untrusted, ""}, {trace.GateEnter, all, ""},
				{trace.GateExit, untrusted, ""}, {trace.Span, 0, "gate:libt"},
				{trace.GateExit, all, ""}, {trace.Span, 0, "gate:libu"},
			},
			libLat: map[string]uint64{"libu": 1, "libt": 1},
			domLat: map[string]uint64{"libu": 1, "libt": 1},
			spans:  []traceSpan{{"gate:libt", "libt", false}, {"gate:libu", "libu", false}},
			sink:   []crossing{{lib: "libu", args: []uint64{7, 8}}},
		},
		{
			name:    "domain",
			mode:    GatesOn,
			call:    func(th *Thread) ([]uint64, error) { return th.Call("tenant", "f", 21) },
			wantRes: []uint64{42},
			ring: []ringEvent{
				{trace.GateEnter, domRights, ""}, {trace.GateExit, all, ""}, {trace.Span, 0, "gate:tenant"},
			},
			libLat: map[string]uint64{"tenant": 1},
			domLat: map[string]uint64{"pool-t": 1},
			spans:  []traceSpan{{"gate:pool-t", "pool-t", false}},
			sink:   []crossing{{lib: "tenant", args: []uint64{21}}},
		},
		{
			name: "refused domain entry",
			mode: GatesOn,
			setup: func(w *obsWorld) {
				if err := w.table.Free(w.key); err != nil {
					panic(err)
				}
			},
			call:    func(th *Thread) ([]uint64, error) { return th.Call("tenant", "f", 21) },
			wantErr: vkey.ErrUnknownKey,
			ring:    []ringEvent{{trace.Span, 0, "gate:tenant"}},
			libLat:  map[string]uint64{"tenant": 1},
			domLat:  map[string]uint64{"pool-t": 1},
			spans:   []traceSpan{{"gate:pool-t", "pool-t", false}, {"gate-refused", "pool-t", true}},
		},
		{
			name:       "panicking callee",
			mode:       GatesOn,
			call:       func(th *Thread) ([]uint64, error) { return th.Call("libu", "boom", 3) },
			wantErrStr: "panic: untrusted library crashed",
			ring: []ringEvent{
				{trace.GateEnter, untrusted, ""}, {trace.GateExit, all, ""}, {trace.Span, 0, "gate:libu"},
			},
			libLat: map[string]uint64{"libu": 1},
			domLat: map[string]uint64{"libu": 1},
			spans:  []traceSpan{{"gate:libu", "libu", false}},
			sink:   []crossing{{lib: "libu", args: []uint64{3}}},
		},
		{
			name:    "exit-audit abort",
			mode:    GatesOn,
			setup:   func(w *obsWorld) { w.rt.SetExitAudit(true) },
			call:    func(th *Thread) ([]uint64, error) { return th.Call("libu", "widen", 5) },
			wantErr: ErrGateTampered,
			aborted: true,
			ring: []ringEvent{
				{trace.GateEnter, untrusted, ""}, {trace.GateExit, all, ""}, {trace.Span, 0, "gate:libu"},
			},
			libLat: map[string]uint64{"libu": 1},
			domLat: map[string]uint64{"libu": 1},
			spans:  []traceSpan{{"gate:libu", "libu", false}},
			sink:   []crossing{{lib: "libu", args: []uint64{5}}},
		},
		{
			name:    "GatesOff",
			mode:    GatesOff,
			call:    func(th *Thread) ([]uint64, error) { return th.Call("libu", "cb", 9) },
			wantRes: []uint64{9},
			libLat:  map[string]uint64{},
			domLat:  map[string]uint64{},
		},
	}
	for _, tc := range cases {
		for _, obs := range []string{"none", "ring", "all"} {
			t.Run(tc.name+"/"+obs, func(t *testing.T) {
				w := newObsWorld(t, tc.mode)
				if tc.setup != nil {
					tc.setup(w)
				}
				o := runObserved(t, w, obs == "ring", obs == "all", tc.call)

				switch {
				case tc.wantErr != nil:
					if !errors.Is(o.err, tc.wantErr) {
						t.Fatalf("err = %v, want %v", o.err, tc.wantErr)
					}
				case tc.wantErrStr != "":
					if o.err == nil || o.err.Error() != tc.wantErrStr {
						t.Fatalf("err = %v, want %q", o.err, tc.wantErrStr)
					}
				case o.err != nil:
					t.Fatalf("err = %v", o.err)
				}
				if tc.wantRes != nil && !reflect.DeepEqual(o.results, tc.wantRes) {
					t.Errorf("results = %v, want %v", o.results, tc.wantRes)
				}
				if w.rt.Aborted() != tc.aborted {
					t.Errorf("aborted = %v, want %v", w.rt.Aborted(), tc.aborted)
				}

				// The ring: every event with all observers, and only the
				// gate enter/exit events with the ring alone: the gate's
				// Span event needs telemetry attached too.
				var wantRing []ringEvent
				for _, e := range tc.ring {
					if obs == "all" || (obs == "ring" && e.kind != trace.Span) {
						if e.a == domRights {
							e.a = w.entered
						}
						wantRing = append(wantRing, e)
					}
				}
				var gotRing []ringEvent
				for _, e := range o.ring {
					a := e.A
					if e.Kind == trace.Span {
						a = 0
					}
					gotRing = append(gotRing, ringEvent{e.Kind, a, e.Note})
				}
				if !reflect.DeepEqual(gotRing, wantRing) {
					t.Errorf("ring = %v, want %v", gotRing, wantRing)
				}
				if obs != "all" {
					return
				}

				if !reflect.DeepEqual(o.libLat, tc.libLat) {
					t.Errorf("gate latency series = %v, want %v", o.libLat, tc.libLat)
				}
				if !reflect.DeepEqual(o.domLat, tc.domLat) {
					t.Errorf("domain gate latency series = %v, want %v", o.domLat, tc.domLat)
				}
				var gotSpans []traceSpan
				for _, s := range o.spans {
					gotSpans = append(gotSpans, traceSpan{s.Name, s.Domain, s.Instant})
					if s.Start < 0 || s.Dur < 0 {
						t.Errorf("span %s: start %v, dur %v", s.Name, s.Start, s.Dur)
					}
				}
				if !reflect.DeepEqual(gotSpans, tc.spans) {
					t.Errorf("trace spans = %v, want %v", gotSpans, tc.spans)
				}
				var gotSink []crossing
				for _, c := range o.sink {
					gotSink = append(gotSink, crossing{lib: c.lib, args: c.args})
				}
				if !reflect.DeepEqual(gotSink, tc.sink) {
					t.Errorf("sink = %v, want %v", gotSink, tc.sink)
				}

				// One traversal, one duration: the ring's Span, the
				// latency histogram, the trace span and the crossing sink
				// all carry the figure the gate measured once.
				var ringDur, spanDur []time.Duration
				var sum uint64
				byLib := map[string]time.Duration{}
				for _, e := range o.ring {
					if e.Kind == trace.Span {
						ringDur = append(ringDur, time.Duration(e.A))
						byLib[strings.TrimPrefix(e.Note, "gate:")] = time.Duration(e.A)
						sum += e.A
					}
				}
				for _, s := range o.spans {
					if !s.Instant {
						spanDur = append(spanDur, s.Dur)
					}
				}
				if !reflect.DeepEqual(ringDur, spanDur) {
					t.Errorf("ring span durations %v, trace span durations %v", ringDur, spanDur)
				}
				if sum != o.libSum {
					t.Errorf("gate latency sum %d, ring span total %d", o.libSum, sum)
				}
				for _, c := range o.sink {
					if c.lat != byLib[c.lib] {
						t.Errorf("sink latency for %s = %v, ring span %v", c.lib, c.lat, byLib[c.lib])
					}
				}
			})
		}
	}
}

// TestGateAllocs pins the allocations of one gated call, with no
// observers and with telemetry, the ring and a crossing sink attached.
func TestGateAllocs(t *testing.T) {
	cases := []struct {
		name     string
		lib      string
		observed bool
		max      float64
	}{
		{"plain gate", "libu", false, 0},
		{"domain gate", "tenant", false, 0},
		{"plain gate observed", "libu", true, 0},
		{"domain gate observed", "tenant", true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newObsWorld(t, GatesOn)
			w.rt.Registry.MustLibrary(tc.lib, Untrusted).Define("nop", func(*Thread, []uint64) ([]uint64, error) {
				return nil, nil
			})
			if tc.observed {
				w.rt.SetTelemetry(telemetry.NewRegistry())
				w.rt.SetTrace(trace.NewRing(64))
				w.rt.SetCrossingSink(&countSink{})
			}
			th := w.rt.NewThread()
			if _, err := th.Call(tc.lib, "nop"); err != nil { // warm the slot and the series
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(200, func() {
				if _, err := th.Call(tc.lib, "nop"); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v allocations per call", got)
			if got > tc.max {
				t.Errorf("%v allocations per call, want at most %v", got, tc.max)
			}
		})
	}
}

// TestGateObserversConcurrent runs plain and domain gates from several
// threads at once with every observer attached, so the race detector
// sees the per-library and per-domain handles resolved and read
// concurrently, and checks no traversal is lost.
func TestGateObserversConcurrent(t *testing.T) {
	const workers, calls = 4, 50
	w := newObsWorld(t, GatesOn)
	reg := telemetry.NewRegistry()
	w.rt.SetTelemetry(reg)
	w.rt.SetTrace(trace.NewRing(64))
	tracer := gatetrace.New(gatetrace.Config{Registry: reg})
	w.rt.Registry.MustLibrary("tenant", Untrusted).Define("nop", func(*Thread, []uint64) ([]uint64, error) {
		return nil, nil
	})
	done := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() {
			th := w.rt.NewThread()
			tc := tracer.Start("tenant-a")
			th.SetTraceContext(tc)
			defer tc.Finish()
			for j := 0; j < calls; j++ {
				if _, err := th.Call("libu", "f", 1); err != nil {
					done <- err
					return
				}
				if _, err := th.Call("tenant", "nop"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < workers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]uint64{"libu": workers * calls, "tenant": workers * calls}
	if got, _ := seriesCounts(reg, "pkrusafe_gate_latency_ns"); !reflect.DeepEqual(got, want) {
		t.Errorf("gate latency series = %v, want %v", got, want)
	}
	want = map[string]uint64{"libu": workers * calls, "pool-t": workers * calls}
	if got, _ := seriesCounts(reg, gatetrace.GateLatencyMetric); !reflect.DeepEqual(got, want) {
		t.Errorf("domain gate latency series = %v, want %v", got, want)
	}
}
