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
		region, err := alloc.AddDomainPool("pool-t", vkey.InactiveKey)
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
// word (the PKRU installed or restored) and its note. A GateExit's B, the
// gate's duration, varies and is compared separately.
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
	lat     map[string]telemetry.SeriesSnapshot // gate-latency series by domain
	traceID string
	spans   []gatetrace.Span
	sink    []crossing
	results []uint64
	err     error
}

// gateSeries returns the gate-latency family's series by domain.
func gateSeries(reg *telemetry.Registry) map[string]telemetry.SeriesSnapshot {
	series := map[string]telemetry.SeriesSnapshot{}
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == gatetrace.GateLatencyMetric {
			for _, s := range m.Series {
				series[s.LabelValues[0]] = s
			}
		}
	}
	return series
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
		o.lat, o.traceID = gateSeries(reg), tc.ID()
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
// — the event ring, the per-domain latency histogram, the request trace
// and the crossing sink — for every kind of gate, and that with no
// observers the same gates still run to the same results.
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
		ring       []ringEvent // the ring's events, alone or with every observer
		lat        map[string]uint64
		spans      []traceSpan
		sink       []crossing // lib and args; latency compared separately
	}{
		{
			name:    "forward",
			mode:    GatesOn,
			call:    func(th *Thread) ([]uint64, error) { return th.Call("libu", "f", 41) },
			wantRes: []uint64{42},
			ring:    []ringEvent{{trace.GateEnter, untrusted, ""}, {trace.GateExit, all, "gate:libu"}},
			lat:     map[string]uint64{"libu": 1},
			spans:   []traceSpan{{"gate:libu", "libu", false}},
			sink:    []crossing{{lib: "libu", args: []uint64{41}}},
		},
		{
			name:    "reverse",
			mode:    GatesOn,
			call:    func(th *Thread) ([]uint64, error) { return th.Call("libu", "cb", 7, 8) },
			wantRes: []uint64{7, 8},
			ring: []ringEvent{
				{trace.GateEnter, untrusted, ""}, {trace.GateEnter, all, ""},
				{trace.GateExit, untrusted, "gate:libt"}, {trace.GateExit, all, "gate:libu"},
			},
			lat:   map[string]uint64{"libu": 1, "libt": 1},
			spans: []traceSpan{{"gate:libt", "libt", false}, {"gate:libu", "libu", false}},
			sink:  []crossing{{lib: "libu", args: []uint64{7, 8}}},
		},
		{
			name:    "domain",
			mode:    GatesOn,
			call:    func(th *Thread) ([]uint64, error) { return th.Call("tenant", "f", 21) },
			wantRes: []uint64{42},
			ring:    []ringEvent{{trace.GateEnter, domRights, ""}, {trace.GateExit, all, "gate:pool-t"}},
			lat:     map[string]uint64{"pool-t": 1},
			spans:   []traceSpan{{"gate:pool-t", "pool-t", false}},
			sink:    []crossing{{lib: "tenant", args: []uint64{21}}},
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
			lat:     map[string]uint64{"pool-t": 1},
			spans:   []traceSpan{{"gate:pool-t", "pool-t", false}, {"gate-refused", "pool-t", true}},
		},
		{
			name:       "panicking callee",
			mode:       GatesOn,
			call:       func(th *Thread) ([]uint64, error) { return th.Call("libu", "boom", 3) },
			wantErrStr: "panic: untrusted library crashed",
			ring:       []ringEvent{{trace.GateEnter, untrusted, ""}, {trace.GateExit, all, "gate:libu"}},
			lat:        map[string]uint64{"libu": 1},
			spans:      []traceSpan{{"gate:libu", "libu", false}},
			sink:       []crossing{{lib: "libu", args: []uint64{3}}},
		},
		{
			name:    "exit-audit abort",
			mode:    GatesOn,
			setup:   func(w *obsWorld) { w.rt.SetExitAudit(true) },
			call:    func(th *Thread) ([]uint64, error) { return th.Call("libu", "widen", 5) },
			wantErr: ErrGateTampered,
			aborted: true,
			ring:    []ringEvent{{trace.GateEnter, untrusted, ""}, {trace.GateExit, all, "gate:libu"}},
			lat:     map[string]uint64{"libu": 1},
			spans:   []traceSpan{{"gate:libu", "libu", false}},
			sink:    []crossing{{lib: "libu", args: []uint64{5}}},
		},
		{
			name:    "GatesOff",
			mode:    GatesOff,
			call:    func(th *Thread) ([]uint64, error) { return th.Call("libu", "cb", 9) },
			wantRes: []uint64{9},
			lat:     map[string]uint64{},
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

				// The ring: the same two records per traversal with the ring
				// alone and with every observer.
				var wantRing []ringEvent
				for _, e := range tc.ring {
					if obs != "none" {
						if e.a == domRights {
							e.a = w.entered
						}
						wantRing = append(wantRing, e)
					}
				}
				var gotRing []ringEvent
				var ringDur []time.Duration
				for _, e := range o.ring {
					gotRing = append(gotRing, ringEvent{e.Kind, e.A, e.Note})
					if e.Kind == trace.GateExit {
						ringDur = append(ringDur, time.Duration(e.B))
					}
				}
				if !reflect.DeepEqual(gotRing, wantRing) {
					t.Errorf("ring = %v, want %v", gotRing, wantRing)
				}
				// A ringed gate is timed and the ring stamps both records
				// from the gate's own clock reads: on one thread, each exit's
				// took= is exactly its offset from the matching enter.
				var entered []time.Duration
				for _, e := range o.ring {
					switch e.Kind {
					case trace.GateEnter:
						entered = append(entered, e.When)
					case trace.GateExit:
						at := entered[len(entered)-1]
						entered = entered[:len(entered)-1]
						if took := time.Duration(e.B); took <= 0 || e.When-at != took {
							t.Errorf("gate exit took=%v, %v after its enter", took, e.When-at)
						}
					}
				}
				if obs != "all" {
					return
				}

				// The latency histogram counts each timed gate once under
				// its domain, with the request's trace ID as exemplar.
				gotLat := map[string]uint64{}
				var sum uint64
				for d, ser := range o.lat {
					gotLat[d] = ser.Count
					sum += ser.Sum
					if len(ser.Exemplars) != 1 || ser.Exemplars[0].TraceID != o.traceID || ser.Exemplars[0].Value != ser.Sum {
						t.Errorf("series %s: exemplars %+v, want one of trace %s, value %d", d, ser.Exemplars, o.traceID, ser.Sum)
					}
				}
				if !reflect.DeepEqual(gotLat, tc.lat) {
					t.Errorf("gate latency series = %v, want %v", gotLat, tc.lat)
				}
				var gotSpans []traceSpan
				var spanDur []time.Duration
				for _, s := range o.spans {
					gotSpans = append(gotSpans, traceSpan{s.Name, s.Domain, s.Instant})
					if s.Start < 0 || s.Dur < 0 {
						t.Errorf("span %s: start %v, dur %v", s.Name, s.Start, s.Dur)
					}
					if !s.Instant {
						spanDur = append(spanDur, s.Dur)
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

				// One traversal, one duration: the ring's exit record, the
				// latency histogram, the trace span and the crossing sink
				// all carry the figure the gate measured once. A refused
				// entry leaves no ring record.
				if len(ringDur) > 0 && !reflect.DeepEqual(ringDur, spanDur) {
					t.Errorf("ring exit durations %v, trace span durations %v", ringDur, spanDur)
				}
				var spanSum uint64
				for _, d := range spanDur {
					spanSum += uint64(d)
				}
				if sum != spanSum {
					t.Errorf("gate latency sum %d, trace span total %d", sum, spanSum)
				}
				byDomain := map[string]time.Duration{}
				for _, e := range o.ring {
					if e.Kind == trace.GateExit {
						byDomain[strings.TrimPrefix(e.Note, "gate:")] = time.Duration(e.B)
					}
				}
				for _, c := range o.sink {
					domain := c.lib
					if b, ok := w.rt.domainBinding(c.lib); ok && b.Pool != "" {
						domain = b.Pool
					}
					if c.lat != byDomain[domain] {
						t.Errorf("sink latency for %s = %v, ring exit for %s %v", c.lib, c.lat, domain, byDomain[domain])
					}
				}
			})
		}
	}
}

// TestGateAllocs pins the allocations of one gated call: with no
// observers, with telemetry, the ring and a crossing sink attached, and
// with a request trace attached too, whose ID every gate hands the
// latency histogram as its exemplar.
func TestGateAllocs(t *testing.T) {
	cases := []struct {
		name             string
		lib              string
		observed, traced bool
	}{
		{"plain gate", "libu", false, false},
		{"domain gate", "tenant", false, false},
		{"plain gate observed", "libu", true, false},
		{"domain gate observed", "tenant", true, false},
		{"plain gate traced", "libu", true, true},
		{"domain gate traced", "tenant", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newObsWorld(t, GatesOn)
			w.rt.Registry.MustLibrary(tc.lib, Untrusted).Define("nop", func(*Thread, []uint64) ([]uint64, error) {
				return nil, nil
			})
			th := w.rt.NewThread()
			if tc.observed {
				reg := telemetry.NewRegistry()
				w.rt.SetTelemetry(reg)
				w.rt.SetTrace(trace.NewRing(64))
				w.rt.SetCrossingSink(&countSink{})
				if tc.traced {
					ctx := gatetrace.New(gatetrace.Config{Registry: reg}).Start("tenant-a")
					defer ctx.Finish()
					th.SetTraceContext(ctx)
				}
			}
			// Warm the slot, the series and the exemplar. A traced run
			// appends every gate's span to one trace, whose slice grows at
			// most once in the measured calls after this warm-up: the
			// trace's storage, amortized to 0 per call, not the gate's.
			for i := 0; i < 1024; i++ {
				if _, err := th.Call(tc.lib, "nop"); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(200, func() {
				if _, err := th.Call(tc.lib, "nop"); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v allocations per call", got)
			if got != 0 {
				t.Errorf("%v allocations per call, want 0", got)
			}
		})
	}
}

// TestGateObserversConcurrent runs plain and domain gates from several
// threads at once with every observer attached, so the race detector
// sees the per-library domain handles resolved and read, and the
// exemplars written, concurrently, and checks every traversal is counted
// once under its domain with an exemplar from one of the requests.
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
	ids := make(chan string, workers)
	for i := 0; i < workers; i++ {
		go func() {
			th := w.rt.NewThread()
			tc := tracer.Start("tenant-a")
			ids <- tc.ID()
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
	traces := map[string]bool{}
	for i := 0; i < workers; i++ {
		traces[<-ids] = true
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	series := gateSeries(reg)
	got := map[string]uint64{}
	for d, ser := range series {
		got[d] = ser.Count
		if len(ser.Exemplars) == 0 {
			t.Errorf("series %s has no exemplar", d)
		}
		for _, ex := range ser.Exemplars {
			if !traces[ex.TraceID] {
				t.Errorf("series %s: exemplar %+v names no request", d, ex)
			}
		}
	}
	if want := map[string]uint64{"libu": workers * calls, "pool-t": workers * calls}; !reflect.DeepEqual(got, want) {
		t.Errorf("gate latency series = %v, want %v", got, want)
	}
}
