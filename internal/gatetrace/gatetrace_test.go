package gatetrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpk"
	"repro/internal/telemetry"
)

// fakeReg is a minimal mpk.RightsRegister for bind-map tests.
type fakeReg struct{ r mpk.PKRU }

func (f *fakeReg) Rights() mpk.PKRU     { return f.r }
func (f *fakeReg) SetRights(v mpk.PKRU) { f.r = v }

// gateSpan times a gate the way ffi's call gate does — one clock read at
// enter, one at exit — and returns the exit half, which records it.
func gateSpan(c *Context, domain string) func() {
	start := time.Now()
	return func() { c.Gate(domain, start, time.Since(start)) }
}

// TestGateRecordsTheGatesOwnTiming: Gate files the span at the gate's
// enter instant, relative to the request, with exactly the duration the
// gate measured, and observes that duration into the domain's series.
func TestGateRecordsTheGatesOwnTiming(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Config{RetainAll: true, Registry: reg})
	c := tr.Start("tenant-a")
	enter := c.start.Add(3 * time.Millisecond)
	c.Gate("pool-a", enter, 1234*time.Nanosecond)
	c.Gate("pool-a", enter.Add(time.Millisecond), 0)
	c.Finish()
	got := tr.Retained()[0].Spans
	want := []Span{
		{Name: "gate:pool-a", Domain: "pool-a", Start: 3 * time.Millisecond, Dur: 1234},
		{Name: "gate:pool-a", Domain: "pool-a", Start: 4 * time.Millisecond},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("spans = %+v, want %+v", got, want)
	}
	h := reg.HistogramVec(GateLatencyMetric, "", "ns", "domain").With("pool-a")
	if h.Count() != 2 || h.Sum() != 1234 {
		t.Errorf("pool-a gate latency: count %d sum %d, want 2 and 1234", h.Count(), h.Sum())
	}
}

func TestRetentionPolicy(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Config{Capacity: 8, TailThreshold: 50 * time.Millisecond, Registry: reg})

	clean := tr.Start("alpha")
	gateSpan(clean, "libu")()
	clean.Finish()

	faulted := tr.Start("beta")
	faulted.MarkFault("addr=0x2000 pkey=1")
	faulted.Finish()

	recovered := tr.Start("alpha")
	recovered.MarkRecovery("retry", "pku fault")
	recovered.Finish()

	evicted := tr.Start("gamma")
	evicted.MarkEviction("vkey3", 5)
	evicted.Finish()

	got := tr.Retained()
	if len(got) != 3 {
		t.Fatalf("retained %d traces, want 3 (clean trace must be dropped)", len(got))
	}
	if got[0].Tenant != "beta" || !got[0].Faulted {
		t.Errorf("first retained = %+v, want beta/faulted", got[0])
	}
	if !got[1].Recovered || !got[2].Evicted {
		t.Errorf("flags lost: %+v %+v", got[1], got[2])
	}
	st := tr.Stats()
	if st.Started != 4 || st.Finished != 4 || st.Retained != 3 || st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}

	// The dropped trace still fed the histograms: all four requests and
	// the one gate observation are in the registry.
	if _, count, ok := reg.HistogramQuantiles(RequestLatencyMetric, 0.5); !ok || count != 4 {
		t.Errorf("request histogram count = %d ok=%v, want 4", count, ok)
	}
	if _, count, ok := reg.HistogramQuantiles(GateLatencyMetric, 0.5); !ok || count != 1 {
		t.Errorf("gate histogram count = %d ok=%v, want 1", count, ok)
	}
}

func TestTailThresholdRetainsSlow(t *testing.T) {
	tr := New(Config{Capacity: 4, TailThreshold: time.Nanosecond})
	c := tr.Start("slow")
	time.Sleep(10 * time.Microsecond)
	c.Finish()
	if len(tr.Retained()) != 1 {
		t.Fatal("slow trace not retained by tail threshold")
	}
	// Threshold zero: clean traces drop no matter how slow.
	tr2 := New(Config{Capacity: 4})
	c2 := tr2.Start("slow")
	time.Sleep(10 * time.Microsecond)
	c2.Finish()
	if len(tr2.Retained()) != 0 {
		t.Fatal("clean trace retained with no tail threshold")
	}
}

func TestRetainAllAndRingWrap(t *testing.T) {
	tr := New(Config{Capacity: 3, RetainAll: true})
	for i := 0; i < 5; i++ {
		c := tr.Start(fmt.Sprintf("tenant%d", i))
		c.Finish()
	}
	got := tr.Retained()
	if len(got) != 3 {
		t.Fatalf("retained %d, want capacity 3", len(got))
	}
	if got[0].Tenant != "tenant2" || got[2].Tenant != "tenant4" {
		t.Errorf("ring order wrong: %s .. %s", got[0].Tenant, got[2].Tenant)
	}
}

// TestCorrelation is the acceptance-criterion shape in miniature: one
// request's gate enter, fault, recovery action and gate exit all under
// one trace ID with a tenant label.
func TestCorrelation(t *testing.T) {
	tr := New(Config{Capacity: 4})
	c := tr.Start("tenant-a")
	end := gateSpan(c, "libu")
	c.MarkFault("addr=0x2000 pkey=1")
	end()
	c.MarkRecovery("retry", "pku fault in libu")
	end2 := gateSpan(c, "libu")
	end2()
	c.Finish()

	got := tr.Retained()
	if len(got) != 1 {
		t.Fatalf("retained %d", len(got))
	}
	trc := got[0]
	if trc.Tenant != "tenant-a" || trc.ID == "" {
		t.Fatalf("identity lost: %+v", trc)
	}
	var names []string
	for _, sp := range trc.Spans {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"fault", "gate:libu", "recover:retry"} {
		if !strings.Contains(joined, want) {
			t.Errorf("span %q missing from %v", want, names)
		}
	}
	if !trc.Faulted || !trc.Recovered {
		t.Errorf("flags = %+v", trc)
	}
	// Span offsets are non-negative and inside the request.
	for _, sp := range trc.Spans {
		if sp.Start < 0 || sp.Start > trc.Total {
			t.Errorf("span %q offset %v outside request total %v", sp.Name, sp.Start, trc.Total)
		}
	}
}

func TestEvictionAttributionViaBinds(t *testing.T) {
	tr := New(Config{Capacity: 4})
	regA, regB := &fakeReg{}, &fakeReg{}
	ctxA := tr.Start("alpha")
	tr.Bind(regA, ctxA)
	defer tr.Unbind(regA)

	// Eviction triggered by regA lands on alpha's trace; one triggered by
	// an unbound register is silently dropped (no context to blame).
	tr.ObserveEviction(regA, "vkey7", 4)
	tr.ObserveEviction(regB, "vkey8", 5)
	ctxA.Finish()

	got := tr.Retained()
	if len(got) != 1 {
		t.Fatalf("retained %d", len(got))
	}
	if !got[0].Evicted || got[0].Spans[0].Name != "evict:vkey7" {
		t.Errorf("eviction not attributed: %+v", got[0].Spans)
	}
	// Unbinding stops attribution.
	tr.Unbind(regA)
	tr.ObserveEviction(regA, "vkey9", 6) // must not panic, no live context
}

func TestNilTracerAndContext(t *testing.T) {
	var tr *Tracer
	c := tr.Start("x")
	if c != nil {
		t.Fatal("nil tracer minted a context")
	}
	c.Gate("d", time.Now(), 0)
	c.Span("s", "")()
	c.Instant("i", "", "")
	c.MarkFault("f")
	c.MarkRecovery("retry", "c")
	c.MarkEviction("v", 1)
	c.Finish()
	if c.ID() != "" || c.Tenant() != "" || c.Flagged() {
		t.Error("nil context leaked state")
	}
	tr.Bind(&fakeReg{}, nil)
	tr.ObserveEviction(&fakeReg{}, "v", 1)
	if tr.Retained() != nil || tr.Stats() != (Stats{}) {
		t.Error("nil tracer retained state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer export: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil tracer export not JSON: %v", err)
	}
}

func TestConcurrentRequests(t *testing.T) {
	tr := New(Config{Capacity: 64, Registry: telemetry.NewRegistry()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := tr.Start(fmt.Sprintf("tenant%d", g))
				end := gateSpan(c, "libu")
				if i%10 == 0 {
					c.MarkFault("injected")
				}
				end()
				c.Finish()
			}
		}(g)
	}
	wg.Wait()
	st := tr.Stats()
	if st.Finished != 400 {
		t.Fatalf("finished = %d", st.Finished)
	}
	if st.Retained != 40 || st.Dropped != 360 {
		t.Errorf("retention split = %+v, want 40/360", st)
	}
	for _, trc := range tr.Retained() {
		if !trc.Faulted {
			t.Errorf("clean trace retained: %+v", trc)
		}
	}
}

// TestLateSpanAfterFinish pins that a gate exit racing past Finish cannot
// mutate the filed trace.
func TestLateSpanAfterFinish(t *testing.T) {
	tr := New(Config{Capacity: 4, RetainAll: true})
	c := tr.Start("x")
	end := gateSpan(c, "libu")
	c.Finish()
	end() // late exit: histogram may still observe, but the trace is sealed
	got := tr.Retained()
	if len(got) != 1 {
		t.Fatalf("retained %d", len(got))
	}
	if len(got[0].Spans) != 0 {
		t.Errorf("late span mutated a filed trace: %+v", got[0].Spans)
	}
}

func TestChromeExportShape(t *testing.T) {
	tr := New(Config{Capacity: 4})
	c := tr.Start("tenant-a")
	end := gateSpan(c, "libu")
	c.MarkFault("addr=0x2000")
	end()
	c.Finish()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string            `json:"name"`
			Ph    string            `json:"ph"`
			Ts    float64           `json:"ts"`
			Dur   float64           `json:"dur"`
			Pid   int               `json:"pid"`
			Tid   int               `json:"tid"`
			Scope string            `json:"s"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var haveMeta, haveRequest, haveGate, haveFault bool
	for _, ev := range out.TraceEvents {
		if ev.Ts < 0 {
			t.Errorf("negative ts in %+v", ev)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			haveMeta = true
			if !strings.Contains(ev.Args["name"], "tenant=tenant-a") || !strings.Contains(ev.Args["name"], "faulted") {
				t.Errorf("thread name %q lacks tenant/flags", ev.Args["name"])
			}
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "request "):
			haveRequest = true
			if ev.Args["tenant"] != "tenant-a" || ev.Args["trace_id"] == "" {
				t.Errorf("request args = %v", ev.Args)
			}
		case ev.Ph == "X" && ev.Name == "gate:libu":
			haveGate = true
		case ev.Ph == "i" && ev.Name == "fault":
			haveFault = true
			if ev.Scope != "t" {
				t.Errorf("instant scope = %q", ev.Scope)
			}
		}
	}
	if !haveMeta || !haveRequest || !haveGate || !haveFault {
		t.Errorf("export missing rows: meta=%v request=%v gate=%v fault=%v\n%s",
			haveMeta, haveRequest, haveGate, haveFault, buf.String())
	}
}

// fakeSampler implements SamplerControl for controller tests.
type fakeSampler struct{ n int }

func (f *fakeSampler) Interval() int { return f.n }
func (f *fakeSampler) SetInterval(n int) {
	if n < 1 {
		n = 1
	}
	f.n = n
}

// TestControllerRetunesOnLatencyShift is the acceptance criterion: the
// controller measurably changes the sampling interval when injected gate
// latency shifts across the target.
func TestControllerRetunesOnLatencyShift(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Config{Capacity: 4, Registry: reg})
	s := &fakeSampler{n: 8}
	ctl := &Controller{Sampler: s, Registry: reg, Target: 10 * time.Microsecond, Min: 1, Max: 64, MinSamples: 8}

	// Phase 1: hot gates — injected latencies far above target. The
	// controller must back off (double the interval).
	hot := tr.Start("hot")
	for i := 0; i < 32; i++ {
		hot.Gate("libu", time.Now(), 100*time.Microsecond)
	}
	hot.Finish()
	r := ctl.Retune()
	if !r.Changed || r.New != 16 {
		t.Fatalf("hot retune = %+v, want interval 8→16", r)
	}
	// Same window again: no new observations, must hold.
	if r := ctl.Retune(); r.Changed {
		t.Fatalf("retuned on stale window: %+v", r)
	}

	// Phase 2: flood with fast observations until the merged p99 sits
	// under half the target, then the controller leans back in.
	cold := tr.Start("cold")
	for i := 0; i < 20000; i++ {
		cold.Gate("libu", time.Now(), 100*time.Nanosecond)
	}
	cold.Finish()
	r = ctl.Retune()
	if !r.Changed || r.New != 8 {
		t.Fatalf("cold retune = %+v (p99=%v), want interval 16→8", r, r.P99)
	}
}

func TestControllerClampsAndMinSamples(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Config{Capacity: 4, Registry: reg})
	s := &fakeSampler{n: 1}
	ctl := &Controller{Sampler: s, Registry: reg, Target: time.Microsecond, Min: 1, Max: 4, MinSamples: 8}

	// Too few samples: hold even though p99 is over target.
	c := tr.Start("x")
	c.Gate("libu", time.Now(), time.Millisecond)
	c.Finish()
	if r := ctl.Retune(); r.Changed {
		t.Fatalf("retuned under MinSamples: %+v", r)
	}
	// Enough samples: double, but never past Max.
	c = tr.Start("y")
	for i := 0; i < 32; i++ {
		c.Gate("libu", time.Now(), time.Millisecond)
	}
	ctl.Retune() // 1 → 2
	for i := 0; i < 8; i++ {
		c.Gate("libu", time.Now(), time.Millisecond)
	}
	ctl.Retune() // 2 → 4
	for i := 0; i < 8; i++ {
		c.Gate("libu", time.Now(), time.Millisecond)
	}
	if r := ctl.Retune(); r.New != 4 {
		t.Fatalf("interval escaped Max: %+v", r)
	}
}
