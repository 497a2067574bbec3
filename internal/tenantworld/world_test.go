package tenantworld

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/supervise"
	"repro/internal/workload"
)

// TestConcurrentServeWithChurn drives the world the way `pkru-servo
// -domains` does — four workers probing their neighbours, injected faults
// answered by pool quarantine, a churn loop recycling tenants underneath
// — and checks the request accounting: no probe leaks, and every
// attempted request lands in exactly one of ok, dropped, refused or shed,
// matching the world's own counters.
//
// Each worker owns a quarter of the tenants. Simulated memory is plain
// bytes, so a quarantine scrubbing a pool while another worker reads the
// same pool is a data race under -race (see ROADMAP.md); probes of a
// neighbour's pool are denied before any byte is read.
func TestConcurrentServeWithChurn(t *testing.T) {
	const tenants, workers, cycles = 16, 4, 300
	w, err := New(Config{
		Tenants: tenants, Policy: supervise.Quarantine, SampleInterval: 8,
		Fault: workload.FaultSpec{Every: 17},
	})
	if err != nil {
		t.Fatal(err)
	}
	var counts [Shed + 1]atomic.Uint64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			th := w.NewThread()
			for c := 0; c < cycles; c++ {
				i := k + workers*(c%(tenants/workers))
				counts[w.Serve(th, i, (i+1)%tenants)].Add(1)
			}
		}(k)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	churned := 0
churn:
	for victim := 0; ; victim++ {
		select {
		case <-done:
			break churn
		default:
		}
		ok, err := w.Churn(victim % tenants)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			churned++
		}
		time.Sleep(20 * time.Microsecond)
	}

	if n := w.Leaks.Value(); n != 0 {
		t.Errorf("%d cross-tenant probes leaked", n)
	}
	ok, dropped, refused, shed := counts[OK].Load(), counts[Dropped].Load(), counts[Refused].Load(), counts[Shed].Load()
	t.Logf("ok=%d dropped=%d refused=%d shed=%d skipped=%d churned=%d",
		ok, dropped, refused, shed, counts[Skipped].Load(), churned)
	attempted := uint64(workers*cycles) - counts[Skipped].Load()
	if sum := w.Entries.Value() + w.Dropped.Value() + w.Refused.Value() + w.Shed.Value(); sum != attempted {
		t.Errorf("world counted %d outcomes for %d attempted requests", sum, attempted)
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"ok", w.Entries.Value(), ok},
		{"dropped", w.Dropped.Value(), dropped},
		{"refused", w.Refused.Value(), refused},
		{"shed", w.Shed.Value(), shed},
		{"churn", w.Churned.Value(), uint64(churned)},
	} {
		if c.got != c.want {
			t.Errorf("%s counter %d, Serve returned %d", c.name, c.got, c.want)
		}
	}
	if ok == 0 || churned == 0 {
		t.Errorf("workload did not run: ok=%d churned=%d", ok, churned)
	}
	if st := w.Manager.Table().Stats(); st.Logical != tenants {
		t.Errorf("logical keys after churn = %d, want %d", st.Logical, tenants)
	}
}

// TestHostileVerdict runs the deterministic containment rehearsal in
// process: the hostile tenant's breaker opens and sheds the rest of its
// requests, only its pool is quarantined, healthy tenants are untouched.
func TestHostileVerdict(t *testing.T) {
	w, err := New(Config{
		Tenants: 8, Policy: supervise.Quarantine, ProbeAfter: time.Hour,
		SampleInterval: 8, Hostile: Name(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	th := w.NewThread()
	for c := 0; c < 96; c++ {
		w.Serve(th, c%8, (c+1)%8)
	}
	v := w.Verdict()
	if !v.Contained || v.Breaker != resilience.Open || v.Shed == 0 || v.HostileEpochs == 0 ||
		v.HealthyTenants != 7 || v.HealthyOK != 84 || v.HealthyDropped != 0 || v.HealthyBumped != 0 {
		t.Errorf("verdict %+v", v)
	}
	if v.Requests != v.Faulted+v.Shed {
		t.Errorf("hostile requests %d != faulted %d + shed %d", v.Requests, v.Faulted, v.Shed)
	}
	if got := w.Latency.Tenants(); len(got) != 7 {
		t.Errorf("latency recorded for %v, want the 7 healthy tenants", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{Tenants: 8, Hostile: "tenant007"}).Validate(); err != nil {
		t.Errorf("tenant007 of 8: %v", err)
	}
	for _, c := range []Config{{Tenants: 0}, {Tenants: 8, Hostile: "tenant008"}, {Tenants: 8, Hostile: "tenant999"}} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v validated", c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New(%+v) built a world", c)
		}
	}
}

func TestQuantile(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	r := NewRecorder()
	for _, d := range []time.Duration{5, 1, 4, 2, 3} {
		r.Record("a", d)
	}
	r.Record("b", 10)
	s := r.Sorted(func(string) bool { return true })
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.5, 4}, {0.99, 10}, {1, 10}} {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("q%.2f of %v = %v, want %v", c.q, s, got, c.want)
		}
	}
}

// TestBurnChargesOwnQuarantines serves one tenant from several workers
// at once under Quarantine, every third request faulting. The breaker
// must be charged exactly the domain quarantines the supervisor
// performed: each request charges its own, never a concurrent
// request's. A breaker that opened (faulted requests can finish in a
// row) stops charging, so then the burn may only fall short.
func TestBurnChargesOwnQuarantines(t *testing.T) {
	const workers, requests = 4, 6
	w, err := New(Config{
		Tenants: 1, Policy: supervise.Quarantine, ProbeAfter: time.Hour,
		Fault: workload.FaultSpec{Every: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := w.NewThread()
			<-start
			for c := 0; c < requests; c++ {
				w.Serve(th, 0, 0)
			}
		}()
	}
	close(start)
	wg.Wait()
	quarantines := w.sup.DomainQuarantines(Name(0))
	if quarantines == 0 {
		t.Fatal("no request was quarantined; the test exercised nothing")
	}
	for _, ts := range w.Breakers.Snapshot() {
		if ts.Burn > quarantines || ts.Trips == 0 && ts.Burn != quarantines {
			t.Errorf("breaker %+v after %d quarantines", ts, quarantines)
		}
	}
}
