package resilience

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock is a manually-advanced clock for deterministic backoff tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestGroup(clk *fakeClock) *Group {
	return NewGroup(Config{ProbeAfter: 100 * time.Millisecond, now: clk.Now})
}

// backoff is the open→half-open delay of the tenant's trip-th opening
// under newTestGroup: the doubled base plus its deterministic jitter.
func backoff(tenant string, trip uint64) time.Duration {
	d := 100 * time.Millisecond << (trip - 1)
	if d > ProbeMax {
		d = ProbeMax
	}
	return d + time.Duration(float64(d)*JitterFrac*jitter(tenant, trip))
}

func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	g := newTestGroup(clk)

	// Closed: everything admitted, faults below the threshold stay closed.
	for i := 0; i < TripFaults-1; i++ {
		if _, err := g.Allow("a"); err != nil {
			t.Fatalf("closed Allow #%d: %v", i, err)
		}
		if tr := g.RecordFault("a"); tr != nil {
			t.Fatalf("tripped after %d faults: %+v", i+1, tr)
		}
	}
	// The TripFaults-th consecutive fault trips it.
	tr := g.RecordFault("a")
	if tr == nil || tr.To != Open || tr.Reason != "consecutive-faults" {
		t.Fatalf("transition = %+v, want open on consecutive-faults", tr)
	}
	if got := tr.Instant(); got != "breaker:open" {
		t.Errorf("Instant() = %q", got)
	}
	if g.State("a") != Open {
		t.Fatalf("state = %v, want open", g.State("a"))
	}

	// Open: shed until the backoff elapses.
	if _, err := g.Allow("a"); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("open Allow = %v, want ErrTenantQuarantined", err)
	}
	if g.Shed("a") != 1 {
		t.Errorf("shed = %d, want 1", g.Shed("a"))
	}

	// Backoff elapses: the next Allow is a half-open probe.
	clk.Advance(backoff("a", 1))
	tr2, err := g.Allow("a")
	if err != nil || tr2 == nil || tr2.To != HalfOpen {
		t.Fatalf("probe Allow = %+v, %v; want half-open transition", tr2, err)
	}

	// ProbeSuccesses (two) probe successes close it.
	if tr := g.RecordSuccess("a"); tr != nil {
		t.Fatalf("closed after one probe success: %+v", tr)
	}
	if _, err := g.Allow("a"); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	tr3 := g.RecordSuccess("a")
	if tr3 == nil || tr3.To != Closed {
		t.Fatalf("transition = %+v, want closed", tr3)
	}
	if g.State("a") != Closed {
		t.Fatalf("state = %v, want closed", g.State("a"))
	}
}

func TestHalfOpenFaultReopensWithDoubledBackoff(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	g := newTestGroup(clk)
	for i := 0; i < TripFaults; i++ {
		g.RecordFault("b")
	}
	clk.Advance(backoff("b", 1))
	if _, err := g.Allow("b"); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	tr := g.RecordFault("b")
	if tr == nil || tr.To != Open || tr.Reason != "probe-faulted" || tr.Trips != 2 {
		t.Fatalf("transition = %+v, want re-open trip 2", tr)
	}
	// Second trip backs off 2× the base plus jitter: still shedding one
	// nanosecond before it elapses.
	clk.Advance(backoff("b", 2) - time.Nanosecond)
	if _, err := g.Allow("b"); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("Allow inside doubled backoff = %v, want shed", err)
	}
	clk.Advance(time.Nanosecond)
	if _, err := g.Allow("b"); err != nil {
		t.Fatalf("Allow after doubled backoff = %v, want probe", err)
	}
}

func TestBudgetBurnTrips(t *testing.T) {
	g := NewGroup(Config{now: func() time.Time { return time.Unix(0, 0) }})
	if tr := g.RecordBurn("c", BurnLimit-1); tr != nil {
		t.Fatalf("tripped below burn limit: %+v", tr)
	}
	tr := g.RecordBurn("c", 1)
	if tr == nil || tr.To != Open || tr.Reason != "budget-burn" {
		t.Fatalf("transition = %+v, want budget-burn open", tr)
	}
}

func TestFaultRateTripsWithoutConsecutiveRun(t *testing.T) {
	g := NewGroup(Config{now: func() time.Time { return time.Unix(0, 0) }})
	// Alternate success/fault: never TripFaults consecutive, but the
	// window hits the TripRate (50%) once full.
	var tripped *Transition
	i := 0
	for ; i < 2*Window && tripped == nil; i++ {
		if i%2 == 0 {
			g.RecordSuccess("d")
		} else {
			tripped = g.RecordFault("d")
		}
	}
	if tripped == nil || tripped.Reason != "fault-rate" {
		t.Fatalf("transition = %+v, want fault-rate open", tripped)
	}
	if i != Window {
		t.Errorf("tripped after %d outcomes, want %d (a full window)", i, Window)
	}
}

// TestBackoffDoublesToCapWithJitter drives one tenant through repeated
// probe faults: each reopening waits exactly its doubled base, capped at
// ProbeMax, plus the jitter derived from (tenant, trip).
func TestBackoffDoublesToCapWithJitter(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	g := newTestGroup(clk)
	for i := 0; i < TripFaults; i++ {
		g.RecordFault("e")
	}
	capped := false
	for trip := uint64(1); trip <= 10; trip++ {
		d := backoff("e", trip)
		capped = capped || d >= ProbeMax
		clk.Advance(d - time.Nanosecond)
		if _, err := g.Allow("e"); !errors.Is(err, ErrTenantQuarantined) {
			t.Fatalf("trip %d: Allow before %v = %v, want shed", trip, d, err)
		}
		clk.Advance(time.Nanosecond)
		if tr, err := g.Allow("e"); err != nil || tr == nil || tr.To != HalfOpen {
			t.Fatalf("trip %d: Allow at %v = %+v, %v; want half-open", trip, d, tr, err)
		}
		if tr := g.RecordFault("e"); tr == nil || tr.Trips != trip+1 {
			t.Fatalf("trip %d: probe fault = %+v, want reopen", trip, tr)
		}
	}
	if !capped {
		t.Error("ten trips never reached ProbeMax")
	}
}

func TestJitterIsDeterministicAndPerTenant(t *testing.T) {
	if jitter("x", 1) != jitter("x", 1) {
		t.Error("jitter not deterministic")
	}
	if jitter("x", 1) == jitter("y", 1) && jitter("x", 2) == jitter("y", 2) {
		t.Error("jitter identical across tenants for two trips")
	}
	if j := jitter("x", 1); j < 0 || j >= 1 {
		t.Errorf("jitter out of range: %v", j)
	}
}

func TestNilGroupIsInert(t *testing.T) {
	var g *Group
	if _, err := g.Allow("z"); err != nil {
		t.Error("nil group refused admission")
	}
	if g.RecordFault("z") != nil || g.RecordSuccess("z") != nil || g.RecordBurn("z", 9) != nil {
		t.Error("nil group produced transitions")
	}
	if g.State("z") != Closed || g.Shed("z") != 0 || g.Snapshot() != nil {
		t.Error("nil group accessors not inert")
	}
}

func TestTelemetryAndSnapshot(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := &fakeClock{now: time.Unix(0, 0)}
	g := newTestGroup(clk)
	g.SetTelemetry(reg)
	for i := 0; i < TripFaults; i++ {
		g.RecordFault("t1")
	}
	g.Allow("t1") // shed
	g.RecordSuccess("t2")

	snap := g.Snapshot()
	if len(snap) != 2 || snap[0].Tenant != "t1" || snap[1].Tenant != "t2" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].State != "open" || snap[0].Trips != 1 || snap[0].Shed != 1 {
		t.Errorf("t1 state = %+v", snap[0])
	}
	if snap[1].State != "closed" {
		t.Errorf("t2 state = %+v", snap[1])
	}

	if v, ok := reg.CounterValue("pkrusafe_resilience_trips_total"); !ok || v != 1 {
		t.Errorf("trips counter = %v, %v", v, ok)
	}
	if v, ok := reg.CounterValue("pkrusafe_resilience_shed_total"); !ok || v != 1 {
		t.Errorf("shed counter = %v, %v", v, ok)
	}
}

// TestForget drops a churned tenant's open breaker: the tenant is
// admitted at once and is gone from Snapshot, while its pushed trips and
// shed series stay monotone across the forget and the breaker's
// re-creation.
func TestForget(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := &fakeClock{now: time.Unix(0, 0)}
	g := newTestGroup(clk)
	g.SetTelemetry(reg)
	trip := func() {
		for i := 0; i < TripFaults; i++ {
			g.RecordFault("a")
		}
		if _, err := g.Allow("a"); !errors.Is(err, ErrTenantQuarantined) {
			t.Fatalf("open breaker admitted: %v", err)
		}
	}
	counters := func() (trips, shed float64) {
		trips, _ = reg.CounterValue("pkrusafe_resilience_trips_total")
		shed, _ = reg.CounterValue("pkrusafe_resilience_shed_total")
		return trips, shed
	}

	trip()
	g.RecordSuccess("b")
	g.Forget("a")
	if _, err := g.Allow("a"); err != nil {
		t.Errorf("forgotten tenant refused: %v", err)
	}
	// The Allow above re-created a closed breaker; forget it again to see
	// the snapshot without it.
	g.Forget("a")
	if snap := g.Snapshot(); len(snap) != 1 || snap[0].Tenant != "b" {
		t.Errorf("snapshot after Forget = %+v, want only b", snap)
	}
	if trips, shed := counters(); trips != 1 || shed != 1 {
		t.Errorf("after forget: trips %v shed %v, want 1 and 1", trips, shed)
	}

	trip() // the re-created breaker trips and sheds on top of the old counts
	if trips, shed := counters(); trips != 2 || shed != 2 {
		t.Errorf("after re-create: trips %v shed %v, want 2 and 2", trips, shed)
	}
	if snap := g.Snapshot(); len(snap) != 2 || snap[0].Trips != 1 || snap[0].Shed != 1 {
		t.Errorf("re-created breaker starts afresh: %+v", snap)
	}
}
