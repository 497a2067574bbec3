package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunResilience pins the containment experiment's shape: the clean
// world sheds nothing and sees no hostile faults; beside a hostile
// neighbour the breaker sheds, the hostile pool is quarantined, and the
// healthy tenants keep being served.
func TestRunResilience(t *testing.T) {
	const iters = 800
	rs, err := RunResilience(iters)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Name != "baseline" || rs[1].Name != "hostile" {
		t.Fatalf("scenarios = %+v", rs)
	}
	base, host := rs[0], rs[1]
	if base.Shed != 0 || base.HostileFaults != 0 || base.HostileEpochs != 0 {
		t.Errorf("baseline shed/faulted/quarantined: %+v", base)
	}
	if base.HealthyRequests != iters {
		t.Errorf("baseline served %d healthy requests, want %d", base.HealthyRequests, iters)
	}
	if host.Shed == 0 || host.HostileEpochs == 0 || host.HealthyRequests == 0 {
		t.Errorf("hostile scenario did not contain: %+v", host)
	}
	if want := iters * 7 / 8; host.HealthyRequests != want {
		t.Errorf("hostile scenario served %d healthy requests, want %d", host.HealthyRequests, want)
	}
	if !strings.Contains(FormatResilience(rs), "healthy p99 overhead") {
		t.Errorf("format:\n%s", FormatResilience(rs))
	}
	rec := roundTrip(t, ResilienceRecord(iters, rs))
	for _, r := range rs {
		if len(r.RunP99) != resiliencePairs {
			t.Errorf("%s: %d runs, want %d", r.Name, len(r.RunP99), resiliencePairs)
		}
		wantRow(t, rec, r.Name, "domains", float64(r.Domains))
		wantRow(t, rec, r.Name, "healthy_requests", float64(r.HealthyRequests))
		wantRow(t, rec, r.Name, "healthy_p50_ns", float64(r.HealthyP50))
		wantRow(t, rec, r.Name, "healthy_p99_ns", float64(r.HealthyP99))
		wantRow(t, rec, r.Name, "shed", float64(r.Shed))
		wantRow(t, rec, r.Name, "hostile_faults", float64(r.HostileFaults))
		wantRow(t, rec, r.Name, "hostile_epochs", float64(r.HostileEpochs))
		for k, p99 := range r.RunP99 {
			wantRow(t, rec, fmt.Sprintf("%s.run%d", r.Name, k+1), "healthy_p99_ns", float64(p99))
		}
	}
	wantRow(t, rec, "resilience", "healthy_p99_overhead", ResilienceOverhead(rs))
}

// TestABBAOrder pins the scenario order RunResilience alternates in.
func TestABBAOrder(t *testing.T) {
	var got strings.Builder
	for k := 0; k < 8; k++ {
		got.WriteByte("AB"[abba(k)])
	}
	if got.String() != "ABBAABBA" {
		t.Errorf("order = %s, want ABBAABBA", got.String())
	}
}
