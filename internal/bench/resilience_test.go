package bench

import (
	"bytes"
	"encoding/json"
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
	var buf bytes.Buffer
	if err := WriteResilienceJSON(&buf, iters, rs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Shed uint64 `json:"shed"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.Results) != 2 || doc.Results[1].Shed != host.Shed {
		t.Errorf("json (%v):\n%s", err, buf.String())
	}
}
