package supervise

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/mpk"
	"repro/internal/telemetry"
)

// TestConcurrentShieldMarksOwnRecovery runs many Shield calls at once
// under Retry, each callee panicking once with its own tag. Every
// retained trace must carry exactly one recover:* instant, and its cause
// must be that request's own: a trace marked from the shared log would
// pick up whichever request noted last.
func TestConcurrentShieldMarksOwnRecovery(t *testing.T) {
	const workers, calls = 16, 4 // 64 retries: exactly the whole-run Budget
	rt, reg, deps := world(t)
	tripped := make([]atomic.Bool, workers*calls)
	reg.MustLibrary("u", ffi.Untrusted).Define("tagged", func(_ *ffi.Thread, a []uint64) ([]uint64, error) {
		if !tripped[a[0]].Swap(true) {
			panic(tag(int(a[0])))
		}
		return nil, nil
	})
	s := New(Config{Policy: Retry}, deps)
	tracer := gatetrace.New(gatetrace.Config{Capacity: workers * calls})

	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, workers*calls)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.NewThread()
			<-start
			for c := 0; c < calls; c++ {
				id := w*calls + c
				tc := tracer.Start(tag(id))
				th.SetTraceContext(tc)
				_, err := s.Call(th, "u", "tagged", uint64(id))
				th.SetTraceContext(nil)
				tc.Finish()
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("supervised call failed: %v", err)
	}

	traces := tracer.Retained()
	if len(traces) != workers*calls {
		t.Fatalf("%d traces retained, want %d", len(traces), workers*calls)
	}
	for _, tr := range traces {
		var marks []string
		for _, sp := range tr.Spans {
			if sp.Instant && strings.HasPrefix(sp.Name, "recover:") {
				marks = append(marks, sp.Detail)
			}
		}
		if len(marks) != 1 || !strings.HasSuffix(marks[0], tr.Tenant) {
			t.Errorf("trace of %s: recover instants %q, want one with its own cause", tr.Tenant, marks)
		}
	}
}

// tag is request id's panic value and trace label; no tag is a suffix
// of another.
func tag(id int) string { return fmt.Sprintf("<req %02d>", id) }

// TestRecoveryRecordPerCall pins that a call's CompartmentError carries
// the actions that call caused (both quarantines of an escalation, and
// none of an earlier call's), and that the action and quarantine series
// read the log.
func TestRecoveryRecordPerCall(t *testing.T) {
	rt, reg, deps := world(t)
	if _, err := rt.Alloc.AddDomainPool("tenantA", mpk.Key(8)); err != nil {
		t.Fatal(err)
	}
	secret, _ := rt.Alloc.Alloc(8)
	reg.MustLibrary("u", ffi.Untrusted).Define("always_faults", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
		_, e := th.Load64(secret)
		return nil, e
	})
	tel := telemetry.NewRegistry()
	deps.Telemetry = tel
	s := New(Config{Policy: Quarantine}, deps)
	tracer := gatetrace.New(gatetrace.Config{Capacity: 4})
	th := rt.NewThread()
	for n := 1; n <= EscalateAfter; n++ {
		tc := tracer.Start("tenantA")
		th.SetTraceContext(tc)
		_, err := s.Call(th, "u", "always_faults")
		th.SetTraceContext(nil)
		tc.Finish()
		var ce *CompartmentError
		if !errors.As(err, &ce) {
			t.Fatalf("call %d: error = %v, want *CompartmentError", n, err)
		}
		want := []string{"tenantA"}
		if n == EscalateAfter {
			want = append(want, "") // the escalation to the global tier
		}
		var got []string
		for _, a := range ce.Actions {
			if a.Action != "quarantine" || a.Call != "u.always_faults" {
				t.Errorf("call %d: action %+v", n, a)
			}
			got = append(got, a.Domain)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("call %d: action domains %q, want %q", n, got, want)
		}
	}
	var b strings.Builder
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"pkrusafe_recovery_actions_total{action=\"quarantine\"}", EscalateAfter + 1},
		{"pkrusafe_recovery_quarantines_total{domain=\"tenantA\"}", EscalateAfter},
		{"pkrusafe_recovery_quarantines_total{domain=\"mu\"}", 1},
		{"pkrusafe_recovery_healed_sites_total", 0},
	} {
		if line := fmt.Sprintf("%s %d\n", c.name, c.want); !strings.Contains(b.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}
