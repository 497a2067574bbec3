package supervise

import (
	"errors"
	"testing"

	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/mpk"
	"repro/internal/obs"
	"repro/internal/pkalloc"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// world builds a gated runtime plus the forensics recorder a Heal-policy
// supervisor resolves sites through, mirroring what core.NewProgram wires.
func world(t *testing.T) (*ffi.Runtime, *ffi.Registry, *obs.Recorder) {
	t.Helper()
	space := vm.NewSpace()
	alloc, err := pkalloc.New(pkalloc.Config{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	reg := ffi.NewRegistry()
	rt := ffi.NewRuntime(reg, alloc, nil, ffi.GatesOn)
	rec := obs.NewRecorder(obs.Config{Space: space, TrustedKey: alloc.TrustedKey(), BuildConfig: "mpk"})
	rec.Install(rt.Sigs)
	return rt, reg, rec
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{Abort, Retry, Quarantine, Heal} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("self-destruct"); err == nil {
		t.Error("unknown policy accepted")
	}
	if p, err := ParsePolicy(""); err != nil || p != Abort {
		t.Errorf("empty policy = %v, %v; want Abort", p, err)
	}
}

func TestAbortPolicyYieldsNilSupervisor(t *testing.T) {
	if s := New(Config{Policy: Abort}, Deps{}); s != nil {
		t.Fatal("New with Abort policy returned a supervisor")
	}
	var s *Supervisor
	if s.Policy() != Abort || s.Healed(profile.AllocID{}) || s.Events() != nil {
		t.Error("nil supervisor accessors not inert")
	}
	// Nil Shield and Call are pass-throughs.
	rt, reg, _ := world(t)
	reg.MustLibrary("u", ffi.Untrusted).Define("id", func(_ *ffi.Thread, a []uint64) ([]uint64, error) {
		return a, nil
	})
	th := rt.NewThread()
	if res, err := s.Call(th, "u", "id", 7); err != nil || len(res) != 1 || res[0] != 7 {
		t.Errorf("nil supervisor Call = %v, %v", res, err)
	}
}

func TestRetryRecoverFlaky(t *testing.T) {
	rt, reg, rec := world(t)
	secret, err := rt.Alloc.Alloc(8) // MT: untrusted access faults
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	reg.MustLibrary("u", ffi.Untrusted).Define("flaky", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
		calls++
		if calls < 3 {
			_, e := th.Load64(secret) // PKUERR on first two attempts
			return nil, e
		}
		return []uint64{42}, nil
	})
	tel := telemetry.NewRegistry()
	s := New(Config{Policy: Retry}, Deps{Alloc: rt.Alloc, Recorder: rec, Telemetry: tel})
	th := rt.NewThread()
	res, err := s.Call(th, "u", "flaky")
	if err != nil || len(res) != 1 || res[0] != 42 {
		t.Fatalf("supervised call = %v, %v; want [42], nil", res, err)
	}
	if calls != 3 {
		t.Errorf("callee ran %d times, want 3", calls)
	}
	if th.Depth() != 0 || th.CurrentTrust() != ffi.Trusted || th.VM.Rights() != mpk.PermitAll {
		t.Errorf("thread state after recovery: depth=%d trust=%v rights=%v",
			th.Depth(), th.CurrentTrust(), th.VM.Rights())
	}
	ev := s.Events()
	if len(ev) != 2 || ev[0].Action != "retry" || ev[1].Action != "retry" {
		t.Errorf("events = %+v, want two retries", ev)
	}
}

func TestRetryExhaustionSurfacesCompartmentError(t *testing.T) {
	rt, reg, rec := world(t)
	secret, _ := rt.Alloc.Alloc(8)
	reg.MustLibrary("u", ffi.Untrusted).Define("always_faults", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
		_, e := th.Load64(secret)
		return nil, e
	})
	s := New(Config{Policy: Retry}, Deps{Alloc: rt.Alloc, Recorder: rec})
	th := rt.NewThread()
	_, err := s.Call(th, "u", "always_faults")
	var ce *CompartmentError
	if !errors.As(err, &ce) {
		t.Fatalf("error = %v, want *CompartmentError", err)
	}
	if ce.Outcome != OutcomeRetriesExceeded || ce.Attempts != MaxRetries+1 || ce.Policy != Retry {
		t.Errorf("CompartmentError = %+v", ce)
	}
	// The original fault stays reachable for forensics.
	var f *vm.Fault
	if !errors.As(err, &f) {
		t.Error("CompartmentError does not unwrap to *vm.Fault")
	}
	if th.Depth() != 0 || th.VM.Rights() != mpk.PermitAll {
		t.Error("thread not restored after exhausted retries")
	}
}

func TestOrdinaryErrorsPassThrough(t *testing.T) {
	rt, reg, rec := world(t)
	apiErr := errors.New("u: bad argument")
	calls := 0
	reg.MustLibrary("u", ffi.Untrusted).Define("api_error", func(*ffi.Thread, []uint64) ([]uint64, error) {
		calls++
		return nil, apiErr
	})
	s := New(Config{Policy: Retry}, Deps{Alloc: rt.Alloc, Recorder: rec})
	_, err := s.Call(rt.NewThread(), "u", "api_error")
	if !errors.Is(err, apiErr) {
		t.Fatalf("error = %v, want the callee's own error", err)
	}
	var ce *CompartmentError
	if errors.As(err, &ce) {
		t.Error("ordinary error wrapped in CompartmentError")
	}
	if calls != 1 {
		t.Errorf("ordinary error retried %d times", calls)
	}
}

func TestPanicRecoveredAndRetried(t *testing.T) {
	rt, reg, rec := world(t)
	calls := 0
	reg.MustLibrary("u", ffi.Untrusted).Define("crashy", func(*ffi.Thread, []uint64) ([]uint64, error) {
		calls++
		if calls == 1 {
			panic("segfault in C library")
		}
		return []uint64{1}, nil
	})
	s := New(Config{Policy: Retry}, Deps{Alloc: rt.Alloc, Recorder: rec})
	th := rt.NewThread()
	res, err := s.Call(th, "u", "crashy")
	if err != nil || len(res) != 1 {
		t.Fatalf("call after panic retry = %v, %v", res, err)
	}
	if th.Depth() != 0 || th.CurrentTrust() != ffi.Trusted {
		t.Error("gate invariants broken after recovered panic")
	}
}

func TestQuarantineResetsMUAndFailsCall(t *testing.T) {
	rt, reg, rec := world(t)
	secret, _ := rt.Alloc.Alloc(8)
	mu, err := rt.Alloc.UntrustedAlloc(16)
	if err != nil {
		t.Fatal(err)
	}
	reg.MustLibrary("u", ffi.Untrusted).Define("corrupt", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
		if e := th.Store64(mu, 0xbad); e != nil { // poison MU, allowed
			return nil, e
		}
		_, e := th.Load64(secret) // then die on MT
		return nil, e
	})
	s := New(Config{Policy: Quarantine}, Deps{Alloc: rt.Alloc, Recorder: rec})
	th := rt.NewThread()
	_, err = s.Call(th, "u", "corrupt")
	var ce *CompartmentError
	if !errors.As(err, &ce) || ce.Outcome != OutcomeQuarantined {
		t.Fatalf("error = %v, want quarantined CompartmentError", err)
	}
	if got := rt.Alloc.UntrustedEpoch(); got != 1 {
		t.Errorf("MU epoch = %d, want 1", got)
	}
	// Poisoned data is scrubbed and the pool serves fresh allocations.
	var buf [8]byte
	if err := rt.Alloc.Space().Peek(mu, buf[:]); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("MU bytes not scrubbed: %v", buf)
		}
	}
	if _, err := rt.Alloc.UntrustedAlloc(16); err != nil {
		t.Errorf("MU allocation after quarantine: %v", err)
	}
	if len(s.Events()) != 1 || s.Events()[0].Action != "quarantine" || s.Events()[0].Epoch != 1 {
		t.Errorf("events = %+v", s.Events())
	}
}

func TestHealMigratesSiteAndRetries(t *testing.T) {
	rt, reg, rec := world(t)
	id := profile.AllocID{Func: "main", Block: 0, Site: 1}
	obj, err := rt.Alloc.Alloc(64) // MT object the profile missed
	if err != nil {
		t.Fatal(err)
	}
	rec.LogAlloc(uint64(obj), 64, id) // what core.AllocAt does
	neighbour, _ := rt.Alloc.Alloc(vm.PageSize)

	calls := 0
	reg.MustLibrary("u", ffi.Untrusted).Define("write", func(th *ffi.Thread, a []uint64) ([]uint64, error) {
		calls++
		if e := th.Store64(vm.Addr(a[0]), 1337); e != nil {
			return nil, e
		}
		return nil, nil
	})
	tel := telemetry.NewRegistry()
	s := New(Config{Policy: Heal}, Deps{Alloc: rt.Alloc, Recorder: rec, Telemetry: tel})
	th := rt.NewThread()
	if _, err := s.Call(th, "u", "write", uint64(obj)); err != nil {
		t.Fatalf("healed call failed: %v", err)
	}
	if calls != 2 {
		t.Errorf("callee ran %d times, want 2 (fault, heal, retry)", calls)
	}
	// The same address now holds the untrusted write: healing is in place.
	var buf [8]byte
	if err := rt.Alloc.Space().Peek(obj, buf[:]); err != nil {
		t.Fatal(err)
	}
	if v := uint64(buf[0]) | uint64(buf[1])<<8; v != 1337 {
		t.Errorf("healed object = %d, want 1337", v)
	}
	// Site is recorded as healed with a one-entry profile delta.
	if !s.Healed(id) {
		t.Error("Healed(id) = false")
	}
	if d := s.Delta(); d.Len() != 1 || !d.Contains(id) {
		t.Errorf("delta = %v", d.IDs())
	}
	// The object's page became key 0; the neighbouring MT page kept key 1.
	if k, _ := rt.Alloc.Space().PKeyAt(obj); k != 0 {
		t.Errorf("healed page key = %d, want 0", k)
	}
	if k, _ := rt.Alloc.Space().PKeyAt(neighbour); k != rt.Alloc.TrustedKey() {
		t.Errorf("neighbour page key = %d, want trusted key", k)
	}
	// MT region ownership is intact: the healed pointer still frees.
	if err := rt.Alloc.Free(obj); err != nil {
		t.Errorf("free of healed object: %v", err)
	}
	// The event carries the crash report the run would have died with.
	ev := s.Events()
	if len(ev) != 1 || ev[0].Action != "heal" || ev[0].Site != id.String() {
		t.Fatalf("events = %+v", ev)
	}
	if ev[0].Averted == nil || ev[0].Averted.Fault.Code != "SEGV_PKUERR" {
		t.Errorf("averted report = %+v, want PKUERR forensics", ev[0].Averted)
	}
	if got := len(s.Averted()); got != 1 {
		t.Errorf("Averted() len = %d, want 1", got)
	}
}

func TestHealUnresolvableFallsBackToQuarantine(t *testing.T) {
	rt, reg, rec := world(t)
	secret, _ := rt.Alloc.Alloc(8) // never logged with the recorder
	reg.MustLibrary("u", ffi.Untrusted).Define("wild", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
		_, e := th.Load64(secret)
		return nil, e
	})
	s := New(Config{Policy: Heal}, Deps{Alloc: rt.Alloc, Recorder: rec})
	_, err := s.Call(rt.NewThread(), "u", "wild")
	var ce *CompartmentError
	if !errors.As(err, &ce) || ce.Outcome != OutcomeUnhealable {
		t.Fatalf("error = %v, want unhealable CompartmentError", err)
	}
	if rt.Alloc.UntrustedEpoch() != 1 {
		t.Error("unhealable failure did not quarantine MU")
	}
	if s.Delta().Len() != 0 {
		t.Error("unhealable failure produced a profile delta")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	rt, reg, rec := world(t)
	secret, _ := rt.Alloc.Alloc(8)
	reg.MustLibrary("u", ffi.Untrusted).Define("always_faults", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
		_, e := th.Load64(secret)
		return nil, e
	})
	s := New(Config{Policy: Retry}, Deps{Alloc: rt.Alloc, Recorder: rec})
	th := rt.NewThread()
	// Each exhausted call spends MaxRetries+1 recovery actions: one per
	// retry plus the one that finds the retries gone.
	perCall := MaxRetries + 1
	for i := 0; i < Budget/perCall; i++ {
		_, err := s.Call(th, "u", "always_faults")
		var ce *CompartmentError
		if !errors.As(err, &ce) || ce.Outcome != OutcomeRetriesExceeded {
			t.Fatalf("call %d: error = %v, want retries_exhausted", i, err)
		}
	}
	_, err := s.Call(th, "u", "always_faults")
	var ce *CompartmentError
	if !errors.As(err, &ce) || ce.Outcome != OutcomeBudgetExceeded || ce.Attempts != 1 {
		t.Fatalf("error = %v, want budget_exhausted on the first attempt", err)
	}
	if got := s.budgetRemaining(); got != 0 {
		t.Errorf("budgetRemaining = %d, want 0", got)
	}
}

// TestDomainQuarantineEscalates: every EscalateAfter-th quarantine of one
// domain's pool also scrubs the shared MU pool; the quarantines between
// leave MU alone.
func TestDomainQuarantineEscalates(t *testing.T) {
	rt, reg, rec := world(t)
	if _, err := rt.Alloc.AddDomainPool("tenantA", mpk.Key(8)); err != nil {
		t.Fatal(err)
	}
	secret, _ := rt.Alloc.Alloc(8)
	reg.MustLibrary("u", ffi.Untrusted).Define("always_faults", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
		_, e := th.Load64(secret)
		return nil, e
	})
	s := New(Config{Policy: Quarantine}, Deps{Alloc: rt.Alloc, Recorder: rec})
	tracer := gatetrace.New(gatetrace.Config{Capacity: 4})
	th := rt.NewThread()
	for n := 1; n <= 2*EscalateAfter; n++ {
		tc := tracer.Start("tenantA")
		th.SetTraceContext(tc)
		_, err := s.Call(th, "u", "always_faults")
		th.SetTraceContext(nil)
		tc.Finish()
		var ce *CompartmentError
		if !errors.As(err, &ce) || ce.Outcome != OutcomeQuarantined || ce.Domain != "tenantA" {
			t.Fatalf("quarantine %d: error = %v, want quarantined in tenantA", n, err)
		}
		if got, want := rt.Alloc.UntrustedEpoch(), uint64(n/EscalateAfter); got != want {
			t.Fatalf("after %d domain quarantines MU epoch = %d, want %d", n, got, want)
		}
	}
	if got := s.DomainQuarantines("tenantA"); got != 2*EscalateAfter {
		t.Errorf("DomainQuarantines = %d, want %d", got, 2*EscalateAfter)
	}
	if ep, _ := rt.Alloc.DomainEpoch("tenantA"); ep != 2*EscalateAfter {
		t.Errorf("tenantA epoch = %d, want %d", ep, 2*EscalateAfter)
	}
}

func TestRecoveryMetricsExported(t *testing.T) {
	rt, reg, rec := world(t)
	secret, _ := rt.Alloc.Alloc(8)
	calls := 0
	reg.MustLibrary("u", ffi.Untrusted).Define("once", func(th *ffi.Thread, _ []uint64) ([]uint64, error) {
		calls++
		if calls == 1 {
			_, e := th.Load64(secret)
			return nil, e
		}
		return nil, nil
	})
	tel := telemetry.NewRegistry()
	s := New(Config{Policy: Retry}, Deps{Alloc: rt.Alloc, Recorder: rec, Telemetry: tel})
	if _, err := s.Call(rt.NewThread(), "u", "once"); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	want := map[string]bool{
		"pkrusafe_recovery_attempts_total": false,
		"pkrusafe_recovery_actions_total":  false,
		"pkrusafe_recovery_outcomes_total": false,
	}
	for _, m := range snap.Metrics {
		if _, ok := want[m.Name]; ok {
			want[m.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metric %s not exported", name)
		}
	}
}
