package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gatetrace"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/profstore"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("obs_test_hits_total", "Test counter.").Add(7)
	ring := trace.NewRing(8)
	ring.Emit(trace.Event{Kind: trace.GateEnter, Note: "clib"})

	srv, err := obs.ListenAndServe("127.0.0.1:0", obs.ServerConfig{Registry: reg, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	base := srv.URL()

	code, body, _ := get(t, base+"/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body, hdr := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, "obs_test_hits_total 7") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}

	code, body, hdr = get(t, base+"/snapshot.json")
	if code != 200 || !strings.Contains(body, `"obs_test_hits_total"`) {
		t.Errorf("/snapshot.json = %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/snapshot.json content-type = %q", ct)
	}

	code, body, _ = get(t, base+"/trace")
	if code != 200 || !strings.Contains(body, "gate-enter") {
		t.Errorf("/trace = %d %q", code, body)
	}

	code, _, _ = get(t, base+"/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}

	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	// Idempotent close.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestServerNilBackends(t *testing.T) {
	srv, err := obs.ListenAndServe("127.0.0.1:0", obs.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body, _ := get(t, srv.URL()+"/metrics")
	if code != 200 || body != "" {
		t.Errorf("/metrics without registry = %d %q, want empty 200", code, body)
	}
	code, body, _ = get(t, srv.URL()+"/trace")
	if code != 200 || !strings.Contains(body, "no trace ring") {
		t.Errorf("/trace without ring = %d %q", code, body)
	}
}

// TestServerTenantsEndpoint covers /tenants.json: with a callback it
// serves the per-tenant containment view live (every GET re-invokes the
// callback), and without one it is a 404, matching the other optional
// backends' fail-soft convention.
func TestServerTenantsEndpoint(t *testing.T) {
	type view struct {
		Breakers []string          `json:"breakers"`
		Epochs   map[string]uint64 `json:"epochs"`
	}
	calls := 0
	srv, err := obs.ListenAndServe("127.0.0.1:0", obs.ServerConfig{
		Tenants: func() any {
			calls++
			return view{
				Breakers: []string{"tenant003:open"},
				Epochs:   map[string]uint64{"tenant003": uint64(calls)},
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body, hdr := get(t, srv.URL()+"/tenants.json")
	if code != 200 {
		t.Fatalf("/tenants.json = %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/tenants.json content-type = %q", ct)
	}
	var got view
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/tenants.json body: %v\n%s", err, body)
	}
	if len(got.Breakers) != 1 || got.Breakers[0] != "tenant003:open" || got.Epochs["tenant003"] != 1 {
		t.Errorf("/tenants.json = %+v", got)
	}

	// The view is live, not a snapshot taken at server start.
	_, body, _ = get(t, srv.URL()+"/tenants.json")
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.Epochs["tenant003"] != 2 {
		t.Errorf("second GET epoch = %d, want 2 (callback re-invoked)", got.Epochs["tenant003"])
	}

	// No callback configured: 404.
	bare, err := obs.ListenAndServe("127.0.0.1:0", obs.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if code, _, _ := get(t, bare.URL()+"/tenants.json"); code != 404 {
		t.Errorf("/tenants.json without callback = %d, want 404", code)
	}
}

func TestServerShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := obs.ListenAndServe("127.0.0.1:0", obs.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _ = get(t, srv.URL()+"/healthz"); false {
		t.Fatal("unreachable")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The accept loop and any handler goroutines wind down asynchronously
	// after Shutdown returns; give the scheduler a moment.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines %d -> %d after Close", before, runtime.NumGoroutine())
}

func TestServerBadAddress(t *testing.T) {
	if _, err := obs.ListenAndServe("256.0.0.1:bad", obs.ServerConfig{}); err == nil {
		t.Error("ListenAndServe accepted a bad address")
	}
	var nilSrv *obs.Server
	if err := nilSrv.Close(); err != nil {
		t.Errorf("nil server Close: %v", err)
	}
}

func TestServerProfileEndpoints(t *testing.T) {
	store := profstore.New()
	a := profile.AllocID{Func: "a", Block: 0, Site: 0}
	delta := profile.New()
	delta.Add(a, 64)
	gen := store.Commit(delta, "heal")
	if err := store.Promote(gen.Seq); err != nil {
		t.Fatal(err)
	}
	rollout := profstore.NewRollout(store, 0.5, nil)

	srv, err := obs.ListenAndServe("127.0.0.1:0", obs.ServerConfig{Profiles: store, Rollout: rollout})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := srv.URL()

	code, body, hdr := get(t, base+"/profile")
	if code != 200 {
		t.Fatalf("/profile = %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/profile content-type = %q", ct)
	}
	var view struct {
		Schema int    `json:"schema"`
		Active int    `json:"active"`
		Source string `json:"source"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("/profile is not JSON: %v\n%s", err, body)
	}
	if view.Schema != profstore.StoreSchema || view.Active != 1 || view.Source != "heal" {
		t.Errorf("/profile view = %+v", view)
	}
	if !strings.Contains(body, `"a@0.0"`) {
		t.Errorf("/profile missing site: %s", body)
	}

	// The default diff compares the active generation against its parent,
	// and repeated requests are byte-identical.
	code, diff1, _ := get(t, base+"/profile/diff")
	if code != 200 {
		t.Fatalf("/profile/diff = %d %q", code, diff1)
	}
	_, diff2, _ := get(t, base+"/profile/diff")
	if diff1 != diff2 {
		t.Error("/profile/diff is not deterministic across requests")
	}
	var d struct {
		Schema int      `json:"schema"`
		From   int      `json:"from"`
		To     int      `json:"to"`
		Added  []string `json:"added"`
	}
	if err := json.Unmarshal([]byte(diff1), &d); err != nil {
		t.Fatalf("/profile/diff is not JSON: %v\n%s", err, diff1)
	}
	if d.Schema != profstore.StoreSchema || d.From != 0 || d.To != 1 || len(d.Added) != 1 || d.Added[0] != "a@0.0" {
		t.Errorf("/profile/diff = %+v", d)
	}

	if code, body, _ := get(t, base+"/profile/diff?from=nope"); code != 400 {
		t.Errorf("/profile/diff?from=nope = %d %q", code, body)
	}
	if code, body, _ := get(t, base+"/profile/diff?to=99"); code != 400 {
		t.Errorf("/profile/diff?to=99 = %d %q", code, body)
	}

	code, body, _ = get(t, base+"/profile/shadow")
	if code != 200 {
		t.Fatalf("/profile/shadow = %d %q", code, body)
	}
	var st struct {
		Schema int    `json:"schema"`
		State  string `json:"state"`
		Active int    `json:"active"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/profile/shadow is not JSON: %v\n%s", err, body)
	}
	if st.Schema != profstore.RolloutSchema || st.State != "idle" || st.Active != 1 {
		t.Errorf("/profile/shadow = %+v", st)
	}
}

// TestServerProfileEndpointsAbsent pins the contract divergence: unlike
// /metrics and /trace (which stay 200 with empty content), the profile
// endpoints 404 when no store or rollout is attached.
func TestServerProfileEndpointsAbsent(t *testing.T) {
	srv, err := obs.ListenAndServe("127.0.0.1:0", obs.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/profile", "/profile/diff", "/profile/shadow"} {
		if code, body, _ := get(t, srv.URL()+path); code != 404 {
			t.Errorf("%s without a store = %d %q, want 404", path, code, body)
		}
	}
}

func TestServerTraceJSONEndpoint(t *testing.T) {
	tr := gatetrace.New(gatetrace.Config{RetainAll: true})
	c := tr.Start("tenant-a")
	enter := time.Now()
	c.MarkFault("pkey fault at 0x2000")
	c.Gate("libu", enter, time.Since(enter))
	c.Finish()

	srv, err := obs.ListenAndServe("127.0.0.1:0", obs.ServerConfig{Traces: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body, hdr := get(t, srv.URL()+"/trace.json")
	if code != 200 {
		t.Fatalf("/trace.json = %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/trace.json content-type = %q", ct)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace.json is not JSON: %v\n%s", err, body)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var sawGate, sawFault bool
	for _, ev := range doc.TraceEvents {
		if ev.Name == "gate:libu" && ev.Phase == "X" {
			sawGate = true
		}
		if ev.Name == "fault" && ev.Phase == "i" {
			sawFault = true
		}
	}
	if !sawGate || !sawFault {
		t.Errorf("trace events missing gate/fault rows: %s", body)
	}
}

func TestServerDomainsJSONEndpoint(t *testing.T) {
	type snap struct {
		Slots     int      `json:"slots"`
		Evictions uint64   `json:"evictions"`
		Names     []string `json:"names"`
	}
	srv, err := obs.ListenAndServe("127.0.0.1:0", obs.ServerConfig{
		Domains: func() any { return snap{Slots: 13, Evictions: 4, Names: []string{"a", "b"}} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body, hdr := get(t, srv.URL()+"/domains.json")
	if code != 200 {
		t.Fatalf("/domains.json = %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/domains.json content-type = %q", ct)
	}
	var got snap
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/domains.json is not JSON: %v\n%s", err, body)
	}
	if got.Slots != 13 || got.Evictions != 4 || len(got.Names) != 2 {
		t.Errorf("/domains.json = %+v", got)
	}
}

// Like the profile endpoints, /trace.json and /domains.json 404 when
// their backing config is absent.
func TestServerTraceAndDomainsAbsent(t *testing.T) {
	srv, err := obs.ListenAndServe("127.0.0.1:0", obs.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/trace.json", "/domains.json"} {
		if code, body, _ := get(t, srv.URL()+path); code != 404 {
			t.Errorf("%s without backing = %d %q, want 404", path, code, body)
		}
	}
}
