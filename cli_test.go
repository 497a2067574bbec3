package repro

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTool compiles one command into a test temp dir and returns its path.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// TestCLIPipeline drives the shipped pkrusafe binary through the full E1
// flow on the example program: profile, enforced run, crash without the
// profile, static analysis, and the -trace crash dump.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	pkrusafe := buildTool(t, "pkrusafe")
	dir := t.TempDir()
	prof := filepath.Join(dir, "q.prof")
	src := "examples/pkir/quickstart.pkir"

	// Stage: profiling run writes the profile.
	out, err := exec.Command(pkrusafe, "profile", src, "-o", prof).CombinedOutput()
	if err != nil {
		t.Fatalf("profile: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "1337") || !strings.Contains(string(out), "1 shared allocation sites") {
		t.Errorf("profile output:\n%s", out)
	}
	if _, err := os.Stat(prof); err != nil {
		t.Fatal(err)
	}

	// Stage: enforced run with the profile succeeds.
	out, err = exec.Command(pkrusafe, "run", src, "-profile", prof).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "1337") || !strings.Contains(string(out), "mpk run returned") {
		t.Errorf("run output:\n%s", out)
	}

	// Stage: enforced run without the profile crashes, and -trace dumps
	// the gate context.
	out, err = exec.Command(pkrusafe, "run", src, "-trace", "8").CombinedOutput()
	if err == nil {
		t.Fatalf("unprofiled run should exit nonzero:\n%s", out)
	}
	for _, want := range []string{"program crashed", "SIGSEGV", "pkey=1", "gate-enter"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("crash output missing %q:\n%s", want, out)
		}
	}

	// Stage: static analysis produces an equivalent profile.
	sprof := filepath.Join(dir, "s.prof")
	out, err = exec.Command(pkrusafe, "analyze", src, "-o", sprof).CombinedOutput()
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "1 of 1 sites may escape") {
		t.Errorf("analyze output:\n%s", out)
	}
	out, err = exec.Command(pkrusafe, "run", src, "-profile", sprof).CombinedOutput()
	if err != nil {
		t.Fatalf("run with static profile: %v\n%s", err, out)
	}

	// Stage: build prints the instrumented IR with the rewrite visible.
	out, err = exec.Command(pkrusafe, "build", src, "-profile", prof).CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "ualloc 8") || !strings.Contains(string(out), "site=main@0.0") {
		t.Errorf("instrumented IR missing rewrite:\n%s", out)
	}
}

// TestCLIExploit runs the E3 binary end to end and checks both verdicts.
func TestCLIExploit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	exploit := buildTool(t, "pkru-exploit")
	out, err := exec.Command(exploit).CombinedOutput()
	if err != nil {
		t.Fatalf("pkru-exploit: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"CORRUPTED — attack succeeded",
		"MPK violation",
		"INTACT — attack blocked",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exploit output missing %q:\n%s", want, text)
		}
	}
}

// TestCLIExploitGolden pins the E3 binary's exact output for a fixed
// secret. The whole experiment is deterministic — fixed pool bases, fixed
// secret address, seedless exploit script — so the full transcript
// including the PKUERR decode must be byte-identical from run to run; any
// drift in the fault address, faulting key or decoded AD/WD bits is a
// semantics change, not noise.
func TestCLIExploitGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	const golden = `=== E3: exploit vs unprotected browser (servo-exploitable) ===
secret planted at 0x168000000000 = 42
running exploit script in the JavaScript engine...
exploit completed without a fault
secret at exit = 1337 (CORRUPTED — attack succeeded)

=== E3: exploit vs PKRU-Safe browser (servo-pkru) ===
secret planted at 0x168000000000 = 42
running exploit script in the JavaScript engine...
MPK violation: SIGSEGV code=100 addr=0x168000000000 access=write pkey=1
PKUERR decode: pkey1 rights=-- AD=true WD=true pkru=0x0000000c
process terminated by PKRU-Safe (simulated crash)
secret at exit = 42 (INTACT — attack blocked)
`
	exploit := buildTool(t, "pkru-exploit")
	for run := 0; run < 2; run++ {
		out, err := exec.Command(exploit, "-secret", "42").CombinedOutput()
		if err != nil {
			t.Fatalf("run %d: %v\n%s", run, err, out)
		}
		if string(out) != golden {
			t.Errorf("run %d output differs from golden:\n--- got ---\n%s--- want ---\n%s", run, out, golden)
		}
	}
}

// TestCLIAttackVerdictsGolden pins the Garmr attack corpus's verdict
// transcript byte for byte: the roster order, every class/defense pair,
// and the red/green drill outcomes are all deterministic, so any drift —
// a defense that stops killing its attack with the expected fault, an
// attack that loses its teeth with the defense off, a renamed class — is
// a semantics change, not noise.
func TestCLIAttackVerdictsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	const golden = `ATTACK class=rogue-wrpkru scenario=rogue-wrpkru defense=wrpkru-guard drill=red defense-mode=off breached=yes fault=none verdict=PASS
ATTACK class=rogue-wrpkru scenario=rogue-wrpkru defense=wrpkru-guard drill=green defense-mode=on breached=no fault=pkuerr verdict=PASS
ATTACK class=rogue-wrpkru scenario=exit-exfil defense=gate-exit-audit drill=red defense-mode=off breached=yes fault=none verdict=PASS
ATTACK class=rogue-wrpkru scenario=exit-exfil defense=gate-exit-audit drill=green defense-mode=on breached=no fault=gate-tampered verdict=PASS
ATTACK class=sigframe-tamper scenario=sigframe-tamper defense=sigframe-sanitizer drill=red defense-mode=off breached=yes fault=none verdict=PASS
ATTACK class=sigframe-tamper scenario=sigframe-tamper defense=sigframe-sanitizer drill=green defense-mode=on breached=no fault=pkuerr verdict=PASS
ATTACK class=stale-pkru scenario=migration-stale-pkru defense=migration-revalidation drill=red defense-mode=off breached=yes fault=none verdict=PASS
ATTACK class=stale-pkru scenario=migration-stale-pkru defense=migration-revalidation drill=green defense-mode=on breached=no fault=pkuerr verdict=PASS
ATTACK class=retag-race scenario=evict-retag-race defense=atomic-evict-retag drill=red defense-mode=off breached=yes fault=none verdict=PASS
ATTACK class=retag-race scenario=evict-retag-race defense=atomic-evict-retag drill=green defense-mode=on breached=no fault=pkuerr verdict=PASS
ATTACK class=retag-race scenario=slot-reuse defense=free-park-revoke drill=red defense-mode=off breached=yes fault=none verdict=PASS
ATTACK class=retag-race scenario=slot-reuse defense=free-park-revoke drill=green defense-mode=on breached=no fault=pkuerr verdict=PASS
ATTACK class=gate-bypass scenario=gate-exit-skip defense=gate-instrumentation drill=red defense-mode=off breached=yes fault=none verdict=PASS
ATTACK class=gate-bypass scenario=gate-exit-skip defense=gate-instrumentation drill=green defense-mode=on breached=no fault=pkuerr verdict=PASS
ATTACK class=confused-deputy scenario=confused-deputy defense=call-filter drill=red defense-mode=off breached=yes fault=none verdict=PASS
ATTACK class=confused-deputy scenario=confused-deputy defense=call-filter drill=green defense-mode=on breached=no fault=call-filtered verdict=PASS
`
	exploit := buildTool(t, "pkru-exploit")
	for run := 0; run < 2; run++ {
		out, err := exec.Command(exploit, "-attacks").CombinedOutput()
		if err != nil {
			t.Fatalf("run %d: %v\n%s", run, err, out)
		}
		if string(out) != golden {
			t.Errorf("run %d verdicts differ from golden:\n--- got ---\n%s--- want ---\n%s", run, out, golden)
		}
	}
}

// TestCLIAttackExitContract pins the -attacks exit-status contract: 0 when
// every drill passes, 2 for an unknown class (with the known classes
// listed), and a -class filter that selects exactly that class's drills.
// (Exit 1 — any drill failing — is covered at the package level by the
// attack harness's sabotage self-tests; it cannot be forced from the CLI
// without breaking a defense.)
func TestCLIAttackExitContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	exploit := buildTool(t, "pkru-exploit")

	// All classes pass: exit 0.
	if out, err := exec.Command(exploit, "-attacks").CombinedOutput(); err != nil {
		t.Fatalf("-attacks should exit 0: %v\n%s", err, out)
	}

	// A class filter runs only that class's drills.
	out, err := exec.Command(exploit, "-attacks", "-class", "retag-race").CombinedOutput()
	if err != nil {
		t.Fatalf("-class retag-race: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("retag-race filter printed %d lines, want 4 (2 scenarios x red+green):\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "ATTACK class=retag-race ") {
			t.Errorf("filtered line leaked another class: %q", l)
		}
	}

	// Unknown class: exit 2, listing the known classes.
	out, err = exec.Command(exploit, "-attacks", "-class", "nosuch").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("unknown class: err=%v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "known classes:") || !strings.Contains(string(out), "gate-bypass") {
		t.Errorf("unknown-class output should list the roster:\n%s", out)
	}

	// -class without -attacks is a usage error (exit 2).
	out, err = exec.Command(exploit, "-class", "retag-race").CombinedOutput()
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("-class without -attacks: err=%v, want exit status 2\n%s", err, out)
	}
}

// TestCLIConformAttacks runs the attack corpus through the shipped
// conformance binary — the CI entry point that must exit non-zero when
// any drill fails.
func TestCLIConformAttacks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	conform := buildTool(t, "pkru-conform")
	out, err := exec.Command(conform, "-attacks").CombinedOutput()
	if err != nil {
		t.Fatalf("pkru-conform -attacks: %v\n%s", err, out)
	}
	text := string(out)
	if got := strings.Count(text, "ATTACK class="); got != 16 {
		t.Errorf("verdict lines = %d, want 16:\n%s", got, text)
	}
	if !strings.Contains(text, "every attack has teeth, every defense holds") {
		t.Errorf("summary line missing:\n%s", text)
	}
}

// TestCLIProfileTools exercises pkru-profile show/merge/diff.
func TestCLIProfileTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	pkrusafe := buildTool(t, "pkrusafe")
	profTool := buildTool(t, "pkru-profile")
	dir := t.TempDir()
	dyn := filepath.Join(dir, "d.prof")
	static := filepath.Join(dir, "s.prof")
	merged := filepath.Join(dir, "m.prof")

	if out, err := exec.Command(pkrusafe, "profile", "examples/pkir/deadpath.pkir", "-o", dyn).CombinedOutput(); err != nil {
		t.Fatalf("profile: %v\n%s", err, out)
	}
	if out, err := exec.Command(pkrusafe, "analyze", "examples/pkir/deadpath.pkir", "-o", static).CombinedOutput(); err != nil {
		t.Fatalf("analyze: %v\n%s", err, out)
	}
	// The dead-path program: dynamic sees nothing, static sees one site.
	out, err := exec.Command(profTool, "diff", static, dyn).CombinedOutput()
	if err == nil {
		t.Fatalf("diff with missing sites should exit nonzero:\n%s", out)
	}
	if !strings.Contains(string(out), "main@0.0") {
		t.Errorf("diff output:\n%s", out)
	}
	if out, err := exec.Command(profTool, "merge", static, dyn, "-o", merged).CombinedOutput(); err != nil {
		t.Fatalf("merge: %v\n%s", err, out)
	} else if !strings.Contains(string(out), "1 shared sites") {
		t.Errorf("merge output:\n%s", out)
	}
	out, err = exec.Command(profTool, "show", merged).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "main@0.0") {
		t.Errorf("show = %v:\n%s", err, out)
	}
	// Subset direction exits zero.
	if out, err := exec.Command(profTool, "diff", dyn, merged).CombinedOutput(); err != nil {
		t.Errorf("subset diff should pass: %v\n%s", err, out)
	}
}

// TestCLICrashReport drives the black-box path: an unprofiled mpk run of
// the quickstart program dies on a pkey violation, and the binary must
// leave behind both the human-readable report on stderr and, with
// -crash-json, the schema-versioned JSON with every forensic field filled.
func TestCLICrashReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	pkrusafe := buildTool(t, "pkrusafe")
	crash := filepath.Join(t.TempDir(), "crash.json")

	out, err := exec.Command(pkrusafe, "run", "examples/pkir/quickstart.pkir", "-crash-json", crash).CombinedOutput()
	if err == nil {
		t.Fatalf("unprofiled run should exit nonzero:\n%s", out)
	}
	for _, want := range []string{
		"program crashed",
		"PKRU-safe crash report",
		"SEGV_PKUERR",
		"<- faulting key",
		"site=main@0.0",
		"compartment: untrusted (gate depth 1)",
		"pages around fault:",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("crash text missing %q:\n%s", want, out)
		}
	}

	data, err := os.ReadFile(crash)
	if err != nil {
		t.Fatalf("crash JSON not written: %v", err)
	}
	var rep struct {
		Schema int `json:"schema"`
		Fault  struct {
			Code string `json:"code"`
			PKey uint8  `json:"pkey"`
		} `json:"fault"`
		PKRU struct {
			Keys []struct {
				Key uint8 `json:"key"`
				AD  bool  `json:"ad"`
				WD  bool  `json:"wd"`
			} `json:"keys"`
		} `json:"pkru"`
		Pages []struct {
			Faulting bool  `json:"faulting"`
			PKey     uint8 `json:"pkey"`
		} `json:"pages"`
		Provenance struct {
			Found bool   `json:"found"`
			Site  string `json:"site"`
		} `json:"provenance"`
		Trace struct {
			Events []struct {
				Kind string `json:"kind"`
			} `json:"events"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("crash JSON: %v\n%s", err, data)
	}
	if rep.Schema != 1 {
		t.Errorf("schema = %d, want 1", rep.Schema)
	}
	if rep.Fault.Code != "SEGV_PKUERR" || rep.Fault.PKey != 1 {
		t.Errorf("fault = %+v, want SEGV_PKUERR on pkey 1", rep.Fault)
	}
	if len(rep.PKRU.Keys) != 16 {
		t.Fatalf("decoded %d pkru keys, want 16", len(rep.PKRU.Keys))
	}
	if k := rep.PKRU.Keys[1]; !k.AD || !k.WD {
		t.Errorf("pkey 1 rights = %+v, want ad and wd set", k)
	}
	var sawFaultingPage bool
	for _, p := range rep.Pages {
		if p.Faulting {
			sawFaultingPage = true
			if p.PKey != 1 {
				t.Errorf("faulting page pkey = %d, want 1", p.PKey)
			}
		}
	}
	if !sawFaultingPage {
		t.Error("no faulting page in JSON page map")
	}
	if !rep.Provenance.Found || rep.Provenance.Site != "main@0.0" {
		t.Errorf("provenance = %+v, want site main@0.0", rep.Provenance)
	}
	if len(rep.Trace.Events) == 0 {
		t.Error("trace tail empty in JSON report")
	}
}

// TestCLIListen verifies the live observability plane against a running
// workload: a spinning program keeps the interpreter busy while the test
// hits every endpoint on the address the binary announces, then the
// process is killed.
func TestCLIListen(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	pkrusafe := buildTool(t, "pkrusafe")
	spin := filepath.Join(t.TempDir(), "spin.pkir")
	const spinSrc = `module spin

export func main() {
entry:
  jmp loop
loop:
  jmp loop
}
`
	if err := os.WriteFile(spin, []byte(spinSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(pkrusafe, "run", spin, "-listen", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	// The binary announces the bound address before the workload starts.
	var base string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "observability server on "); i >= 0 {
			base = strings.TrimSpace(line[i+len("observability server on "):])
			break
		}
	}
	if base == "" {
		t.Fatalf("server address never announced (scanner err %v)", sc.Err())
	}

	client := &http.Client{Timeout: 5 * time.Second}
	for path, want := range map[string]string{
		"/healthz":             "ok",
		"/metrics":             "# TYPE",
		"/snapshot.json":       `"schema"`,
		"/trace":               "",
		"/debug/pprof/cmdline": "pkrusafe",
	} {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body := make([]byte, 1<<16)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(string(body[:n]), want) {
			t.Errorf("GET %s body missing %q:\n%s", path, want, body[:n])
		}
	}
}

// TestCLIServo runs the browser simulator binary end to end in its
// self-profiling mpk mode.
func TestCLIServo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	servo := buildTool(t, "pkru-servo")
	out, err := exec.Command(servo, "-config", "mpk").CombinedOutput()
	if err != nil {
		t.Fatalf("pkru-servo: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"script result: 7", "config=mpk", "shared-sites="} {
		if !strings.Contains(text, want) {
			t.Errorf("servo output missing %q:\n%s", want, text)
		}
	}
	// Base config runs too, without gates.
	out, err = exec.Command(servo, "-config", "base").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "transitions=0") {
		t.Errorf("base servo: %v\n%s", err, out)
	}
}

// TestCLIRecoverHeal drives the supervisor's headline contrast on the
// quickstart program run without a profile: the default policy dies on
// the PKUERR while -recover=heal completes, prints the exact "crash
// averted" report (the whole run is deterministic — fixed pool bases,
// fixed site IDs — so the report is golden), persists the healed-site
// profile delta, and exports the recovery counters in -metrics-json.
func TestCLIRecoverHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	pkrusafe := buildTool(t, "pkrusafe")
	src := "examples/pkir/quickstart.pkir"
	dir := t.TempDir()

	// Fail-stop baseline: same program, same missing profile, exit 1.
	if out, err := exec.Command(pkrusafe, "run", src, "-recover", "abort").CombinedOutput(); err == nil {
		t.Fatalf("-recover=abort should exit nonzero:\n%s", out)
	}

	healed := filepath.Join(dir, "healed.prof")
	metrics := filepath.Join(dir, "metrics.json")
	cmd := exec.Command(pkrusafe, "run", src, "-recover", "heal", "-heal-out", healed, "-metrics-json", metrics)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("-recover=heal should exit zero: %v\n%s", err, stderr.String())
	}
	if got := stdout.String(); got != "1337\n" {
		t.Errorf("healed run stdout = %q, want \"1337\\n\"", got)
	}
	const goldenStderr = `pkrusafe: crash averted: 1 recovery action(s) under policy heal
pkrusafe:   #1 heal ir/untrusted.clib_write site=main@0.0
pkrusafe:       would have died: write SEGV_PKUERR at 0x200000000000 (pkey 1)
pkrusafe: healed 1 allocation site(s): main@0.0
pkrusafe: crossings: 2 sampled, 1 allocation site(s) attributed: main@0.0
pkrusafe: mpk run returned [1337] (2 transitions)
`
	if got := stderr.String(); got != goldenStderr {
		t.Errorf("crash-averted report differs from golden:\n--- got ---\n%s--- want ---\n%s", got, goldenStderr)
	}

	// The persisted delta round-trips: with it applied, the enforced run
	// needs no recovery at all.
	out, err := exec.Command(pkrusafe, "run", src, "-profile", healed, "-recover", "abort").CombinedOutput()
	if err != nil {
		t.Fatalf("run with healed profile: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "crash averted") {
		t.Errorf("healed-profile run should not need recovery:\n%s", out)
	}

	// Recovery outcomes are visible in the metrics export.
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics JSON not written: %v", err)
	}
	var snap struct {
		Metrics []struct {
			Name   string `json:"name"`
			Series []struct {
				LabelValues []string `json:"label_values"`
				Value       float64  `json:"value"`
			} `json:"series"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, data)
	}
	got := map[string]float64{}
	for _, m := range snap.Metrics {
		for _, s := range m.Series {
			key := m.Name
			if len(s.LabelValues) > 0 {
				key += "{" + strings.Join(s.LabelValues, ",") + "}"
			}
			got[key] = s.Value
		}
	}
	for key, want := range map[string]float64{
		"pkrusafe_recovery_attempts_total":            2,
		"pkrusafe_recovery_outcomes_total{recovered}": 1,
		"pkrusafe_recovery_actions_total{heal}":       1,
		"pkrusafe_recovery_healed_sites_total":        1,
	} {
		if got[key] != want {
			t.Errorf("metric %s = %v, want %v", key, got[key], want)
		}
	}
}

// TestCLIServoRecover checks request-level isolation in the browser
// binary: with a deliberately empty profile every request's script dies
// in the engine, and under -recover=quarantine each is dropped while the
// service survives (exit 0), whereas -recover=heal migrates the missed
// sites so later requests simply succeed.
func TestCLIServoRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	servo := buildTool(t, "pkru-servo")
	empty := filepath.Join(t.TempDir(), "empty.prof")
	if err := os.WriteFile(empty, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(servo, "-config", "mpk", "-profile", empty, "-requests", "2",
		"-recover", "quarantine").CombinedOutput()
	if err != nil {
		t.Fatalf("quarantine run should survive dropped requests: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"request 1/2 dropped (quarantined)",
		"request 2/2 dropped (quarantined)",
		"crash averted: served 0/2 request(s), dropped 2 under policy quarantine",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("quarantine output missing %q:\n%s", want, text)
		}
	}

	out, err = exec.Command(servo, "-config", "mpk", "-profile", empty, "-requests", "2",
		"-recover", "heal").CombinedOutput()
	if err != nil {
		t.Fatalf("heal run: %v\n%s", err, out)
	}
	if got := strings.Count(string(out), "script result:"); got != 2 {
		t.Errorf("healed servo served %d/2 requests:\n%s", got, out)
	}
}

// TestCLIServoResilienceGolden pins the containment verdict byte for
// byte. The hostile run is fully deterministic — one worker per domain,
// round-robin tenant selection, churn off, a probe backoff longer than
// the run so the tripped breaker never half-opens — so the hostile
// tenant takes exactly 12 requests: 3 fault (tripping the breaker at
// the default threshold), 9 shed at admission, 3 quarantine epochs on
// its pool alone, while the 7 healthy tenants complete 84/84. Any drift
// in these numbers is a containment-semantics change, not noise.
func TestCLIServoResilienceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	const golden = `resilience: hostile=tenant003 requests=12 faulted=3 shed=9 breaker=open trips=1
resilience: hostile-epochs=3 healthy-pools-bumped=0
resilience: healthy tenants=7 ok=84 dropped=0 leaks=0 breaches=0
resilience: verdict CONTAINED
`
	servo := buildTool(t, "pkru-servo")
	for run := 0; run < 2; run++ {
		out, err := exec.Command(servo, "-domains=8", "-domain-workers=1",
			"-domain-cycles=96", "-hostile=tenant003", "-churn=false",
			"-breaker-probe-after=1h", "-recover=quarantine").CombinedOutput()
		if err != nil {
			t.Fatalf("run %d: %v\n%s", run, err, out)
		}
		var verdict strings.Builder
		for _, line := range strings.SplitAfter(string(out), "\n") {
			if strings.HasPrefix(line, "resilience:") {
				verdict.WriteString(line)
			}
		}
		if verdict.String() != golden {
			t.Errorf("run %d verdict differs from golden:\n--- got ---\n%s--- want ---\n%s\n--- full output ---\n%s",
				run, verdict.String(), golden, out)
		}
	}
}

// TestCLIServoHostileSheds checks the admission-control contract from
// the outside: a shed hostile request must be refused before any gate
// opens (the shed counter moves, the hostile tenant's ok-count does
// not), and an open breaker must not bleed into the exit status as long
// as containment holds.
func TestCLIServoHostileSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	servo := buildTool(t, "pkru-servo")
	out, err := exec.Command(servo, "-domains=8", "-domain-workers=1",
		"-domain-cycles=96", "-hostile=tenant003", "-churn=false",
		"-breaker-probe-after=1h", "-recover=quarantine").CombinedOutput()
	if err != nil {
		t.Fatalf("contained hostile run must exit zero: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "shed=9") || !strings.Contains(text, "breaker=open") {
		t.Errorf("hostile run did not shed behind an open breaker:\n%s", text)
	}
	// Usage errors exit 2 before any tenant is built: the -domains-only
	// flags without -domains, and a -hostile naming no tenant.
	for _, args := range [][]string{
		{"-hostile=tenant003"},
		{"-config", "mpk", "-inject-fault", "40"},
		{"-churn=false"},
		{"-breaker-probe-after=1h"},
		{"-domain-workers=2"},
		{"-domain-cycles=10"},
		{"-sample-interval=4"},
		{"-domains=8", "-hostile=tenant999"},
	} {
		out, err = exec.Command(servo, args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%v: err=%v, want exit status 2\n%s", args, err, out)
		}
		if strings.Contains(string(out), "domains=") || strings.Contains(string(out), "script result") {
			t.Errorf("%v: ran the workload before rejecting it:\n%s", args, out)
		}
	}
}

// TestCLIConformSupervised runs the supervised-gate drill through the
// shipped conformance binary.
func TestCLIConformSupervised(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	conform := buildTool(t, "pkru-conform")
	out, err := exec.Command(conform, "-supervised").CombinedOutput()
	if err != nil {
		t.Fatalf("pkru-conform -supervised: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "supervised-gate drill") {
		t.Errorf("drill output:\n%s", out)
	}
}

// TestCLIServoProfileRollout drives the continuous-profiling closed loop
// through the shipped binary: a fresh store bootstraps at the empty seed
// generation, the healed delta commits as a candidate, the staged rollout
// promotes it, and the promoted state lands in the store file, the
// metrics snapshot (pkrusafe_profile_generation gauge) and the trace dump
// (crossing + profile-swap events). A second run over the saved store
// must find nothing left to heal.
func TestCLIServoProfileRollout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	servo := buildTool(t, "pkru-servo")
	dir := t.TempDir()
	store := filepath.Join(dir, "store.json")
	metrics := filepath.Join(dir, "metrics.json")
	traceOut := filepath.Join(dir, "trace.txt")

	out, err := exec.Command(servo, "-config", "mpk", "-profile-store", store,
		"-shadow-frac", "0.5", "-requests", "4", "-recover", "heal",
		"-metrics-json", metrics, "-trace-out", traceOut).CombinedOutput()
	if err != nil {
		t.Fatalf("rollout run: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"applying generation 0 (0 site(s))",
		"crossings:",
		"committed candidate generation 1 (source heal,",
		"candidate 1 promoted",
		"(control 1/2 faulted, shadow 0/2)",
		"profile store saved to",
		"(2 generation(s), active 1)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rollout output missing %q:\n%s", want, text)
		}
	}

	// The persisted store serves generation 1 as active.
	data, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	var saved struct {
		Schema      int `json:"schema"`
		Active      int `json:"active"`
		Generations []struct {
			Source string `json:"source"`
		} `json:"generations"`
	}
	if err := json.Unmarshal(data, &saved); err != nil {
		t.Fatal(err)
	}
	if saved.Schema != 1 || saved.Active != 1 || len(saved.Generations) != 2 || saved.Generations[1].Source != "heal" {
		t.Errorf("saved store = %+v", saved)
	}

	// The generation gauge exported the promoted sequence, and the shadow
	// arms were accounted.
	mdata, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Metrics []struct {
			Name   string `json:"name"`
			Series []struct {
				Value       float64  `json:"value"`
				LabelValues []string `json:"label_values"`
			} `json:"series"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(mdata, &snap); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, m := range snap.Metrics {
		switch m.Name {
		case "pkrusafe_profile_generation":
			found[m.Name] = true
			if len(m.Series) != 1 || m.Series[0].Value != 1 {
				t.Errorf("generation gauge = %+v, want value 1", m.Series)
			}
		case "pkrusafe_profile_shadow_requests_total":
			found[m.Name] = true
			for _, s := range m.Series {
				if s.Value != 2 {
					t.Errorf("shadow request series = %+v, want 2 per arm", m.Series)
				}
			}
		case "pkrusafe_profile_crossings_total", "pkrusafe_profile_samples_total":
			found[m.Name] = true
		}
	}
	for _, name := range []string{
		"pkrusafe_profile_generation",
		"pkrusafe_profile_shadow_requests_total",
		"pkrusafe_profile_crossings_total",
		"pkrusafe_profile_samples_total",
	} {
		if !found[name] {
			t.Errorf("metrics snapshot missing %s", name)
		}
	}

	// The trace dump shows the loop: attributed crossings, then the swap.
	tdata, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"crossing", "profile-swap generation=1 prev=0 source=heal"} {
		if !strings.Contains(string(tdata), want) {
			t.Errorf("trace dump missing %q:\n%s", want, tdata)
		}
	}

	// Second run over the promoted store: nothing to heal, no new
	// generation, active stands.
	out, err = exec.Command(servo, "-config", "mpk", "-profile-store", store,
		"-shadow-frac", "0.5", "-requests", "2", "-recover", "heal").CombinedOutput()
	if err != nil {
		t.Fatalf("second run: %v\n%s", err, out)
	}
	text = string(out)
	for _, want := range []string{
		"applying generation 1",
		"no heal delta; generation 1 stands",
		"(2 generation(s), active 1)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("second run missing %q:\n%s", want, text)
		}
	}
}

// TestCLIProfileStoreDiffGolden pins pkru-profile's store-diff rendering
// byte for byte on a fixed store: the added/removed/retained sections and
// the re-tighten proposals are all deterministic (sorted sites, explicit
// counts), so any drift is a semantics change. A non-empty re-tighten
// section exits 1, mirroring the plain diff's missing-sites contract.
func TestCLIProfileStoreDiffGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	profTool := buildTool(t, "pkru-profile")
	store := filepath.Join(t.TempDir(), "store.json")
	const fixture = `{
  "schema": 1,
  "active": 1,
  "generations": [
    {"seq": 0, "parent": -1, "source": "seed",
     "sites": {"a@0.0": {"faults": 1, "bytes": 64}, "b@0.0": {"faults": 1, "bytes": 32}}},
    {"seq": 1, "parent": 0, "source": "merge",
     "sites": {"a@0.0": {"faults": 2, "bytes": 128}, "c@1.0": {"faults": 1, "bytes": 16}}}
  ],
  "last_seen": {"a@0.0": 0, "b@0.0": 0, "c@1.0": 1}
}`
	if err := os.WriteFile(store, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	const golden = `store diff: generation 0 -> 1
added (1):
  + c@1.0
removed (1):
  - b@0.0
retained (1):
  = a@0.0
re-tighten candidates (window 1, proposed MU->MT demotions) (1):
  ~ a@0.0 last crossed in generation 0
`
	for run := 0; run < 2; run++ {
		out, err := exec.Command(profTool, "diff", "-store", store, "-window", "1").CombinedOutput()
		if err == nil {
			t.Fatalf("run %d: diff with re-tighten proposals should exit nonzero:\n%s", run, out)
		}
		if string(out) != golden {
			t.Errorf("run %d output differs from golden:\n--- got ---\n%s--- want ---\n%s", run, out, golden)
		}
	}
	// A window wide enough to clear the proposals exits zero.
	if out, err := exec.Command(profTool, "diff", "-store", store, "-window", "5").CombinedOutput(); err != nil {
		t.Errorf("wide-window diff should pass: %v\n%s", err, out)
	}
}
