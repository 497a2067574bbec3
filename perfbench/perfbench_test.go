package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{
		{1, 10}, {10, 10}, {11, 20}, {50, 50}, {50.1, 60}, {90, 90}, {99, 100}, {100, 100},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
	// p99 of 1000 samples is the 990th smallest: ten samples lie beyond it.
	big := make([]int64, 1000)
	for i := range big {
		big[i] = int64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
}

func TestMedians(t *testing.T) {
	if got := medianOf([]int64{5, 1, 3}); got != 3 {
		t.Errorf("medianOf = %d, want 3", got)
	}
	xs := []int64{4, 1, 3, 2}
	medianOf(xs)
	if !reflect.DeepEqual(xs, []int64{4, 1, 3, 2}) {
		t.Errorf("medianOf reordered its input: %v", xs)
	}
	if got := medianF([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianF = %v, want 2.5", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestSequencesDeterministicPerSeed(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if !reflect.DeepEqual(kindSequence(seed, 8, 800), kindSequence(seed, 8, 800)) {
			t.Fatalf("seed %d: kind sequences differ", seed)
		}
		a, b := tenantSequence(seed, 32, 4096), tenantSequence(seed, 32, 4096)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: tenant sequences differ", seed)
		}
		if !reflect.DeepEqual(churnSequence(seed, 32, 64), churnSequence(seed, 32, 64)) {
			t.Fatalf("seed %d: churn sequences differ", seed)
		}
		if !reflect.DeepEqual(probeSequence(seed, a, 32), probeSequence(seed, b, 32)) {
			t.Fatalf("seed %d: probe sequences differ", seed)
		}
	}
	if reflect.DeepEqual(tenantSequence(1, 32, 4096), tenantSequence(2, 32, 4096)) {
		t.Error("seeds 1 and 2 give the same tenant sequence")
	}
	if reflect.DeepEqual(churnSequence(1, 32, 64), churnSequence(2, 32, 64)) {
		t.Error("seeds 1 and 2 give the same churn sequence")
	}
	// A longer sequence extends a shorter one of the same seed.
	if !reflect.DeepEqual(tenantSequence(5, 32, 100), tenantSequence(5, 32, 200)[:100]) {
		t.Error("tenant sequence prefix depends on its length")
	}
}

func TestKindSequenceIsBlockPermutations(t *testing.T) {
	const kinds = 6
	seq := kindSequence(9, kinds, kinds*50)
	for b := 0; b < len(seq); b += kinds {
		seen := map[int]bool{}
		for _, k := range seq[b : b+kinds] {
			if k < 0 || k >= kinds || seen[k] {
				t.Fatalf("block at %d is not a permutation: %v", b, seq[b:b+kinds])
			}
			seen[k] = true
		}
	}
}

func TestTenantSequenceSkewAndProbes(t *testing.T) {
	seq := tenantSequence(3, 32, 1<<14)
	hits := make([]int, 32)
	for _, i := range seq {
		if i < 0 || i >= 32 {
			t.Fatalf("tenant %d out of range", i)
		}
		hits[i]++
	}
	max := 0
	for _, h := range hits {
		if h > max {
			max = h
		}
	}
	// Zipf(1.2) over 32 ranks puts about a third of requests on the top rank.
	if share := float64(max) / float64(len(seq)); share < 0.2 || share > 0.5 {
		t.Errorf("hottest tenant takes %.2f of requests, want a Zipf(1.2) head", share)
	}
	for i, p := range probeSequence(3, seq, 32) {
		if p == seq[i] || p < 0 || p >= 32 {
			t.Fatalf("request %d of tenant %d probes %d", i, seq[i], p)
		}
	}
}

func TestRecorderSelfTimes(t *testing.T) {
	r := newRecorder()
	root := r.begin(spOp)
	a := r.begin(spShield)
	b := r.begin(spCallHit)
	r.end(b)
	r.end(a)
	r.end(root)
	// Fix the times so self times are exact.
	r.cur[root].start, r.cur[root].end = 0, 100
	r.cur[a].start, r.cur[a].end = 10, 60
	r.cur[b].start, r.cur[b].end = 20, 50
	r.rename(b, spCallMiss)
	r.finishOp()
	for _, c := range []struct {
		n    spanName
		want float64
	}{{spOp, 50}, {spShield, 20}, {spCallMiss, 30}, {spCallHit, 0}} {
		if got := r.selfMedian(c.n); got != c.want {
			t.Errorf("self time of %v = %v, want %v", c.n, got, c.want)
		}
	}
	if len(r.kept) != 3 || r.kept[1].parent != 0 || r.kept[2].parent != 1 {
		t.Errorf("kept spans = %+v", r.kept)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin(spOp))
	nilRec.finishOp()
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	tl.record(nil)
	tl.record(errors.New("mismatch"))
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("tally = %+v", tl)
	}
	res := finish(metrics{}, &tl, true)
	if res.Correct || res.Failed != 1 {
		t.Errorf("a failed op must make the result incorrect: %+v", res)
	}
	if res := finish(metrics{}, &tally{}, true); res.Correct || res.Attempted < 1 {
		t.Errorf("a run with no ops must not pass: %+v", res)
	}
}

func TestTenantOpChecksValueAndDenial(t *testing.T) {
	w, err := buildTenantWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 64; i++ {
		if err := w.op(i, nil); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// A corrupted tenant buffer must fail the read check.
	ti := w.seq[64%len(w.seq)]
	if err := w.setup.Store64(w.bufs[ti], 0xbad); err != nil {
		t.Fatal(err)
	}
	if err := w.op(64, nil); err == nil || !strings.Contains(err.Error(), "read") {
		t.Errorf("corrupted buffer: op error = %v, want a read mismatch", err)
	}
	// A probe that is not denied is a leak and fails the op.
	ti, pi := w.seq[65%len(w.seq)], w.probes[65%len(w.probes)]
	shared, err := w.m.AllocShared(64)
	if err != nil {
		t.Fatal(err)
	}
	w.bufs[pi] = shared
	if pi == ti {
		t.Fatal("probe targets the requesting tenant")
	}
	if err := w.op(65, nil); err == nil || !strings.Contains(err.Error(), "leak") {
		t.Errorf("readable probe: op error = %v, want a leak", err)
	}
}

func TestTenantCountsRepeat(t *testing.T) {
	var got [2][3]any
	for r := range got {
		w, err := buildTenantWorld(7)
		if err != nil {
			t.Fatal(err)
		}
		vk, c, retained, err := w.probeCounts(2048)
		if err != nil {
			t.Fatal(err)
		}
		got[r] = [3]any{vk, c, retained}
		if c.pkuFaults != 2048 || c.transitions != 2048 {
			t.Errorf("counts over 2048 requests = %+v, want one fault and one transition each", c)
		}
		if vk.SlotMisses == 0 || vk.SlotHits == 0 || vk.Evictions == 0 {
			t.Errorf("vkey stats %+v: both the hit and the miss path must be used", vk)
		}
	}
	if got[0] != got[1] {
		t.Errorf("exact counts differ between two worlds of one seed: %v vs %v", got[0], got[1])
	}
}

func TestBrowserOpDetectsWrongValue(t *testing.T) {
	kinds := []kindSpec{{"dom-attr", 3}, {"v8-richards", 1}}
	expect, err := oracle(kinds)
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildBrowserWorld(core.MPK, kinds, kindSequence(1, len(kinds), 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(expect); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*reloadEvery*len(kinds)+3; i++ {
		if err := w.op(i, nil); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	k := w.seq[0]
	w.expect[k].value++
	w.expect[k].firstValue++
	if err := w.op(len(w.seq), nil); err == nil {
		t.Error("op with a corrupted expected value passed")
	}
	w.expect[k].value--
	w.expect[k].firstValue--
	w.expect[k].steady.accesses++
	w.expect[k].first.accesses++
	if err := w.op(len(w.seq), nil); err == nil {
		t.Error("op with a corrupted exact count passed")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dom", "--seconds", "0"},
		{"--workload", "dom", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q: want a non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestResultJSONKeys(t *testing.T) {
	m := metrics{}
	m.add("p50_us", "us", 1.5)
	data, err := json.Marshal(finish(m, &tally{attempted: 3}, true))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result lacks %q: %s", k, data)
		}
	}
	if len(got) != 4 {
		t.Errorf("result has extra keys: %s", data)
	}
}
