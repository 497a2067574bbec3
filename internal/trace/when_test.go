package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEmitStampsMonotonicWhen pins the timestamp contract: every emitted
// event carries a non-decreasing When that orders identically to Seq,
// even under concurrent emitters — the property the timeline export and
// the rebased Dump build on.
func TestEmitStampsMonotonicWhen(t *testing.T) {
	r := NewRing(16)
	r.Emit(Event{Kind: GateEnter})
	time.Sleep(time.Millisecond)
	r.Emit(Event{Kind: GateExit})
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	if snap[0].When < 0 || snap[1].When < snap[0].When {
		t.Fatalf("When not monotone: %v then %v", snap[0].When, snap[1].When)
	}
	if snap[1].When-snap[0].When < time.Millisecond {
		t.Errorf("second event only %v after first, slept 1ms", snap[1].When-snap[0].When)
	}
	// A clock reading older than the newest event is clamped to it, so
	// When never runs backwards against Seq; a caller-provided When is
	// overwritten either way.
	r2 := NewRing(4)
	r2.Emit(Event{Kind: Fault, When: -time.Hour})
	r2.EmitAt(Event{Kind: GateEnter}, time.Now().Add(-time.Hour))
	snap2 := r2.Snapshot()
	if snap2[0].When < 0 {
		t.Errorf("Emit kept caller-provided When %v", snap2[0].When)
	}
	if snap2[1].When != snap2[0].When {
		t.Errorf("stale EmitAt stamped %v after %v, want clamped to it", snap2[1].When, snap2[0].When)
	}
}

// TestWhenOrdersWithSeqConcurrent drives concurrent emitters and checks
// that a snapshot's When column never runs backwards relative to Seq.
func TestWhenOrdersWithSeqConcurrent(t *testing.T) {
	r := NewRing(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Emit(Event{Kind: GateExit, A: uint64(i)})
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatalf("seq not increasing at %d", i)
		}
		if snap[i].When < snap[i-1].When {
			t.Fatalf("When runs backwards at %d: %v after %v", i, snap[i].When, snap[i-1].When)
		}
	}
}

// TestWriteEventsGolden pins the dump text format byte-for-byte: the
// dropped header, the +offset column rebased to the first event, and the
// per-kind payload rendering. The obs /trace endpoint and crash reports
// reuse this formatter, so a change here is a change to every dump a
// user reads — make it deliberately.
func TestWriteEventsGolden(t *testing.T) {
	events := []Event{
		{Seq: 3, When: 2500 * time.Microsecond, Kind: GateEnter, A: 0x5555000c},
		{Seq: 4, When: 2600 * time.Microsecond, Kind: Fault, A: 0x2000, B: 1},
		{Seq: 5, When: 4100 * time.Microsecond, Kind: Recover, A: 0xffffffff, Note: "retry"},
		{Seq: 6, When: 4100*time.Microsecond + 500*time.Nanosecond, Kind: GateExit, A: 0xffffffff},
		{Seq: 7, When: 5 * time.Millisecond, Kind: GateExit, A: 0xffffffff, B: uint64(1500 * time.Nanosecond), Note: "gate:libu"},
	}
	var b strings.Builder
	WriteEvents(&b, events, 3, 8)
	want := "... 3 earlier event(s) dropped (ring capacity 8)\n" +
		"#3 +0s           gate-enter pkru=0x5555000c\n" +
		"#4 +100µs        fault      addr=0x2000 pkey=1\n" +
		"#5 +1.6ms        recover    pkru=0xffffffff outcome=retry\n" +
		"#6 +1.6005ms     gate-exit  pkru=0xffffffff\n" +
		"#7 +2.5ms        gate-exit  pkru=0xffffffff gate:libu took=1.5µs\n"
	if b.String() != want {
		t.Fatalf("golden mismatch:\n got: %q\nwant: %q", b.String(), want)
	}

	// Without drops there is no header and the first line is still +0s.
	var b2 strings.Builder
	WriteEvents(&b2, events[:1], 0, 8)
	if got, want := b2.String(), "#3 +0s           gate-enter pkru=0x5555000c\n"; got != want {
		t.Fatalf("no-drop golden mismatch:\n got: %q\nwant: %q", got, want)
	}

	// Ring.Dump routes through the same formatter: its first event line
	// must start at +0s even though the ring stamped a nonzero When.
	r := NewRing(2)
	r.Emit(Event{Kind: GateEnter, A: 0xc})
	var b3 strings.Builder
	r.Dump(&b3)
	if !strings.Contains(b3.String(), "+0s") {
		t.Fatalf("Dump not rebased to first event:\n%s", b3.String())
	}
}
