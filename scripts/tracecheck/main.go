// Command tracecheck validates the artifacts the tracing plane exports
// (docs/tracing.md): a Chrome trace_event timeline written by
// `pkru-servo -trace-json` / `pkrusafe trace` / the /trace.json obs
// endpoint, and optionally a `-latency-out` per-tenant latency report.
//
//	tracecheck timeline.json [latency.json]
//
// The timeline must parse, carry well-formed events, and — when any
// trace on it faulted — contain at least one complete fault arc: a gate
// span, a fault instant and a recovery instant on the same thread
// (trace) ID. Every "gate:<d>" span must name d as its args.domain and
// lie inside its thread's request span, give or take a microsecond of
// rounding. The latency report must be a schema 2 BENCH record, read
// with internal/bench's reader, with ordered per-tenant quantiles. Exit
// status 1 with a diagnostic on any violation; `make trace-demo` and
// the CI tracing job run this against freshly generated artifacts.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    *float64       `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
	Stats           struct {
		Finished uint64 `json:"finished"`
		Retained uint64 `json:"retained"`
	} `json:"pkrusafeStats"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(1)
}

func checkTimeline(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		fail("%s is not valid JSON: %v", path, err)
	}
	if doc.DisplayTimeUnit != "ms" {
		fail("%s: displayTimeUnit = %q, want \"ms\"", path, doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		fail("%s: no trace events", path)
	}

	// Per-thread accounting: which trace IDs carry a gate span, a fault,
	// a recovery. The thread metadata row names the trace and tenant.
	type arc struct {
		gate, fault, recover bool
		name                 string
		request              *chromeEvent
	}
	breakerStates := map[string]bool{"open": true, "half-open": true, "closed": true}
	breakers := 0
	arcs := make(map[int]*arc)
	var gates []int // indexes of the gate spans, checked against their request once all are read
	at := func(tid int) *arc {
		a, ok := arcs[tid]
		if !ok {
			a = &arc{}
			arcs[tid] = a
		}
		return a
	}
	for i, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			if ev.Name != "thread_name" {
				fail("%s: event %d: metadata phase with name %q", path, i, ev.Name)
			}
			if n, ok := ev.Args["name"].(string); ok {
				at(ev.TID).name = n
			}
		case "X":
			if ev.TS == nil || ev.Dur < 0 {
				fail("%s: event %d (%s): complete event without ts/dur", path, i, ev.Name)
			}
			if ev.Cat == "request" {
				at(ev.TID).request = &doc.TraceEvents[i]
			}
			if d, ok := strings.CutPrefix(ev.Name, "gate:"); ok {
				if dom, _ := ev.Args["domain"].(string); dom != d {
					fail("%s: event %d (%s): args.domain = %q, want %q", path, i, ev.Name, dom, d)
				}
				at(ev.TID).gate = true
				gates = append(gates, i)
			}
		case "i":
			if ev.TS == nil {
				fail("%s: event %d (%s): instant without ts", path, i, ev.Name)
			}
			if ev.Name == "fault" {
				at(ev.TID).fault = true
			}
			if strings.HasPrefix(ev.Name, "recover:") {
				at(ev.TID).recover = true
			}
			if rest, ok := strings.CutPrefix(ev.Name, "breaker:"); ok {
				// Circuit-breaker transition instants carry the new state
				// in the name; anything else is a malformed emitter.
				if !breakerStates[rest] {
					fail("%s: event %d: breaker instant with unknown state %q", path, i, rest)
				}
				breakers++
			}
		default:
			fail("%s: event %d (%s): unexpected phase %q", path, i, ev.Name, ev.Phase)
		}
	}

	// A gate span is timed inside the request that crossed it, so it
	// must nest in that request's span; the exporter rounds both to
	// nanoseconds in microsecond units, hence the 1 µs slack.
	const slack = 1.0
	for _, i := range gates {
		ev := doc.TraceEvents[i]
		req := at(ev.TID).request
		if req == nil {
			fail("%s: event %d (%s): no request span on thread %d", path, i, ev.Name, ev.TID)
		}
		if *ev.TS < *req.TS-slack || *ev.TS+ev.Dur > *req.TS+req.Dur+slack {
			fail("%s: event %d (%s): [%.3f, %.3f] µs outside its request [%.3f, %.3f] µs",
				path, i, ev.Name, *ev.TS, *ev.TS+ev.Dur, *req.TS, *req.TS+req.Dur)
		}
	}

	faulted, complete := 0, 0
	for _, a := range arcs {
		if a.fault {
			faulted++
			if a.gate && a.recover {
				complete++
			}
		}
	}
	if faulted > 0 && complete == 0 {
		fail("%s: %d faulted trace(s) but none correlates gate + fault + recovery on one trace ID", path, faulted)
	}
	fmt.Printf("tracecheck: %s: %d event(s), %d trace(s), %d faulted, %d complete fault arc(s), %d breaker transition(s)\n",
		path, len(doc.TraceEvents), len(arcs), faulted, complete, breakers)
}

func checkLatency(path string) {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	rec, err := bench.ReadRecord(f)
	if err != nil {
		fail("%s: %v", path, err)
	}
	if rec.Experiment != "gatetrace" {
		fail("%s: experiment = %q, want \"gatetrace\"", path, rec.Experiment)
	}
	// Every row not named after the experiment belongs to a tenant.
	rows := map[string]map[string]float64{}
	var tenants []string
	for _, row := range rec.Rows {
		if rows[row.Name] == nil {
			rows[row.Name] = map[string]float64{}
			if row.Name != rec.Experiment {
				tenants = append(tenants, row.Name)
			}
		}
		rows[row.Name][row.Metric] = row.Value
	}
	if len(tenants) == 0 {
		fail("%s: no per-tenant rows", path)
	}
	for _, t := range tenants {
		m := rows[t]
		if m["requests"] <= 0 {
			fail("%s: tenant %s: %v requests", path, t, m["requests"])
		}
		if m["p50_ns"] <= 0 || m["p50_ns"] > m["p95_ns"] || m["p95_ns"] > m["p99_ns"] {
			fail("%s: tenant %s: quantiles out of order (p50=%v p95=%v p99=%v)",
				path, t, m["p50_ns"], m["p95_ns"], m["p99_ns"])
		}
		if m["throughput_rps"] <= 0 {
			fail("%s: tenant %s: throughput %.3f", path, t, m["throughput_rps"])
		}
	}
	fmt.Printf("tracecheck: %s: %d tenant(s), %.0f request(s), quantiles ordered\n",
		path, len(tenants), rows[rec.Experiment]["requests"])
}

func main() {
	if len(os.Args) < 2 || len(os.Args) > 3 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <timeline.json> [latency.json]")
		os.Exit(2)
	}
	checkTimeline(os.Args[1])
	if len(os.Args) == 3 {
		checkLatency(os.Args[2])
	}
}
