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
// rounding. The latency report must be schema 1 with ordered
// per-tenant quantiles. Exit status 1 with a diagnostic on any
// violation; `make trace-demo` and the CI tracing job run this against
// freshly generated artifacts.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
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

type tenantRow struct {
	Tenant        string  `json:"tenant"`
	Requests      int     `json:"requests"`
	P50Ns         int64   `json:"p50_ns"`
	P95Ns         int64   `json:"p95_ns"`
	P99Ns         int64   `json:"p99_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

type latencyReport struct {
	Schema     int         `json:"schema"`
	Experiment string      `json:"experiment"`
	Requests   int         `json:"requests"`
	Tenants    []tenantRow `json:"tenants"`
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
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var rep latencyReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fail("%s is not valid JSON: %v", path, err)
	}
	if rep.Schema != 1 {
		fail("%s: schema = %d, want 1", path, rep.Schema)
	}
	if rep.Experiment != "gatetrace" {
		fail("%s: experiment = %q, want \"gatetrace\"", path, rep.Experiment)
	}
	if len(rep.Tenants) == 0 {
		fail("%s: no per-tenant rows", path)
	}
	for _, row := range rep.Tenants {
		if row.Requests <= 0 {
			fail("%s: tenant %s: %d requests", path, row.Tenant, row.Requests)
		}
		if row.P50Ns <= 0 || row.P50Ns > row.P95Ns || row.P95Ns > row.P99Ns {
			fail("%s: tenant %s: quantiles out of order (p50=%d p95=%d p99=%d)",
				path, row.Tenant, row.P50Ns, row.P95Ns, row.P99Ns)
		}
		if row.ThroughputRPS <= 0 {
			fail("%s: tenant %s: throughput %.3f", path, row.Tenant, row.ThroughputRPS)
		}
	}
	fmt.Printf("tracecheck: %s: %d tenant(s), %d request(s), quantiles ordered\n",
		path, len(rep.Tenants), rep.Requests)
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
