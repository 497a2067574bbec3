package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName indexes the fixed set of spans the benchmark records. Every
// span wraps one call from this package into a public function of a
// layer; none is recorded inside the program under test.
type spanName uint8

const (
	spOp           spanName = iota // one closed-loop operation (the root)
	spInvoke                       // browser.(*Browser).InvokeScriptFunc
	spHousekeeping                 // browser.(*Browser).Housekeeping
	spReload                       // browser.New + page and script load of a reloaded tab
	spChurn                        // domains RemoveDomain + re-add of one tenant
	spAdmit                        // resilience.(*Group).Allow
	spTraceStart                   // gatetrace Start + thread/register binding
	spShield                       // supervise.(*Supervisor).Shield
	spCallHit                      // ffi.(*Thread).Call whose domain gate hit a bound slot
	spCallMiss                     // ffi.(*Thread).Call whose domain gate missed (bind, maybe evict)
	spBody                         // the tenant library's work body
	spTraceFinish                  // gatetrace unbinding + Finish
	spRecord                       // resilience.(*Group).RecordSuccess
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "browser.invoke", "browser.housekeeping", "browser.reload", "domains.churn",
	"resilience.admit", "gatetrace.start", "supervise.shield",
	"ffi.call.hit", "ffi.call.miss", "vm.body", "gatetrace.finish",
	"resilience.record",
}

func (n spanName) String() string { return spanNames[n] }

// span is one recorded interval; times are nanoseconds since the
// recorder's epoch and parent indexes the op's span list (-1 for the
// root).
type span struct {
	start, end int64
	parent     int32
	name       spanName
}

// keptSpan is a finished span kept for the span file.
type keptSpan struct {
	span
	req  uint64
	self int64
}

// Caps on what one traced run holds in memory: self-time samples per
// span name and spans kept for the file.
const (
	maxSamples = 1 << 20
	keepSpans  = 1 << 16
)

// recorder collects the spans of a traced run. Spans of one operation
// share a request id; when the operation ends each span's self time (its
// duration minus the part its children cover) is added to the samples of
// its name, and the first keepSpans spans are kept for the span file.
// A nil *recorder records nothing, so untraced runs pass nil and pay one
// pointer test per call site.
type recorder struct {
	epoch time.Time
	cur   []span
	stack []int32
	req   uint64
	self  [numSpanNames][]int32
	kept  []keptSpan
	child []int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), kept: make([]keptSpan, 0, keepSpans)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under the innermost open span and returns its index.
func (r *recorder) begin(name spanName) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	idx := int32(len(r.cur))
	r.cur = append(r.cur, span{start: r.now(), parent: parent, name: name})
	r.stack = append(r.stack, idx)
	return idx
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(idx int32) {
	if r == nil || idx < 0 {
		return
	}
	r.cur[idx].end = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// rename relabels a span once its outcome is known (a call that turned
// out to miss the key slot cache).
func (r *recorder) rename(idx int32, name spanName) {
	if r == nil || idx < 0 {
		return
	}
	r.cur[idx].name = name
}

// finishOp closes out one operation: self times are computed and
// aggregated, and the op's spans are kept while there is room.
func (r *recorder) finishOp() {
	if r == nil {
		return
	}
	if cap(r.child) < len(r.cur) {
		r.child = make([]int64, len(r.cur))
	}
	child := r.child[:len(r.cur)]
	clear(child)
	for _, s := range r.cur {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.cur {
		self := s.end - s.start - child[i]
		if len(r.self[s.name]) < maxSamples {
			r.self[s.name] = append(r.self[s.name], int32(self))
		}
		if len(r.kept) < keepSpans {
			r.kept = append(r.kept, keptSpan{span: s, req: r.req, self: self})
		}
	}
	r.cur = r.cur[:0]
	r.stack = r.stack[:0]
	r.req++
}

// selfMedian returns the median self time, in ns, of the spans recorded
// under any of names (0 when there are none).
func (r *recorder) selfMedian(names ...spanName) float64 {
	var xs []int64
	for _, n := range names {
		for _, v := range r.self[n] {
			xs = append(xs, int64(v))
		}
	}
	return float64(medianOf(xs))
}

// writeTSV writes the kept spans, one per line: request id, span index
// within the request, name, parent index, start and end (ns since the
// run's epoch) and self time (ns).
func (r *recorder) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tspan\tname\tparent\tstart_ns\tend_ns\tself_ns")
	var req uint64
	idx := 0
	for i, k := range r.kept {
		if i == 0 || k.req != req {
			req, idx = k.req, 0
		}
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", k.req, idx, k.name, k.parent, k.start, k.end, k.self)
		idx++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
