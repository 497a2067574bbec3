package browser

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/jsengine"
	"repro/internal/mpk"
	"repro/internal/profile"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// SecretAddr is the fixed address at which the E3 experiment plants a
// trusted secret — the same address the paper's artifact uses.
const SecretAddr vm.Addr = 0x1680_0000_0000

// ServoLib is the library name the browser's trusted bindings register
// under (the rust-mozjs binding layer of the paper, seen from the other
// side of the boundary).
const ServoLib = "servo"

// Browser is one built browser instance: a program in some configuration,
// an untrusted JS engine behind the gate, a DOM in trusted memory, and
// the instrumented allocation sites its heap objects come from.
type Browser struct {
	Prog   *core.Program
	Engine *jsengine.Engine
	Doc    *Document

	// Allocation sites, the instrumented calls into liballoc. Only a small
	// subset is ever shared across the boundary; the rest stay in MT.
	siteNode    *core.Site // DOM node records          (private)
	siteText    *core.Site // text content buffers      (shared by get_text_ref)
	siteAttr    *core.Site // attribute value buffers   (shared by get_attr_ref)
	siteScript  *core.Site // script source buffers     (shared via eval)
	siteLayout  *core.Site // layout boxes              (private)
	siteStyle   *core.Site // computed style data       (private)
	siteDisplay *core.Site // display lists             (private)
	siteCache   *core.Site // selector match cache      (private)

	subsystems []subsystem
	secret     vm.Addr
	domOps     atomic.Uint64

	boxes []vm.Addr // layout's list of the pass's allocations, reused
}

// Options tunes New.
type Options struct {
	// ScriptOutput receives print() output from scripts.
	ScriptOutput io.Writer
	// StepLimit bounds script execution (passed to the engine).
	StepLimit uint64
	// Telemetry, when non-nil, attaches the whole stack — program, gates,
	// allocator, DOM and per-subsystem rollups — to the metrics registry.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, records gate traversals and fault handling
	// into the ring for live /trace serving and post-mortem dumps.
	Trace *trace.Ring
	// Forensics attaches a fault forensics recorder to the program so a
	// fatal MPK violation can be rendered as a crash report (see
	// Browser.Prog.Forensics).
	Forensics bool
	// Supervision configures compartment fault recovery for the script
	// engine's gated calls (eval/lookup/invoke). The zero value keeps the
	// fail-stop behaviour; any other policy shields each script execution
	// so one poisoned request cannot take the whole browser down.
	Supervision supervise.Config
	// Crossings attaches the boundary-crossing sampler to the program so
	// gated engine calls are attributed to the allocation sites whose
	// objects they carry across (see core.Options.Crossings).
	Crossings bool
	// CrossingInterval samples every Nth forward crossing; <= 1 keeps all.
	CrossingInterval int
	// Tracing, when non-nil, attaches the request-scoped gate tracer to
	// the program: the embedder opens a gatetrace.Context per request and
	// pins it to the main thread, and every gated engine call becomes a
	// timed span on that request's trace (see core.Options.Tracing).
	Tracing *gatetrace.Tracer
}

// New builds a browser under the given configuration. Alloc and MPK
// builds consume the profile from a prior Profiling run.
func New(cfg core.BuildConfig, prof *profile.Profile, opts ...Options) (*Browser, error) {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	reg := ffi.NewRegistry()
	eng := jsengine.NewEngine(jsengine.Options{Output: opt.ScriptOutput, StepLimit: opt.StepLimit})
	if err := eng.Install(reg, jsengine.DefaultLib); err != nil {
		return nil, err
	}
	prog, err := core.NewProgram(reg, cfg, prof, core.Options{
		Telemetry:        opt.Telemetry,
		Trace:            opt.Trace,
		Forensics:        opt.Forensics,
		Supervision:      opt.Supervision,
		Crossings:        opt.Crossings,
		CrossingInterval: opt.CrossingInterval,
		Tracing:          opt.Tracing,
	})
	if err != nil {
		return nil, err
	}
	b := &Browser{Prog: prog, Engine: eng, Doc: newDocument()}
	if opt.Telemetry != nil {
		opt.Telemetry.GaugeFunc("pkrusafe_browser_dom_ops",
			"Trusted DOM operations performed.", func() float64 { return float64(b.domOps.Load()) })
	}
	b.siteNode = prog.Site("servo::dom::node_record", 0, 0)
	b.siteText = prog.Site("servo::dom::text", 0, 0)
	b.siteAttr = prog.Site("servo::dom::attr", 0, 0)
	b.siteScript = prog.Site("servo::script::source", 0, 0)
	b.siteLayout = prog.Site("servo::layout::box", 0, 0)
	b.siteStyle = prog.Site("servo::style::data", 0, 0)
	b.siteDisplay = prog.Site("servo::layout::display_list", 0, 0)
	b.siteCache = prog.Site("servo::style::selector_cache", 0, 0)
	b.registerSubsystems()
	if err := b.registerServoLib(reg); err != nil {
		return nil, err
	}
	b.registerHostBindings()
	root, err := b.createElement(prog.Main(), "html")
	if err != nil {
		return nil, err
	}
	b.Doc.Root = root
	return b, nil
}

// th returns the browser's main thread.
func (b *Browser) th() *ffi.Thread { return b.Prog.Main() }

// engineCall crosses into the script engine, through the supervisor when
// one is configured so engine-side faults become recoverable events.
func (b *Browser) engineCall(th *ffi.Thread, fn string, words ...uint64) ([]uint64, error) {
	if sup := b.Prog.Supervisor(); sup != nil {
		return sup.Call(th, jsengine.DefaultLib, fn, words...)
	}
	return th.Call(jsengine.DefaultLib, fn, words...)
}

// DOMOps returns the count of trusted DOM operations performed.
func (b *Browser) DOMOps() uint64 { return b.domOps.Load() }

// --- trusted DOM operations (run with the caller's rights; behind a
// reverse gate these are full rights, as §3.3 requires) ---

func (b *Browser) createElement(th *ffi.Thread, tag string) (*Node, error) {
	rec, err := b.Prog.AllocAt(b.siteNode, nodeRecordSize)
	if err != nil {
		return nil, err
	}
	n := &Node{ID: b.Doc.nextID, Tag: tag, record: rec}
	b.Doc.nextID++
	b.Doc.byNode[n.ID] = n
	if err := th.Store64(rec, n.ID); err != nil {
		return nil, err
	}
	if err := th.Store64(rec+8, tagHash(tag)); err != nil {
		return nil, err
	}
	b.domOps.Add(1)
	return n, nil
}

func (b *Browser) appendChild(th *ffi.Thread, parent, child *Node) error {
	if child.Parent != nil {
		return fmt.Errorf("browser: node %d already has a parent", child.ID)
	}
	parent.Children = append(parent.Children, child)
	child.Parent = parent
	b.domOps.Add(1)
	return th.Store64(parent.record+32, uint64(len(parent.Children)))
}

func (b *Browser) setText(th *ffi.Thread, n *Node, text string) error {
	if n.textAddr != 0 {
		if err := b.Prog.Free(n.textAddr); err != nil {
			return err
		}
		n.textAddr, n.textLen = 0, 0
	}
	if len(text) > 0 {
		addr, err := b.Prog.AllocAt(b.siteText, uint64(len(text)))
		if err != nil {
			return err
		}
		if err := th.WriteString(addr, text); err != nil {
			return err
		}
		n.textAddr, n.textLen = addr, uint64(len(text))
	}
	b.domOps.Add(1)
	if err := th.Store64(n.record+16, uint64(n.textAddr)); err != nil {
		return err
	}
	return th.Store64(n.record+24, n.textLen)
}

// textOf reads a node's text back from trusted memory.
func (b *Browser) textOf(th *ffi.Thread, n *Node) (string, error) {
	if n.textAddr == 0 {
		return "", nil
	}
	return th.ReadString(n.textAddr, int(n.textLen))
}

func (b *Browser) setAttr(th *ffi.Thread, n *Node, key, val string) error {
	if old, ok := n.attrAddrs[key]; ok {
		if err := b.Prog.Free(old.addr); err != nil {
			return err
		}
		delete(n.attrAddrs, key)
	}
	if prev, ok := n.Attrs["id"]; ok && key == "id" {
		delete(b.Doc.byID, prev)
	}
	if n.Attrs == nil {
		n.Attrs = make(map[string]string)
		n.attrAddrs = make(map[string]attrBuf)
	}
	n.Attrs[key] = val
	if key == "id" {
		b.Doc.byID[val] = n
	}
	if len(val) > 0 {
		addr, err := b.Prog.AllocAt(b.siteAttr, uint64(len(val)))
		if err != nil {
			return err
		}
		if err := th.WriteString(addr, val); err != nil {
			return err
		}
		n.attrAddrs[key] = attrBuf{addr: addr, len: uint64(len(val))}
	}
	b.domOps.Add(1)
	return th.Store64(n.record+40, uint64(len(n.Attrs)))
}

// removeSubtree frees a node's descendants (not the node itself).
func (b *Browser) removeSubtree(th *ffi.Thread, n *Node) error {
	for _, c := range n.Children {
		if err := b.removeSubtree(th, c); err != nil {
			return err
		}
		if err := b.freeNode(c); err != nil {
			return err
		}
	}
	n.Children = nil
	b.domOps.Add(1)
	return th.Store64(n.record+32, 0)
}

func (b *Browser) freeNode(n *Node) error {
	if n.textAddr != 0 {
		if err := b.Prog.Free(n.textAddr); err != nil {
			return err
		}
	}
	for _, ab := range n.attrAddrs {
		if err := b.Prog.Free(ab.addr); err != nil {
			return err
		}
	}
	if id, ok := n.Attrs["id"]; ok {
		delete(b.Doc.byID, id)
	}
	delete(b.Doc.byNode, n.ID)
	return b.Prog.Free(n.record)
}

// materialize builds DOM nodes from parsed HTML under parent.
func (b *Browser) materialize(th *ffi.Thread, hn *htmlNode, parent *Node) error {
	if hn.tag == "#text" {
		// Text runs attach to the parent node's text content.
		return b.setText(th, parent, hn.text)
	}
	n, err := b.createElement(th, hn.tag)
	if err != nil {
		return err
	}
	for k, v := range hn.attrs {
		if err := b.setAttr(th, n, k, v); err != nil {
			return err
		}
	}
	if err := b.appendChild(th, parent, n); err != nil {
		return err
	}
	for _, kid := range hn.kids {
		if err := b.materialize(th, kid, n); err != nil {
			return err
		}
	}
	return nil
}

// layout runs a toy layout pass: a style allocation per node, a box per
// node, a display list for the tree — all private MT churn, the browser
// work the paper's dom benchmarks interleave with script execution.
func (b *Browser) layout(th *ffi.Thread) error {
	boxes, err := b.layoutTree(th, b.boxes[:0], b.Doc.Root, 0)
	if err != nil {
		return err
	}
	display, err := b.Prog.AllocAt(b.siteDisplay, uint64(16*len(boxes)+16))
	if err != nil {
		return err
	}
	for i, box := range boxes {
		if err := th.Store64(display+vm.Addr(16*i), uint64(box)); err != nil {
			return err
		}
	}
	boxes = append(boxes, display)
	b.boxes = boxes[:0]
	for _, a := range boxes {
		if err := b.Prog.Free(a); err != nil {
			return err
		}
	}
	b.domOps.Add(1)
	return nil
}

// layoutTree allocates the box and style of n and of every node under
// it, depth first, appending each allocation to boxes.
func (b *Browser) layoutTree(th *ffi.Thread, boxes []vm.Addr, n *Node, depth uint64) ([]vm.Addr, error) {
	box, err := b.Prog.AllocAt(b.siteLayout, 48)
	if err != nil {
		return boxes, err
	}
	boxes = append(boxes, box)
	if err := th.Store64(box, n.ID); err != nil {
		return boxes, err
	}
	if err := th.Store64(box+8, depth); err != nil {
		return boxes, err
	}
	style, err := b.Prog.AllocAt(b.siteStyle, 32)
	if err != nil {
		return boxes, err
	}
	if err := th.Store64(style, tagHash(n.Tag)); err != nil {
		return boxes, err
	}
	boxes = append(boxes, style)
	for _, c := range n.Children {
		if boxes, err = b.layoutTree(th, boxes, c, depth+1); err != nil {
			return boxes, err
		}
	}
	return boxes, nil
}

// --- public browser API ---

// Housekeeping performs one round of the browser's own frame work — a
// layout pass plus style-cache churn — all private trusted-heap traffic.
// The benchmark harness invokes it between script iterations to model the
// background allocation a real browser performs regardless of workload,
// which is what keeps %MU well below 100% even for pure-compute suites.
func (b *Browser) Housekeeping() error {
	th := b.th()
	if err := b.layout(th); err != nil {
		return err
	}
	// Selector-cache churn: transient private allocations.
	for i := 0; i < 4; i++ {
		addr, err := b.Prog.AllocAt(b.siteCache, 256)
		if err != nil {
			return err
		}
		if err := th.Store64(addr, uint64(i)); err != nil {
			return err
		}
		if err := b.Prog.Free(addr); err != nil {
			return err
		}
	}
	return nil
}

// LoadHTML parses html and appends its nodes under the document root.
func (b *Browser) LoadHTML(html string) error {
	nodes, err := parseHTML(html)
	if err != nil {
		return err
	}
	th := b.th()
	for _, hn := range nodes {
		if err := b.materialize(th, hn, b.Doc.Root); err != nil {
			return err
		}
	}
	if err := b.exerciseSubsystems(); err != nil {
		return err
	}
	return b.layout(th)
}

// ExecScript stages src in a script-source buffer (an instrumented
// trusted allocation site — the canonical cross-boundary data flow) and
// evaluates it in the engine through the call gate. It returns the
// numeric value of the script's final expression.
func (b *Browser) ExecScript(src string) (float64, error) {
	th := b.th()
	buf, err := b.Prog.AllocAt(b.siteScript, uint64(len(src)))
	if err != nil {
		return 0, err
	}
	if err := th.WriteString(buf, src); err != nil {
		return 0, err
	}
	res, err := b.engineCall(th, "eval", uint64(buf), uint64(len(src)))
	if ferr := b.Prog.Free(buf); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(res[0]), nil
}

// LookupScriptFunc resolves a script-defined function for InvokeScriptFunc.
func (b *Browser) LookupScriptFunc(name string) (uint64, error) {
	th := b.th()
	buf, err := b.Prog.AllocAt(b.siteScript, uint64(len(name)))
	if err != nil {
		return 0, err
	}
	if err := th.WriteString(buf, name); err != nil {
		return 0, err
	}
	res, err := b.engineCall(th, "lookup", uint64(buf), uint64(len(name)))
	if ferr := b.Prog.Free(buf); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return 0, err
	}
	if res[0] == 0 {
		return 0, fmt.Errorf("browser: script function %q not defined", name)
	}
	return res[0], nil
}

// InvokeScriptFunc calls a script function by its LookupScriptFunc handle
// with numeric arguments — the cheap repeated-call path benchmarks use.
func (b *Browser) InvokeScriptFunc(id uint64, args ...float64) (float64, error) {
	words := make([]uint64, 1, len(args)+1)
	words[0] = id
	for _, a := range args {
		words = append(words, math.Float64bits(a))
	}
	res, err := b.engineCall(b.th(), "invoke", words...)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(res[0]), nil
}

// PlantSecret reserves a page of trusted memory at the paper's fixed
// address and stores value there — the E3 experiment's target.
func (b *Browser) PlantSecret(value uint64) error {
	if b.secret != 0 {
		return errors.New("browser: secret already planted")
	}
	key := b.Prog.Allocator().TrustedKey()
	if _, err := b.Prog.Space().Reserve("servo/secret", SecretAddr, vm.PageSize, key); err != nil {
		return err
	}
	b.secret = SecretAddr
	return b.th().VM.Store64(SecretAddr, value)
}

// SecretValue reads the planted secret back through the runtime's
// privileged view (the program printing its own secret at exit).
func (b *Browser) SecretValue() (uint64, error) {
	if b.secret == 0 {
		return 0, errors.New("browser: no secret planted")
	}
	var buf [8]byte
	if err := b.Prog.Space().Peek(b.secret, buf[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v, nil
}

// Stats bundles the run statistics the evaluation tables report.
type Stats struct {
	Transitions    uint64  // compartment transitions through gates
	DOMOps         uint64  // trusted DOM operations
	UntrustedShare float64 // fraction of allocated bytes served from MU
	TotalSites     int
	UntrustedSites int
	PKUFaults      uint64
}

// Stats returns the run statistics.
func (b *Browser) Stats() Stats {
	rep := b.Prog.Report()
	return Stats{
		Transitions:    b.Prog.Transitions(),
		DOMOps:         b.domOps.Load(),
		UntrustedShare: rep.UntrustedShare,
		TotalSites:     rep.TotalSites,
		UntrustedSites: rep.UntrustedSites,
		PKUFaults:      b.th().VM.Stats().PKUFaults,
	}
}

// TrustedRights reports whether the main thread currently holds full
// rights (sanity check for tests).
func (b *Browser) TrustedRights() bool {
	return b.th().VM.Rights() == mpk.PermitAll
}
