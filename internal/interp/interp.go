// Package interp executes compiled IR modules over the simulated machine:
// loads and stores go through the PKRU-checked thread view, allocation
// instructions route through pkalloc (feeding the provenance tracer in
// profiling builds), and calls crossing the compartment boundary pass
// through the same call-gate runtime native libraries use.
//
// Indirect calls are subject to the CFI policy the paper assumes (§2):
// only address-taken functions are legal targets, and a violation aborts
// the program rather than transferring control.
package interp

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ffi"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Library names under which the module's functions are registered.
const (
	TrustedLib   = "ir/trusted"
	UntrustedLib = "ir/untrusted"
)

// ErrCFIViolation is returned when an indirect call targets anything but
// an address-taken function — the simulated CFI abort.
var ErrCFIViolation = errors.New("interp: CFI violation: indirect call to invalid target")

// ErrStepLimit is returned when execution exceeds the configured budget.
var ErrStepLimit = errors.New("interp: step limit exceeded")

// RuntimeError wraps an error raised by an instruction with its location.
type RuntimeError struct {
	Func string
	Line int
	Err  error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("interp: %s (line %d): %v", e.Func, e.Line, e.Err)
}

func (e *RuntimeError) Unwrap() error { return e.Err }

// Options tunes a Machine.
type Options struct {
	// Output receives print instruction output (default: io.Discard).
	Output io.Writer
	// StepLimit bounds total executed instructions (default 100M).
	StepLimit uint64
}

// Stats counts interpreter activity.
type Stats struct {
	Instructions  uint64
	Calls         uint64
	IndirectCalls uint64
}

// Machine executes one module against one built program.
type Machine struct {
	mod  *ir.Module
	prog *core.Program
	out  io.Writer

	// Function-pointer table: address i+1 is funcAddrs[i]. Only
	// address-taken functions appear, which is the CFI target set.
	funcAddrs []*ir.Func
	addrOf    map[string]uint64

	steps     uint64
	stepLimit uint64
	stats     Stats
}

// New builds a machine for mod over prog. The module must have passed
// compile.Pipeline (or at least AssignAllocIDs + MarkAddressTaken) first.
// Every IR function is registered with the program's FFI registry so that
// IR code and Go-hosted native libraries can call each other freely.
func New(mod *ir.Module, prog *core.Program, opts ...Options) (*Machine, error) {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	if opt.Output == nil {
		opt.Output = io.Discard
	}
	if opt.StepLimit == 0 {
		opt.StepLimit = 100_000_000
	}
	m := &Machine{
		mod:       mod,
		prog:      prog,
		out:       opt.Output,
		addrOf:    make(map[string]uint64),
		stepLimit: opt.StepLimit,
	}
	for _, f := range mod.Funcs {
		if f.AddressTaken {
			m.funcAddrs = append(m.funcAddrs, f)
			m.addrOf[f.Name] = uint64(len(m.funcAddrs)) // 1-based; 0 is null
		}
	}
	reg := prog.Runtime().Registry
	tl, err := reg.Library(TrustedLib, ffi.Trusted)
	if err != nil {
		return nil, err
	}
	ul, err := reg.Library(UntrustedLib, ffi.Untrusted)
	if err != nil {
		return nil, err
	}
	for _, f := range mod.Funcs {
		f := f
		wrapped := func(th *ffi.Thread, args []uint64) ([]uint64, error) {
			return m.exec(th, f, args)
		}
		if f.Untrusted {
			ul.Define(f.Name, wrapped)
		} else {
			tl.Define(f.Name, wrapped)
		}
	}
	return m, nil
}

// Stats returns interpreter counters.
func (m *Machine) Stats() Stats { return m.stats }

// Run invokes the named function on the program's main thread. With a
// telemetry registry attached to the program, the whole run is timed as a
// span and the interpreter's instruction/call counts are promoted into
// registry counters when the run finishes (batched, so the per-instruction
// dispatch loop stays untouched).
func (m *Machine) Run(entry string, args ...uint64) ([]uint64, error) {
	f, ok := m.mod.Func(entry)
	if !ok {
		return nil, fmt.Errorf("interp: no function %q", entry)
	}
	reg := m.prog.Telemetry()
	sp := telemetry.StartSpan(
		reg.Histogram("pkrusafe_interp_run_ns", "Wall time of one interpreter entry-point run.", "ns"))
	before := m.stats
	res, err := m.call(m.prog.Main(), nil, f, args)
	sp.End()
	if reg != nil {
		reg.Counter("pkrusafe_interp_instructions_total", "Instructions executed by the IR interpreter.").
			Add(m.stats.Instructions - before.Instructions)
		reg.Counter("pkrusafe_interp_calls_total", "Function calls dispatched by the IR interpreter.").
			Add(m.stats.Calls - before.Calls)
	}
	return res, err
}

// libOf returns the FFI library a function was registered in.
func libOf(f *ir.Func) string {
	if f.Untrusted {
		return UntrustedLib
	}
	return TrustedLib
}

// call dispatches a call from caller to callee with the gate discipline
// the compartment annotations imply. A nil caller means the host is
// invoking the entry point (trusted context).
func (m *Machine) call(th *ffi.Thread, caller *ir.Func, callee *ir.Func, args []uint64) ([]uint64, error) {
	m.stats.Calls++
	callerUntrusted := caller != nil && caller.Untrusted
	switch {
	case !callerUntrusted && callee.Untrusted:
		// Forward gate: T -> U. When a fault supervisor is configured, the
		// gate carries a recovery point: a PKUERR/MAPERR fault or a panic
		// inside the untrusted callee unwinds here instead of killing the
		// run, and the supervisor's policy (retry/quarantine/heal) decides
		// what happens next. The nil supervisor degrades to a plain Call.
		if sup := m.prog.Supervisor(); sup != nil {
			return sup.Call(th, libOf(callee), callee.Name, args...)
		}
		return th.Call(libOf(callee), callee.Name, args...)
	case callerUntrusted && !callee.Untrusted:
		if callee.NeedsEntryGate() {
			// Reverse gate on an instrumented (exported/address-taken) API.
			return th.Call(libOf(callee), callee.Name, args...)
		}
		// Uninstrumented trusted function invoked from U: no gate; it runs
		// with untrusted rights and crashes if it touches MT (§3.3).
		return th.CallNoGate(libOf(callee), callee.Name, args...)
	default:
		return th.CallNoGate(libOf(callee), callee.Name, args...)
	}
}

// frame is the mutable state of one function activation.
type frame struct {
	fn   *ir.Func
	regs map[string]uint64
	// stackSlots holds salloc/usalloc allocations, released when the
	// activation ends — the §6 stack-protection prototype's automatic
	// lifetime.
	stackSlots []vm.Addr
}

func (fr *frame) get(o ir.Operand) (uint64, error) {
	if o.IsImm {
		return o.Imm, nil
	}
	v, ok := fr.regs[o.Reg]
	if !ok {
		return 0, fmt.Errorf("use of undefined register %q", o.Reg)
	}
	return v, nil
}

// exec interprets one function body on the given thread.
func (m *Machine) exec(th *ffi.Thread, f *ir.Func, args []uint64) ([]uint64, error) {
	if len(args) != len(f.Params) {
		return nil, &RuntimeError{Func: f.Name, Err: fmt.Errorf("called with %d args, want %d", len(args), len(f.Params))}
	}
	fr := &frame{fn: f, regs: make(map[string]uint64, len(f.Params)+8)}
	defer func() {
		for _, slot := range fr.stackSlots {
			_ = m.prog.Free(slot) // frame teardown; the process may be dying
		}
	}()
	for i, p := range f.Params {
		fr.regs[p] = args[i]
	}
	blk := f.Entry()
	if blk == nil {
		return nil, &RuntimeError{Func: f.Name, Err: errors.New("function has no blocks")}
	}
	for {
		for i := range blk.Instrs {
			ins := &blk.Instrs[i]
			m.steps++
			m.stats.Instructions++
			if m.steps > m.stepLimit {
				return nil, ErrStepLimit
			}
			next, ret, done, err := m.step(th, f, fr, ins)
			if err != nil {
				var re *RuntimeError
				if errors.As(err, &re) {
					return nil, err // already located
				}
				return nil, &RuntimeError{Func: f.Name, Line: ins.Line, Err: err}
			}
			if done {
				return ret, nil
			}
			if next != "" {
				nb, ok := f.Block(next)
				if !ok {
					return nil, &RuntimeError{Func: f.Name, Line: ins.Line, Err: fmt.Errorf("undefined block %q", next)}
				}
				blk = nb
				goto nextBlock
			}
		}
		return nil, &RuntimeError{Func: f.Name, Err: fmt.Errorf("block %q fell off the end", blk.Name)}
	nextBlock:
	}
}

// step executes one instruction. It returns the next block label for
// branches, the return values and done=true for ret.
func (m *Machine) step(th *ffi.Thread, f *ir.Func, fr *frame, ins *ir.Instr) (next string, ret []uint64, done bool, err error) {
	setDst := func(vals ...uint64) error {
		if len(ins.Dst) > len(vals) {
			return fmt.Errorf("%d destinations but %d values", len(ins.Dst), len(vals))
		}
		for i, d := range ins.Dst {
			fr.regs[d] = vals[i]
		}
		return nil
	}
	arg := func(i int) (uint64, error) { return fr.get(ins.Args[i]) }

	switch ins.Op {
	case ir.OpConst:
		v, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		return "", nil, false, setDst(v)

	case ir.OpBin:
		a, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		b, e := arg(1)
		if e != nil {
			return "", nil, false, e
		}
		v, e := evalBin(ins.Bin, a, b)
		if e != nil {
			return "", nil, false, e
		}
		return "", nil, false, setDst(v)

	case ir.OpAlloc:
		size, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		if ins.Site.Func == "" {
			return "", nil, false, errors.New("allocation site has no AllocId; run compile.AssignAllocIDs")
		}
		site := m.prog.Site(ins.Site.Func, ins.Site.Block, ins.Site.Site)
		addr, e := m.prog.AllocAt(site, size)
		if e != nil {
			return "", nil, false, e
		}
		return "", nil, false, setDst(uint64(addr))

	case ir.OpUAlloc:
		size, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		// With an AllocId (assigned to rewritten and explicit ualloc alike)
		// the allocation goes through the registered site, so per-site
		// accounting covers MU traffic too; the pool is forced to MU rather
		// than profile-classified because an explicit ualloc site is not in
		// the profile.
		if ins.Site.Func != "" {
			site := m.prog.UntrustedSite(ins.Site.Func, ins.Site.Block, ins.Site.Site)
			addr, e := m.prog.AllocAt(site, size)
			if e != nil {
				return "", nil, false, e
			}
			return "", nil, false, setDst(uint64(addr))
		}
		addr, e := m.prog.Allocator().UntrustedAlloc(size)
		if e != nil {
			return "", nil, false, e
		}
		return "", nil, false, setDst(uint64(addr))

	case ir.OpSAlloc:
		// §6 stack-protection prototype: a stack slot classified exactly
		// like heap data — site-routed, profiler-tracked — but freed when
		// the activation ends.
		size, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		if ins.Site.Func == "" {
			return "", nil, false, errors.New("stack slot has no AllocId; run compile.AssignAllocIDs")
		}
		site := m.prog.Site(ins.Site.Func, ins.Site.Block, ins.Site.Site)
		addr, e := m.prog.AllocAt(site, size)
		if e != nil {
			return "", nil, false, e
		}
		fr.stackSlots = append(fr.stackSlots, addr)
		return "", nil, false, setDst(uint64(addr))

	case ir.OpUSAlloc:
		size, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		if ins.Site.Func != "" {
			site := m.prog.UntrustedSite(ins.Site.Func, ins.Site.Block, ins.Site.Site)
			addr, e := m.prog.AllocAt(site, size)
			if e != nil {
				return "", nil, false, e
			}
			fr.stackSlots = append(fr.stackSlots, addr)
			return "", nil, false, setDst(uint64(addr))
		}
		addr, e := m.prog.Allocator().UntrustedAlloc(size)
		if e != nil {
			return "", nil, false, e
		}
		fr.stackSlots = append(fr.stackSlots, addr)
		return "", nil, false, setDst(uint64(addr))

	case ir.OpRealloc:
		ptr, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		size, e := arg(1)
		if e != nil {
			return "", nil, false, e
		}
		addr, e := m.prog.Realloc(vm.Addr(ptr), size)
		if e != nil {
			return "", nil, false, e
		}
		return "", nil, false, setDst(uint64(addr))

	case ir.OpFree:
		ptr, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		return "", nil, false, m.prog.Free(vm.Addr(ptr))

	case ir.OpLoad, ir.OpLoadB:
		ptr, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		var v uint64
		if ins.Op == ir.OpLoad {
			v, e = th.VM.Load64(vm.Addr(ptr))
		} else {
			var b byte
			b, e = th.VM.Load8(vm.Addr(ptr))
			v = uint64(b)
		}
		if e != nil {
			return "", nil, false, e
		}
		return "", nil, false, setDst(v)

	case ir.OpStore, ir.OpStoreB:
		ptr, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		val, e := arg(1)
		if e != nil {
			return "", nil, false, e
		}
		if ins.Op == ir.OpStore {
			e = th.VM.Store64(vm.Addr(ptr), val)
		} else {
			e = th.VM.Store8(vm.Addr(ptr), byte(val))
		}
		return "", nil, false, e

	case ir.OpCall:
		callee, ok := m.mod.Func(ins.Callee)
		if !ok {
			return "", nil, false, fmt.Errorf("undefined function %q", ins.Callee)
		}
		args := make([]uint64, len(ins.Args))
		for i := range ins.Args {
			v, e := fr.get(ins.Args[i])
			if e != nil {
				return "", nil, false, e
			}
			args[i] = v
		}
		res, e := m.call(th, f, callee, args)
		if e != nil {
			return "", nil, false, e
		}
		return "", nil, false, setDst(res...)

	case ir.OpICall:
		m.stats.IndirectCalls++
		fp, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		// CFI: the target must be in the address-taken set.
		if fp == 0 || fp > uint64(len(m.funcAddrs)) {
			return "", nil, false, ErrCFIViolation
		}
		callee := m.funcAddrs[fp-1]
		args := make([]uint64, len(ins.Args)-1)
		for i := 1; i < len(ins.Args); i++ {
			v, e := fr.get(ins.Args[i])
			if e != nil {
				return "", nil, false, e
			}
			args[i-1] = v
		}
		res, e := m.call(th, f, callee, args)
		if e != nil {
			return "", nil, false, e
		}
		return "", nil, false, setDst(res...)

	case ir.OpFuncAddr:
		addr, ok := m.addrOf[ins.Callee]
		if !ok {
			return "", nil, false, fmt.Errorf("funcaddr of %q, which is not address-taken; run compile.MarkAddressTaken", ins.Callee)
		}
		return "", nil, false, setDst(addr)

	case ir.OpBr:
		cond, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		if cond != 0 {
			return ins.Then, nil, false, nil
		}
		return ins.Else, nil, false, nil

	case ir.OpJmp:
		return ins.Then, nil, false, nil

	case ir.OpRet:
		vals := make([]uint64, len(ins.Args))
		for i := range ins.Args {
			v, e := fr.get(ins.Args[i])
			if e != nil {
				return "", nil, false, e
			}
			vals[i] = v
		}
		return "", vals, true, nil

	case ir.OpPrint:
		v, e := arg(0)
		if e != nil {
			return "", nil, false, e
		}
		fmt.Fprintln(m.out, v)
		return "", nil, false, nil

	case ir.OpNop:
		return "", nil, false, nil

	default:
		return "", nil, false, fmt.Errorf("unimplemented op %v", ins.Op)
	}
}

func evalBin(k ir.BinKind, a, b uint64) (uint64, error) {
	boolVal := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	switch k {
	case ir.BinAdd:
		return a + b, nil
	case ir.BinSub:
		return a - b, nil
	case ir.BinMul:
		return a * b, nil
	case ir.BinDiv:
		if b == 0 {
			return 0, errors.New("division by zero")
		}
		return a / b, nil
	case ir.BinMod:
		if b == 0 {
			return 0, errors.New("division by zero")
		}
		return a % b, nil
	case ir.BinAnd:
		return a & b, nil
	case ir.BinOr:
		return a | b, nil
	case ir.BinXor:
		return a ^ b, nil
	case ir.BinShl:
		return a << (b & 63), nil
	case ir.BinShr:
		return a >> (b & 63), nil
	case ir.BinEq:
		return boolVal(a == b), nil
	case ir.BinNe:
		return boolVal(a != b), nil
	case ir.BinLt:
		return boolVal(a < b), nil
	case ir.BinLe:
		return boolVal(a <= b), nil
	case ir.BinGt:
		return boolVal(a > b), nil
	case ir.BinGe:
		return boolVal(a >= b), nil
	default:
		return 0, fmt.Errorf("unknown binop %v", k)
	}
}
