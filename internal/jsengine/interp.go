package jsengine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/ffi"
)

// HostFunc is a binding the embedder (the browser) registers with the
// engine. It executes in the engine's compartment — with untrusted rights
// when the engine runs behind its gate — and reaches back into trusted
// code via th.Call, which applies the reverse gate.
type HostFunc func(th *ffi.Thread, args []Value) (Value, error)

// ErrStepLimit is returned when a script exceeds its execution budget.
var ErrStepLimit = errors.New("jsengine: script step limit exceeded")

// Engine is one JavaScript context: global bindings, top-level functions
// and host bindings. The engine object itself lives Go-side (it is the
// engine's *code*); all script-visible heap data lives in simulated MU
// memory.
type Engine struct {
	// Global variables, by the index the resolver gives each name that
	// can reach the global scope. globalIdx is read only by the resolver
	// and Global; the interpreter indexes globals directly.
	globalIdx map[string]int
	globals   []binding

	funcs map[string]*funcDecl
	fnIDs []*funcDecl // invoke-by-id table for the FFI surface
	hosts map[string]HostFunc
	out   io.Writer

	// Property-name and string intern tables (the atoms table); ids are
	// what object slot tables in simulated memory refer to.
	keyIDs   map[string]uint64
	keyNames []string
	strIDs   map[string]uint64
	strVals  []string

	steps     uint64
	stepLimit uint64
}

// Options tunes a new engine.
type Options struct {
	// Output receives print() output (default io.Discard).
	Output io.Writer
	// StepLimit bounds evaluated AST nodes per engine (default 200M).
	StepLimit uint64
}

// NewEngine creates an empty context.
func NewEngine(opts ...Options) *Engine {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	if opt.Output == nil {
		opt.Output = io.Discard
	}
	if opt.StepLimit == 0 {
		opt.StepLimit = 200_000_000
	}
	return &Engine{
		globalIdx: make(map[string]int),
		funcs:     make(map[string]*funcDecl),
		hosts:     make(map[string]HostFunc),
		keyIDs:    make(map[string]uint64),
		strIDs:    make(map[string]uint64),
		out:       opt.Output,
		stepLimit: opt.StepLimit,
	}
}

// RegisterHost binds a host function visible to scripts as name(...).
func (e *Engine) RegisterHost(name string, fn HostFunc) { e.hosts[name] = fn }

// Steps returns the number of AST nodes evaluated so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Global returns a global binding (for tests and embedders).
func (e *Engine) Global(name string) (Value, bool) {
	i, ok := e.globalIdx[name]
	if !ok {
		return Null(), false
	}
	g := e.globals[i]
	return g.val, g.set
}

// globalIndex returns name's index in the global table, adding an unset
// entry the first time the name is resolved.
func (e *Engine) globalIndex(name string) int {
	i, ok := e.globalIdx[name]
	if !ok {
		i = len(e.globals)
		e.globalIdx[name] = i
		e.globals = append(e.globals, binding{})
	}
	return i
}

// Eval parses and executes src on the given thread, returning the value of
// the last expression statement.
func (e *Engine) Eval(th *ffi.Thread, src string) (Value, error) {
	prog, err := parseScript(src)
	if err != nil {
		return Null(), err
	}
	e.resolve(prog)
	// Hoist function declarations.
	for _, s := range prog {
		if fd, ok := s.(*funcDecl); ok {
			e.define(fd)
		}
	}
	ctx := &execCtx{eng: e, th: th}
	var last Value
	for _, s := range prog {
		if _, ok := s.(*funcDecl); ok {
			continue
		}
		v, ctl, err := ctx.stmt(s, nil)
		if err != nil {
			return Null(), err
		}
		if ctl != ctlNone {
			return Null(), &RuntimeError{Line: s.stmtLine(), Err: fmt.Errorf("%v outside function/loop", ctl)}
		}
		last = v
	}
	return last, nil
}

// CallFunction invokes a previously defined top-level function.
func (e *Engine) CallFunction(th *ffi.Thread, name string, args ...Value) (Value, error) {
	fd, ok := e.funcs[name]
	if !ok {
		return Null(), fmt.Errorf("jsengine: no function %q", name)
	}
	ctx := &execCtx{eng: e, th: th}
	return ctx.invoke(fd, args)
}

// define binds fd as the top-level function of its name. A redefinition
// takes over the name's invoke-by-id slot, so ids stay stable and invoke
// runs the same body as script calls and CallFunction.
func (e *Engine) define(fd *funcDecl) {
	if _, exists := e.funcs[fd.name]; exists {
		i, _ := e.FunctionID(fd.name)
		e.fnIDs[i] = fd
	} else {
		e.fnIDs = append(e.fnIDs, fd)
	}
	e.funcs[fd.name] = fd
}

// FunctionID returns the invoke-by-id handle for a defined function.
func (e *Engine) FunctionID(name string) (int, bool) {
	for i, fd := range e.fnIDs {
		if fd.name == name {
			return i, true
		}
	}
	return 0, false
}

// control-flow signals threaded through statement execution.
type ctl uint8

const (
	ctlNone ctl = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

func (c ctl) String() string {
	switch c {
	case ctlReturn:
		return "return"
	case ctlBreak:
		return "break"
	case ctlContinue:
		return "continue"
	default:
		return "none"
	}
}

type execCtx struct {
	eng *Engine
	th  *ffi.Thread
}

func (c *execCtx) tick(line int) error {
	c.eng.steps++
	if c.eng.steps > c.eng.stepLimit {
		return &RuntimeError{Line: line, Err: ErrStepLimit}
	}
	return nil
}

// binding is one variable: a frame slot or a global. set is the declared
// bit: a slot is set once its param is bound or its var has run, a global
// once anything has assigned it.
type binding struct {
	val Value
	set bool
}

// frame is one call's locals, indexed by the resolver's slots; nil at top
// level, where every name is global.
type frame []binding

// lookup reads a name: its slot if declared in this call, else its global.
func (c *execCtx) lookup(v *varRef, env frame) (Value, bool) {
	if v.slot >= 0 && env[v.slot].set {
		return env[v.slot].val, true
	}
	g := &c.eng.globals[v.global]
	return g.val, g.set
}

// bind assigns a name: its slot if declared in this call, else its global.
func (c *execCtx) bind(v *varRef, val Value, env frame) {
	if v.slot >= 0 && env[v.slot].set {
		env[v.slot].val = val
		return
	}
	c.eng.globals[v.global] = binding{val, true}
}

// declare runs a var: in a function it declares the slot, at top level it
// sets the global.
func (c *execCtx) declare(v *varRef, val Value, env frame) {
	if v.slot >= 0 {
		env[v.slot] = binding{val, true}
		return
	}
	c.eng.globals[v.global] = binding{val, true}
}

func (c *execCtx) invoke(fd *funcDecl, args []Value) (Value, error) {
	env := make(frame, fd.frameSize)
	for i, s := range fd.paramSlots {
		v := Null()
		if i < len(args) {
			v = args[i]
		}
		env[s] = binding{v, true}
	}
	for _, s := range fd.body {
		v, ctl, err := c.stmt(s, env)
		if err != nil {
			return Null(), err
		}
		switch ctl {
		case ctlReturn:
			return v, nil
		case ctlBreak, ctlContinue:
			return Null(), &RuntimeError{Line: s.stmtLine(), Err: fmt.Errorf("%v outside loop", ctl)}
		}
	}
	return Null(), nil
}

func (c *execCtx) stmtList(body []stmt, env frame) (Value, ctl, error) {
	for _, s := range body {
		v, cc, err := c.stmt(s, env)
		if err != nil || cc != ctlNone {
			return v, cc, err
		}
	}
	return Null(), ctlNone, nil
}

func (c *execCtx) stmt(s stmt, env frame) (Value, ctl, error) {
	if err := c.tick(s.stmtLine()); err != nil {
		return Null(), ctlNone, err
	}
	switch st := s.(type) {
	case *exprStmt:
		v, err := c.eval(st.e, env)
		return v, ctlNone, err
	case *varDecl:
		v := Null()
		if st.init != nil {
			var err error
			if v, err = c.eval(st.init, env); err != nil {
				return Null(), ctlNone, err
			}
		}
		c.declare(&st.varRef, v, env)
		return Null(), ctlNone, nil
	case *funcDecl:
		c.eng.define(st)
		return Null(), ctlNone, nil
	case *returnStmt:
		v := Null()
		if st.val != nil {
			var err error
			if v, err = c.eval(st.val, env); err != nil {
				return Null(), ctlNone, err
			}
		}
		return v, ctlReturn, nil
	case *ifStmt:
		t, err := c.eval(st.test, env)
		if err != nil {
			return Null(), ctlNone, err
		}
		if t.Truthy() {
			return c.stmtList(st.then, env)
		}
		return c.stmtList(st.els, env)
	case *whileStmt:
		for {
			t, err := c.eval(st.test, env)
			if err != nil {
				return Null(), ctlNone, err
			}
			if !t.Truthy() {
				return Null(), ctlNone, nil
			}
			v, cc, err := c.stmtList(st.body, env)
			if err != nil {
				return Null(), ctlNone, err
			}
			switch cc {
			case ctlReturn:
				return v, cc, nil
			case ctlBreak:
				return Null(), ctlNone, nil
			}
		}
	case *forStmt:
		if st.init != nil {
			if _, cc, err := c.stmt(st.init, env); err != nil || cc != ctlNone {
				return Null(), cc, err
			}
		}
		for {
			if st.test != nil {
				t, err := c.eval(st.test, env)
				if err != nil {
					return Null(), ctlNone, err
				}
				if !t.Truthy() {
					return Null(), ctlNone, nil
				}
			}
			v, cc, err := c.stmtList(st.body, env)
			if err != nil {
				return Null(), ctlNone, err
			}
			if cc == ctlReturn {
				return v, cc, nil
			}
			if cc == ctlBreak {
				return Null(), ctlNone, nil
			}
			if st.post != nil {
				if _, _, err := c.stmt(st.post, env); err != nil {
					return Null(), ctlNone, err
				}
			}
		}
	case *breakStmt:
		return Null(), ctlBreak, nil
	case *continueStmt:
		return Null(), ctlContinue, nil
	case *blockStmt:
		return c.stmtList(st.body, env)
	default:
		return Null(), ctlNone, &RuntimeError{Line: s.stmtLine(), Err: fmt.Errorf("unhandled statement %T", s)}
	}
}

func (c *execCtx) evalArgs(args []expr, env frame) ([]Value, error) {
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := c.eval(a, env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (c *execCtx) eval(e expr, env frame) (Value, error) {
	if err := c.tick(e.exprLine()); err != nil {
		return Null(), err
	}
	switch ex := e.(type) {
	case *numLit:
		return Num(ex.val), nil
	case *strLit:
		return Str(ex.val), nil
	case *boolLit:
		return Bool(ex.val), nil
	case *nullLit:
		return Null(), nil
	case *ident:
		v, ok := c.lookup(&ex.varRef, env)
		if !ok {
			return Null(), &RuntimeError{Line: ex.line, Err: fmt.Errorf("undefined variable %q", ex.name)}
		}
		return v, nil
	case *objectLit:
		hdr, err := newObject(c.th)
		if err != nil {
			return Null(), &RuntimeError{Line: ex.line, Err: err}
		}
		for i, k := range ex.keys {
			v, err := c.eval(ex.vals[i], env)
			if err != nil {
				return Null(), err
			}
			if err := c.eng.objSet(c.th, hdr, c.eng.internKey(k), v); err != nil {
				return Null(), &RuntimeError{Line: ex.line, Err: err}
			}
		}
		return Obj(hdr), nil
	case *arrayLit:
		vals, err := c.evalArgs(ex.elems, env)
		if err != nil {
			return Null(), err
		}
		hdr, err := newArray(c.th, tagFloatArr, uint64(len(vals)))
		if err != nil {
			return Null(), &RuntimeError{Line: ex.line, Err: err}
		}
		for i, v := range vals {
			if err := arrSet(c.th, hdr, uint64(i), v); err != nil {
				return Null(), &RuntimeError{Line: ex.line, Err: err}
			}
		}
		return Arr(hdr), nil
	case *unary:
		x, err := c.eval(ex.x, env)
		if err != nil {
			return Null(), err
		}
		switch ex.op {
		case "-":
			return Num(-numOf(x)), nil
		case "!":
			return Bool(!x.Truthy()), nil
		case "~":
			return Num(float64(^int64(numOf(x)))), nil
		}
		return Null(), &RuntimeError{Line: ex.line, Err: fmt.Errorf("bad unary %q", ex.op)}
	case *binary:
		return c.evalBinary(ex, env)
	case *cond:
		t, err := c.eval(ex.test, env)
		if err != nil {
			return Null(), err
		}
		if t.Truthy() {
			return c.eval(ex.then, env)
		}
		return c.eval(ex.els, env)
	case *indexExpr:
		base, err := c.eval(ex.base, env)
		if err != nil {
			return Null(), err
		}
		idx, err := c.eval(ex.idx, env)
		if err != nil {
			return Null(), err
		}
		switch base.Kind {
		case KArr:
			v, err := arrGet(c.th, base.Arr, uint64(int64(idx.Num)))
			if err != nil {
				return Null(), &RuntimeError{Line: ex.line, Err: err}
			}
			return v, nil
		case KStr:
			i := int(idx.Num)
			if i < 0 || i >= len(base.Str) {
				return Null(), &RuntimeError{Line: ex.line, Err: fmt.Errorf("string index %d out of range", i)}
			}
			return Str(base.Str[i : i+1]), nil
		default:
			return Null(), &RuntimeError{Line: ex.line, Err: fmt.Errorf("cannot index %v", base.Kind)}
		}
	case *memberGet:
		return c.evalMemberGet(ex, env)
	case *memberCall:
		return c.evalMemberCall(ex, env)
	case *callExpr:
		return c.evalCall(ex, env)
	case *newExpr:
		return c.evalNew(ex, env)
	case *assign:
		return c.evalAssign(ex, env)
	default:
		return Null(), &RuntimeError{Line: e.exprLine(), Err: fmt.Errorf("unhandled expression %T", e)}
	}
}

func (c *execCtx) evalBinary(ex *binary, env frame) (Value, error) {
	x, err := c.eval(ex.x, env)
	if err != nil {
		return Null(), err
	}
	// Short-circuit logical operators.
	switch ex.op {
	case opAnd:
		if !x.Truthy() {
			return x, nil
		}
		return c.eval(ex.y, env)
	case opOr:
		if x.Truthy() {
			return x, nil
		}
		return c.eval(ex.y, env)
	}
	y, err := c.eval(ex.y, env)
	if err != nil {
		return Null(), err
	}
	return applyBinary(ex.op, x, y, ex.line)
}

// numOf coerces a value to a number, JavaScript-style, for arithmetic.
func numOf(v Value) float64 {
	switch v.Kind {
	case KNum:
		return v.Num
	case KBool:
		if v.Bool {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// equal is == on two operands neither of which is a string: same kind,
// and for arrays and objects the same handle.
func equal(x, y Value) bool {
	if x.Kind != y.Kind {
		return false
	}
	switch x.Kind {
	case KNum:
		return x.Num == y.Num
	case KBool:
		return x.Bool == y.Bool
	case KArr:
		return x.Arr == y.Arr
	case KObj:
		return x.Obj == y.Obj
	default:
		return true
	}
}

func applyBinary(op opcode, x, y Value, line int) (Value, error) {
	// String concatenation and comparison.
	if x.Kind == KStr || y.Kind == KStr {
		switch op {
		case opAdd:
			return Str(x.String() + y.String()), nil
		case opEq:
			return Bool(x.Kind == y.Kind && x.Str == y.Str), nil
		case opNe:
			return Bool(!(x.Kind == y.Kind && x.Str == y.Str)), nil
		case opLt, opLe, opGt, opGe:
			if x.Kind == KStr && y.Kind == KStr {
				cmp := strings.Compare(x.Str, y.Str)
				switch op {
				case opLt:
					return Bool(cmp < 0), nil
				case opLe:
					return Bool(cmp <= 0), nil
				case opGt:
					return Bool(cmp > 0), nil
				default:
					return Bool(cmp >= 0), nil
				}
			}
		}
		return Null(), &RuntimeError{Line: line, Err: fmt.Errorf("bad string operands for %q", op)}
	}
	a, b := numOf(x), numOf(y)
	switch op {
	case opAdd:
		return Num(a + b), nil
	case opSub:
		return Num(a - b), nil
	case opMul:
		return Num(a * b), nil
	case opDiv:
		return Num(a / b), nil // JS semantics: x/0 is ±Inf or NaN
	case opMod:
		return Num(math.Mod(a, b)), nil
	case opEq:
		return Bool(equal(x, y)), nil
	case opNe:
		return Bool(!equal(x, y)), nil
	case opLt:
		return Bool(a < b), nil
	case opLe:
		return Bool(a <= b), nil
	case opGt:
		return Bool(a > b), nil
	case opGe:
		return Bool(a >= b), nil
	case opBitAnd:
		return Num(float64(int64(a) & int64(b))), nil
	case opBitOr:
		return Num(float64(int64(a) | int64(b))), nil
	case opBitXor:
		return Num(float64(int64(a) ^ int64(b))), nil
	case opShl:
		return Num(float64(int64(a) << (uint64(b) & 63))), nil
	case opShr:
		return Num(float64(int64(a) >> (uint64(b) & 63))), nil
	default:
		return Null(), &RuntimeError{Line: line, Err: fmt.Errorf("bad operator %q", op)}
	}
}

func (c *execCtx) evalAssign(ex *assign, env frame) (Value, error) {
	rhs, err := c.eval(ex.val, env)
	if err != nil {
		return Null(), err
	}
	apply := func(old Value) (Value, error) {
		if ex.op == opAssign {
			return rhs, nil
		}
		return applyBinary(ex.op, old, rhs, ex.line)
	}
	if ex.name != "" {
		var old Value
		if ex.op != opAssign {
			var ok bool
			if old, ok = c.lookup(&ex.varRef, env); !ok {
				return Null(), &RuntimeError{Line: ex.line, Err: fmt.Errorf("undefined variable %q", ex.name)}
			}
		}
		v, err := apply(old)
		if err != nil {
			return Null(), err
		}
		c.bind(&ex.varRef, v, env)
		return v, nil
	}
	base, err := c.eval(ex.target, env)
	if err != nil {
		return Null(), err
	}
	if ex.prop != "" {
		if base.Kind != KObj {
			return Null(), &RuntimeError{Line: ex.line, Err: fmt.Errorf("cannot set property on %v", base.Kind)}
		}
		keyID := c.eng.internKey(ex.prop)
		var old Value
		if ex.op != opAssign {
			if old, err = c.eng.objGet(c.th, base.Obj, keyID); err != nil {
				return Null(), &RuntimeError{Line: ex.line, Err: err}
			}
		}
		v, err := apply(old)
		if err != nil {
			return Null(), err
		}
		if err := c.eng.objSet(c.th, base.Obj, keyID, v); err != nil {
			return Null(), &RuntimeError{Line: ex.line, Err: err}
		}
		return v, nil
	}
	if base.Kind != KArr {
		return Null(), &RuntimeError{Line: ex.line, Err: fmt.Errorf("cannot index-assign %v", base.Kind)}
	}
	idx, err := c.eval(ex.idx, env)
	if err != nil {
		return Null(), err
	}
	i := uint64(int64(idx.Num))
	var old Value
	if ex.op != opAssign {
		if old, err = arrGet(c.th, base.Arr, i); err != nil {
			return Null(), &RuntimeError{Line: ex.line, Err: err}
		}
	}
	v, err := apply(old)
	if err != nil {
		return Null(), err
	}
	if err := arrSet(c.th, base.Arr, i, v); err != nil {
		return Null(), &RuntimeError{Line: ex.line, Err: err}
	}
	return v, nil
}

func (c *execCtx) evalNew(ex *newExpr, env frame) (Value, error) {
	args, err := c.evalArgs(ex.args, env)
	if err != nil {
		return Null(), err
	}
	n := uint64(0)
	if len(args) > 0 {
		n = uint64(int64(args[0].Num))
	}
	switch ex.class {
	case "Array":
		hdr, err := newArray(c.th, tagFloatArr, n)
		if err != nil {
			return Null(), &RuntimeError{Line: ex.line, Err: err}
		}
		return Arr(hdr), nil
	case "IntArray":
		hdr, err := newArray(c.th, tagIntArr, n)
		if err != nil {
			return Null(), &RuntimeError{Line: ex.line, Err: err}
		}
		return Arr(hdr), nil
	case "Object":
		hdr, err := newObject(c.th)
		if err != nil {
			return Null(), &RuntimeError{Line: ex.line, Err: err}
		}
		return Obj(hdr), nil
	default:
		return Null(), &RuntimeError{Line: ex.line, Err: fmt.Errorf("unknown constructor %q", ex.class)}
	}
}

func (c *execCtx) evalMemberGet(ex *memberGet, env frame) (Value, error) {
	base, err := c.eval(ex.base, env)
	if err != nil {
		return Null(), err
	}
	switch {
	case base.Kind == KObj:
		v, err := c.eng.objGet(c.th, base.Obj, c.eng.internKey(ex.prop))
		if err != nil {
			return Null(), &RuntimeError{Line: ex.line, Err: err}
		}
		return v, nil
	case ex.prop == "length" && base.Kind == KArr:
		_, length, _, _, err := arrInfo(c.th, base.Arr)
		if err != nil {
			return Null(), &RuntimeError{Line: ex.line, Err: err}
		}
		return Num(float64(length)), nil
	case ex.prop == "length" && base.Kind == KStr:
		return Num(float64(len(base.Str))), nil
	default:
		return Null(), &RuntimeError{Line: ex.line, Err: fmt.Errorf("no property %q on %v", ex.prop, base.Kind)}
	}
}

func (c *execCtx) evalMemberCall(ex *memberCall, env frame) (Value, error) {
	base, err := c.eval(ex.base, env)
	if err != nil {
		return Null(), err
	}
	args, err := c.evalArgs(ex.args, env)
	if err != nil {
		return Null(), err
	}
	fail := func(err error) (Value, error) {
		return Null(), &RuntimeError{Line: ex.line, Err: err}
	}
	switch {
	case base.Kind == KArr && ex.method == "push":
		for _, v := range args {
			if err := arrPush(c.th, base.Arr, v); err != nil {
				return fail(err)
			}
		}
		_, length, _, _, err := arrInfo(c.th, base.Arr)
		if err != nil {
			return fail(err)
		}
		return Num(float64(length)), nil
	case base.Kind == KArr && ex.method == "setLength":
		if len(args) != 1 {
			return fail(errors.New("setLength needs one argument"))
		}
		if err := arrSetLength(c.th, base.Arr, uint64(int64(args[0].Num))); err != nil {
			return fail(err)
		}
		return Null(), nil
	case base.Kind == KStr && ex.method == "charCodeAt":
		i := 0
		if len(args) > 0 {
			i = int(args[0].Num)
		}
		if i < 0 || i >= len(base.Str) {
			return fail(fmt.Errorf("charCodeAt(%d) out of range", i))
		}
		return Num(float64(base.Str[i])), nil
	case base.Kind == KStr && ex.method == "substr":
		i, n := 0, len(base.Str)
		if len(args) > 0 {
			i = int(args[0].Num)
		}
		if len(args) > 1 {
			n = int(args[1].Num)
		}
		if i < 0 || i > len(base.Str) {
			return fail(fmt.Errorf("substr(%d) out of range", i))
		}
		if i+n > len(base.Str) {
			n = len(base.Str) - i
		}
		return Str(base.Str[i : i+n]), nil
	case base.Kind == KStr && ex.method == "indexOf":
		if len(args) != 1 || args[0].Kind != KStr {
			return fail(errors.New("indexOf needs a string argument"))
		}
		return Num(float64(strings.Index(base.Str, args[0].Str))), nil
	default:
		return fail(fmt.Errorf("no method %q on %v", ex.method, base.Kind))
	}
}

func (c *execCtx) evalCall(ex *callExpr, env frame) (Value, error) {
	args, err := c.evalArgs(ex.args, env)
	if err != nil {
		return Null(), err
	}
	if fd, ok := c.eng.funcs[ex.callee]; ok {
		return c.invoke(fd, args)
	}
	if b, ok := builtins[ex.callee]; ok {
		v, err := b(c, args)
		if err != nil {
			return Null(), &RuntimeError{Line: ex.line, Err: err}
		}
		return v, nil
	}
	if h, ok := c.eng.hosts[ex.callee]; ok {
		v, err := h(c.th, args)
		if err != nil {
			return Null(), err // host errors (incl. faults) propagate as-is
		}
		return v, nil
	}
	return Null(), &RuntimeError{Line: ex.line, Err: fmt.Errorf("undefined function %q", ex.callee)}
}
