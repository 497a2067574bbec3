package jsengine

// The mjs AST. Nodes carry their source line for runtime error reports.
// The parser fills in names and operators; the resolve pass (resolve.go)
// then fills in where each name lives.

// varRef is a variable name together with where it resolved: its slot in
// the enclosing function's frame (-1 at top level and for names the
// function never declares) and its index in the engine's global table (-1
// where the resolver proved the local is always declared by then).
type varRef struct {
	name   string
	slot   int32
	global int32
}

// opcode is a binary operator, mapped from its token once by the parser.
type opcode uint8

const (
	opAssign opcode = iota // plain "=": no operator is applied
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opBitAnd
	opBitOr
	opBitXor
	opShl
	opShr
	opAnd // &&
	opOr  // ||
)

var opText = [...]string{
	opAssign: "=", opAdd: "+", opSub: "-", opMul: "*", opDiv: "/", opMod: "%",
	opEq: "==", opNe: "!=", opLt: "<", opLe: "<=", opGt: ">", opGe: ">=",
	opBitAnd: "&", opBitOr: "|", opBitXor: "^", opShl: "<<", opShr: ">>",
	opAnd: "&&", opOr: "||",
}

// String returns the operator's source text, for error messages.
func (op opcode) String() string { return opText[op] }

type expr interface{ exprLine() int }

type numLit struct {
	val  float64
	line int
}

type strLit struct {
	val  string
	line int
}

type boolLit struct {
	val  bool
	line int
}

type nullLit struct{ line int }

type ident struct {
	varRef
	line int
}

type arrayLit struct {
	elems []expr
	line  int
}

// objectLit is {k1: e1, k2: e2, ...}.
type objectLit struct {
	keys []string
	vals []expr
	line int
}

type unary struct {
	op   string // "-", "!", "~"
	x    expr
	line int
}

type binary struct {
	op   opcode
	x, y expr
	line int
}

// cond is the ternary ?: operator.
type cond struct {
	test, then, els expr
	line            int
}

type indexExpr struct {
	base, idx expr
	line      int
}

// memberCall is base.method(args) — used for array/string methods.
type memberCall struct {
	base   expr
	method string
	args   []expr
	line   int
}

// memberGet is base.prop — only .length is supported.
type memberGet struct {
	base expr
	prop string
	line int
}

type callExpr struct {
	callee string
	args   []expr
	line   int
}

// newExpr is `new Array(n)` / `new IntArray(n)` sugar.
type newExpr struct {
	class string
	args  []expr
	line  int
}

type assign struct {
	// exactly one of name / (target,idx) / (target,prop) is set
	varRef        // named assignment
	target expr   // indexed or member assignment base
	idx    expr   // index expression (indexed assignment)
	prop   string // property name (member assignment)
	op     opcode // opAssign for "=", opAdd for "+=", ...
	val    expr
	line   int
}

func (e *numLit) exprLine() int     { return e.line }
func (e *strLit) exprLine() int     { return e.line }
func (e *boolLit) exprLine() int    { return e.line }
func (e *nullLit) exprLine() int    { return e.line }
func (e *ident) exprLine() int      { return e.line }
func (e *arrayLit) exprLine() int   { return e.line }
func (e *objectLit) exprLine() int  { return e.line }
func (e *unary) exprLine() int      { return e.line }
func (e *binary) exprLine() int     { return e.line }
func (e *cond) exprLine() int       { return e.line }
func (e *indexExpr) exprLine() int  { return e.line }
func (e *memberCall) exprLine() int { return e.line }
func (e *memberGet) exprLine() int  { return e.line }
func (e *callExpr) exprLine() int   { return e.line }
func (e *newExpr) exprLine() int    { return e.line }
func (e *assign) exprLine() int     { return e.line }

type stmt interface{ stmtLine() int }

type exprStmt struct {
	e    expr
	line int
}

type varDecl struct {
	varRef
	init expr // may be nil
	line int
}

type funcDecl struct {
	name   string
	params []string
	body   []stmt
	line   int

	// Set by the resolver: the frame slot of each param (duplicate names
	// share one) and the number of slots, params and vars together.
	paramSlots []int
	frameSize  int
}

type returnStmt struct {
	val  expr // may be nil
	line int
}

type ifStmt struct {
	test      expr
	then, els []stmt
	line      int
}

type whileStmt struct {
	test expr
	body []stmt
	line int
}

type forStmt struct {
	init stmt // may be nil
	test expr // may be nil
	post stmt // may be nil
	body []stmt
	line int
}

type breakStmt struct{ line int }

type continueStmt struct{ line int }

type blockStmt struct {
	body []stmt
	line int
}

func (s *exprStmt) stmtLine() int     { return s.line }
func (s *varDecl) stmtLine() int      { return s.line }
func (s *funcDecl) stmtLine() int     { return s.line }
func (s *returnStmt) stmtLine() int   { return s.line }
func (s *ifStmt) stmtLine() int       { return s.line }
func (s *whileStmt) stmtLine() int    { return s.line }
func (s *forStmt) stmtLine() int      { return s.line }
func (s *breakStmt) stmtLine() int    { return s.line }
func (s *continueStmt) stmtLine() int { return s.line }
func (s *blockStmt) stmtLine() int    { return s.line }
