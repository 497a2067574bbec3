package jsengine

import "slices"

// The resolve pass runs once per parsed script, before any of it executes.
// It gives every function a frame of slots — one per distinct param name
// and per var in its body, not counting nested function declarations,
// whose vars belong to their own frames — and records on every name where
// it lives: its frame slot, and its global index where the name can reach
// the global scope.
//
// Scoping stays dynamic in one respect, and the interpreter reproduces it
// with a declared bit per slot: a var shadows the global of the same name
// only once the var statement has run in the current call. Params are
// declared on entry. Until its var has run, a local name reads and writes
// the global. The resolver therefore gives a local use a global index too,
// unless the var is sure to have run by then: it precedes the use in the
// same statement list or an enclosing one, and no loop or branch body that
// might not run, or might stop part way, lies between them.

// resolver annotates the names of one function body or of top-level code.
type resolver struct {
	eng   *Engine
	slots map[string]int // the function's locals; nil at top level
}

// resolve annotates a freshly parsed script.
func (e *Engine) resolve(prog []stmt) {
	(&resolver{eng: e}).stmts(prog, nil)
}

// function lays out fd's frame and resolves its body.
func (r *resolver) function(fd *funcDecl) {
	slots := make(map[string]int)
	fd.paramSlots = make([]int, len(fd.params))
	for i, p := range fd.params {
		fd.paramSlots[i] = slotFor(slots, p)
	}
	localVars(fd.body, slots)
	fd.frameSize = len(slots)
	declared := make([]bool, fd.frameSize)
	for _, s := range fd.paramSlots {
		declared[s] = true
	}
	(&resolver{eng: r.eng, slots: slots}).stmts(fd.body, declared)
}

func slotFor(slots map[string]int, name string) int {
	s, ok := slots[name]
	if !ok {
		s = len(slots)
		slots[name] = s
	}
	return s
}

// localVars gives each var of a function body a slot.
func localVars(body []stmt, slots map[string]int) {
	for _, s := range body {
		switch st := s.(type) {
		case *varDecl:
			slotFor(slots, st.name)
		case *ifStmt:
			localVars(st.then, slots)
			localVars(st.els, slots)
		case *whileStmt:
			localVars(st.body, slots)
		case *forStmt:
			if d, ok := st.init.(*varDecl); ok {
				slotFor(slots, d.name)
			}
			localVars(st.body, slots)
		case *blockStmt:
			localVars(st.body, slots)
		}
	}
}

// stmts resolves a statement list that runs from its start. declared marks
// the slots whose var is sure to have run at the current point; the list
// updates it as it goes, since each statement runs only after the ones
// before it completed.
func (r *resolver) stmts(body []stmt, declared []bool) {
	for _, s := range body {
		r.stmt(s, declared)
	}
}

// branch resolves a list that might not run or might stop part way: what
// it declares is not sure to have run after it.
func (r *resolver) branch(body []stmt, declared []bool) {
	r.stmts(body, slices.Clone(declared))
}

func (r *resolver) stmt(s stmt, declared []bool) {
	switch st := s.(type) {
	case *exprStmt:
		r.expr(st.e, declared)
	case *varDecl:
		if st.init != nil {
			r.expr(st.init, declared)
		}
		st.slot, st.global = -1, -1
		if slot, ok := r.slots[st.name]; ok {
			st.slot = int32(slot)
			declared[slot] = true
		} else {
			st.global = int32(r.eng.globalIndex(st.name))
		}
	case *funcDecl:
		r.function(st)
	case *returnStmt:
		if st.val != nil {
			r.expr(st.val, declared)
		}
	case *ifStmt:
		r.expr(st.test, declared)
		r.branch(st.then, declared)
		r.branch(st.els, declared)
	case *whileStmt:
		r.expr(st.test, declared)
		r.branch(st.body, declared)
	case *forStmt:
		if st.init != nil {
			r.stmt(st.init, declared)
		}
		if st.test != nil {
			r.expr(st.test, declared)
		}
		r.branch(st.body, declared)
		if st.post != nil {
			r.stmt(st.post, declared)
		}
	case *blockStmt:
		r.stmts(st.body, declared)
	}
}

func (r *resolver) exprs(es []expr, declared []bool) {
	for _, e := range es {
		r.expr(e, declared)
	}
}

func (r *resolver) expr(e expr, declared []bool) {
	switch ex := e.(type) {
	case *ident:
		r.ref(&ex.varRef, declared)
	case *arrayLit:
		r.exprs(ex.elems, declared)
	case *objectLit:
		r.exprs(ex.vals, declared)
	case *unary:
		r.expr(ex.x, declared)
	case *binary:
		r.expr(ex.x, declared)
		r.expr(ex.y, declared)
	case *cond:
		r.expr(ex.test, declared)
		r.expr(ex.then, declared)
		r.expr(ex.els, declared)
	case *indexExpr:
		r.expr(ex.base, declared)
		r.expr(ex.idx, declared)
	case *memberCall:
		r.expr(ex.base, declared)
		r.exprs(ex.args, declared)
	case *memberGet:
		r.expr(ex.base, declared)
	case *callExpr:
		r.exprs(ex.args, declared)
	case *newExpr:
		r.exprs(ex.args, declared)
	case *assign:
		r.expr(ex.val, declared)
		if ex.name != "" {
			r.ref(&ex.varRef, declared)
			return
		}
		r.expr(ex.target, declared)
		if ex.idx != nil {
			r.expr(ex.idx, declared)
		}
	}
}

// ref resolves one read or write of a name.
func (r *resolver) ref(v *varRef, declared []bool) {
	v.slot, v.global = -1, -1
	if slot, ok := r.slots[v.name]; ok {
		v.slot = int32(slot)
		if declared[slot] {
			return
		}
	}
	v.global = int32(r.eng.globalIndex(v.name))
}
