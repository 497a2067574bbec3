package jsengine

import "fmt"

type parser struct {
	toks []token
	pos  int
}

func parseScript(src string) ([]stmt, error) {
	lx := newLexer(src)
	var toks []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			break
		}
	}
	p := &parser{toks: toks}
	var prog []stmt
	for !p.atEOF() {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog = append(prog, s)
	}
	return prog, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.cur().line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

// accept consumes the punctuator or keyword if present.
func (p *parser) accept(text string) bool {
	t := p.cur()
	if (t.kind == tokPunct || t.kind == tokKeyword) && t.text == text {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, got %q", text, p.cur().String())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.String())
	}
	p.advance()
	return t.text, nil
}

func (p *parser) statement() (stmt, error) {
	t := p.cur()
	switch {
	case t.kind == tokKeyword && t.text == "var":
		s, err := p.varStatement()
		if err != nil {
			return nil, err
		}
		return s, p.expect(";")
	case t.kind == tokKeyword && t.text == "function":
		return p.funcStatement()
	case t.kind == tokKeyword && t.text == "return":
		p.advance()
		s := &returnStmt{line: t.line}
		if !p.accept(";") {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			s.val = e
			return s, p.expect(";")
		}
		return s, nil
	case t.kind == tokKeyword && t.text == "if":
		return p.ifStatement()
	case t.kind == tokKeyword && t.text == "while":
		return p.whileStatement()
	case t.kind == tokKeyword && t.text == "for":
		return p.forStatement()
	case t.kind == tokKeyword && t.text == "break":
		p.advance()
		return &breakStmt{line: t.line}, p.expect(";")
	case t.kind == tokKeyword && t.text == "continue":
		p.advance()
		return &continueStmt{line: t.line}, p.expect(";")
	case t.kind == tokPunct && t.text == "{":
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &blockStmt{body: body, line: t.line}, nil
	case t.kind == tokPunct && t.text == ";":
		p.advance()
		return &blockStmt{line: t.line}, nil
	default:
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		return &exprStmt{e: e, line: t.line}, p.expect(";")
	}
}

// varStatement parses "var name [= expr]" without the trailing semicolon
// (the for-loop initializer reuses it).
func (p *parser) varStatement() (stmt, error) {
	line := p.cur().line
	p.advance() // var
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &varDecl{varRef: varRef{name: name}, line: line}
	if p.accept("=") {
		if d.init, err = p.expression(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *parser) funcStatement() (stmt, error) {
	line := p.cur().line
	p.advance() // function
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.accept(")") {
		if len(params) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		pn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		params = append(params, pn)
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &funcDecl{name: name, params: params, body: body, line: line}, nil
}

func (p *parser) ifStatement() (stmt, error) {
	line := p.cur().line
	p.advance() // if
	if err := p.expect("("); err != nil {
		return nil, err
	}
	test, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.blockOrSingle()
	if err != nil {
		return nil, err
	}
	s := &ifStmt{test: test, then: then, line: line}
	if p.accept("else") {
		if s.els, err = p.blockOrSingle(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) whileStatement() (stmt, error) {
	line := p.cur().line
	p.advance() // while
	if err := p.expect("("); err != nil {
		return nil, err
	}
	test, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.blockOrSingle()
	if err != nil {
		return nil, err
	}
	return &whileStmt{test: test, body: body, line: line}, nil
}

func (p *parser) forStatement() (stmt, error) {
	line := p.cur().line
	p.advance() // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	s := &forStmt{line: line}
	if !p.accept(";") {
		var err error
		if p.cur().kind == tokKeyword && p.cur().text == "var" {
			s.init, err = p.varStatement()
		} else {
			var e expr
			e, err = p.expression()
			s.init = &exprStmt{e: e, line: line}
		}
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.accept(";") {
		var err error
		if s.test, err = p.expression(); err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if p.cur().text != ")" {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		s.post = &exprStmt{e: e, line: line}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.blockOrSingle()
	if err != nil {
		return nil, err
	}
	s.body = body
	return s, nil
}

func (p *parser) block() ([]stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var body []stmt
	for !p.accept("}") {
		if p.atEOF() {
			return nil, p.errf("unterminated block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
	}
	return body, nil
}

func (p *parser) blockOrSingle() ([]stmt, error) {
	if p.cur().text == "{" && p.cur().kind == tokPunct {
		return p.block()
	}
	s, err := p.statement()
	if err != nil {
		return nil, err
	}
	return []stmt{s}, nil
}

// Expression parsing: assignment > ternary > binary (precedence climbing)
// > unary > postfix (index / member) > primary.

func (p *parser) expression() (expr, error) { return p.assignment() }

// assignOps maps each assignment token to the operator it applies.
var assignOps = map[string]opcode{
	"=": opAssign, "+=": opAdd, "-=": opSub, "*=": opMul, "/=": opDiv, "%=": opMod,
	"|=": opBitOr, "&=": opBitAnd, "^=": opBitXor, "<<=": opShl, ">>=": opShr,
}

func (p *parser) assignment() (expr, error) {
	lhs, err := p.ternary()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if op, ok := assignOps[t.text]; ok && t.kind == tokPunct {
		p.advance()
		rhs, err := p.assignment()
		if err != nil {
			return nil, err
		}
		switch target := lhs.(type) {
		case *ident:
			return &assign{varRef: varRef{name: target.name}, op: op, val: rhs, line: t.line}, nil
		case *indexExpr:
			return &assign{target: target.base, idx: target.idx, op: op, val: rhs, line: t.line}, nil
		case *memberGet:
			return &assign{target: target.base, prop: target.prop, op: op, val: rhs, line: t.line}, nil
		default:
			return nil, &SyntaxError{Line: t.line, Msg: "invalid assignment target"}
		}
	}
	return lhs, nil
}

func (p *parser) ternary() (expr, error) {
	test, err := p.binaryExpr(0)
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokPunct && p.cur().text == "?" {
		line := p.advance().line
		then, err := p.assignment()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		els, err := p.assignment()
		if err != nil {
			return nil, err
		}
		return &cond{test: test, then: then, els: els, line: line}, nil
	}
	return test, nil
}

// binOps maps each binary operator token to its precedence and opcode.
// === and !== are == and !=: the engine's == never coerces.
var binOps = map[string]struct {
	prec int
	op   opcode
}{
	"||": {1, opOr}, "&&": {2, opAnd},
	"|": {3, opBitOr}, "^": {4, opBitXor}, "&": {5, opBitAnd},
	"==": {6, opEq}, "!=": {6, opNe}, "===": {6, opEq}, "!==": {6, opNe},
	"<": {7, opLt}, "<=": {7, opLe}, ">": {7, opGt}, ">=": {7, opGe},
	"<<": {8, opShl}, ">>": {8, opShr},
	"+": {9, opAdd}, "-": {9, opSub},
	"*": {10, opMul}, "/": {10, opDiv}, "%": {10, opMod},
}

func (p *parser) binaryExpr(minPrec int) (expr, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		bin, isBin := binOps[t.text]
		if t.kind != tokPunct || !isBin || bin.prec < minPrec {
			return lhs, nil
		}
		p.advance()
		rhs, err := p.binaryExpr(bin.prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &binary{op: bin.op, x: lhs, y: rhs, line: t.line}
	}
}

func (p *parser) unaryExpr() (expr, error) {
	t := p.cur()
	if t.kind == tokPunct && (t.text == "-" || t.text == "!" || t.text == "~" || t.text == "+") {
		p.advance()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		if t.text == "+" {
			return x, nil
		}
		return &unary{op: t.text, x: x, line: t.line}, nil
	}
	if t.kind == tokPunct && (t.text == "++" || t.text == "--") {
		// Prefix increment: ++x desugars to (x += 1).
		p.advance()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		op := opAdd
		if t.text == "--" {
			op = opSub
		}
		switch target := x.(type) {
		case *ident:
			return &assign{varRef: varRef{name: target.name}, op: op, val: &numLit{val: 1, line: t.line}, line: t.line}, nil
		case *indexExpr:
			return &assign{target: target.base, idx: target.idx, op: op, val: &numLit{val: 1, line: t.line}, line: t.line}, nil
		default:
			return nil, &SyntaxError{Line: t.line, Msg: "invalid increment target"}
		}
	}
	return p.postfix()
}

func (p *parser) postfix() (expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case t.kind == tokPunct && t.text == "[":
			p.advance()
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &indexExpr{base: e, idx: idx, line: t.line}
		case t.kind == tokPunct && t.text == ".":
			p.advance()
			prop, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if p.cur().text == "(" && p.cur().kind == tokPunct {
				args, err := p.argList()
				if err != nil {
					return nil, err
				}
				e = &memberCall{base: e, method: prop, args: args, line: t.line}
			} else {
				e = &memberGet{base: e, prop: prop, line: t.line}
			}
		case t.kind == tokPunct && (t.text == "++" || t.text == "--"):
			// Postfix increment as statement-level sugar: value semantics
			// of the pre-increment form (sufficient for our scripts' use
			// in for-loop post clauses).
			p.advance()
			op := opAdd
			if t.text == "--" {
				op = opSub
			}
			switch target := e.(type) {
			case *ident:
				e = &assign{varRef: varRef{name: target.name}, op: op, val: &numLit{val: 1, line: t.line}, line: t.line}
			case *indexExpr:
				e = &assign{target: target.base, idx: target.idx, op: op, val: &numLit{val: 1, line: t.line}, line: t.line}
			default:
				return nil, &SyntaxError{Line: t.line, Msg: "invalid increment target"}
			}
		default:
			return e, nil
		}
	}
}

func (p *parser) argList() ([]expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var args []expr
	for !p.accept(")") {
		if len(args) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		a, err := p.expression()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	return args, nil
}

// objectLiteral parses {k: v, "k2": v2, ...}.
func (p *parser) objectLiteral() (expr, error) {
	line := p.cur().line
	p.advance() // '{'
	lit := &objectLit{line: line}
	for !p.accept("}") {
		if len(lit.keys) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		t := p.cur()
		var key string
		switch {
		case t.kind == tokIdent || t.kind == tokKeyword:
			key = t.text
			p.advance()
		case t.kind == tokStr:
			key = t.text
			p.advance()
		default:
			return nil, p.errf("expected property name, got %q", t.String())
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		lit.keys = append(lit.keys, key)
		lit.vals = append(lit.vals, v)
	}
	return lit, nil
}

func (p *parser) primary() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNum:
		p.advance()
		return &numLit{val: t.num, line: t.line}, nil
	case t.kind == tokStr:
		p.advance()
		return &strLit{val: t.text, line: t.line}, nil
	case t.kind == tokKeyword && (t.text == "true" || t.text == "false"):
		p.advance()
		return &boolLit{val: t.text == "true", line: t.line}, nil
	case t.kind == tokKeyword && t.text == "null":
		p.advance()
		return &nullLit{line: t.line}, nil
	case t.kind == tokKeyword && t.text == "new":
		p.advance()
		class, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		args, err := p.argList()
		if err != nil {
			return nil, err
		}
		return &newExpr{class: class, args: args, line: t.line}, nil
	case t.kind == tokIdent:
		p.advance()
		if p.cur().kind == tokPunct && p.cur().text == "(" {
			args, err := p.argList()
			if err != nil {
				return nil, err
			}
			return &callExpr{callee: t.text, args: args, line: t.line}, nil
		}
		return &ident{varRef: varRef{name: t.text}, line: t.line}, nil
	case t.kind == tokPunct && t.text == "(":
		p.advance()
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		return e, p.expect(")")
	case t.kind == tokPunct && t.text == "{":
		return p.objectLiteral()
	case t.kind == tokPunct && t.text == "[":
		p.advance()
		lit := &arrayLit{line: t.line}
		for !p.accept("]") {
			if len(lit.elems) > 0 {
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			lit.elems = append(lit.elems, e)
		}
		return lit, nil
	default:
		return nil, p.errf("unexpected token %q", t.String())
	}
}
