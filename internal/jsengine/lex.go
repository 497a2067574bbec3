// Package jsengine is the untrusted JavaScript engine of the evaluation:
// a from-scratch interpreter for a JavaScript subset ("mjs") standing in
// for SpiderMonkey. Script-visible arrays are backed by buffers in the
// shared pool MU and accessed exclusively through the PKRU-checked thread
// view, so the engine is subject to exactly the memory discipline the
// paper enforces on unsafe library code.
//
// The engine deliberately contains one memory-safety bug — the analogue
// of CVE-2019-11707 used in the paper's security evaluation (§5.4): the
// Array setLength builtin updates an array's length without revalidating
// its capacity, yielding an out-of-bounds primitive inside MU that an
// exploit script can escalate (by corrupting a neighbouring array's
// backing pointer) into arbitrary reads and writes. With PKRU-Safe's
// enforcement on, the escalated write into trusted memory MT faults.
//
// Each Eval parses the script, resolves it once and then interprets the
// tree. The resolve pass (resolve.go) gives every function a frame of
// slots for its params and vars and every name its slot, or its index in
// the engine's global table; operators are parsed to opcodes. Scoping is
// function-level but partly dynamic, as the engine has always had it: a
// var shadows the global of the same name only once the var statement has
// run in the current call. Each slot carries a declared bit for that, and
// a name whose slot is not yet declared falls through to the global.
// Nested function declarations are global functions and see no outer
// locals.
package jsengine

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokNum
	tokStr
	tokIdent
	tokKeyword
	tokPunct
)

type token struct {
	kind tokKind
	text string
	num  float64
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokNum:
		return t.text
	case tokStr:
		return strconv.Quote(t.text)
	default:
		return t.text
	}
}

var keywords = map[string]bool{
	"var": true, "function": true, "return": true, "if": true, "else": true,
	"while": true, "for": true, "true": true, "false": true, "null": true,
	"break": true, "continue": true, "new": true,
}

// SyntaxError reports a script syntax error.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("jsengine: line %d: %s", e.Line, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// punctuators, longest first so the lexer is greedy.
var puncts = []string{
	"===", "!==", "<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=",
	"+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
	"(", ")", "{", "}", "[", "]", ",", ";", ".", "?", ":",
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return token{}, &SyntaxError{Line: l.line, Msg: "unterminated block comment"}
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			goto tokenStart
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

tokenStart:
	c := l.src[l.pos]
	start, line := l.pos, l.line
	switch {
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber(start, line)
	case c == '"' || c == '\'':
		return l.lexString(c, line)
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{kind: kind, text: text, line: line}, nil
	default:
		for _, p := range puncts {
			if strings.HasPrefix(l.src[l.pos:], p) {
				l.pos += len(p)
				return token{kind: tokPunct, text: p, line: line}, nil
			}
		}
		return token{}, &SyntaxError{Line: line, Msg: fmt.Sprintf("unexpected character %q", c)}
	}
}

func (l *lexer) lexNumber(start, line int) (token, error) {
	isHex := strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X")
	if isHex {
		l.pos += 2
		for l.pos < len(l.src) && isHexDigit(l.src[l.pos]) {
			l.pos++
		}
		v, err := strconv.ParseUint(l.src[start+2:l.pos], 16, 64)
		if err != nil {
			return token{}, &SyntaxError{Line: line, Msg: "bad hex literal " + l.src[start:l.pos]}
		}
		return token{kind: tokNum, text: l.src[start:l.pos], num: float64(v), line: line}, nil
	}
	for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
		((l.src[l.pos] == '+' || l.src[l.pos] == '-') && l.pos > start && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
		l.pos++
	}
	v, err := strconv.ParseFloat(l.src[start:l.pos], 64)
	if err != nil {
		return token{}, &SyntaxError{Line: line, Msg: "bad number literal " + l.src[start:l.pos]}
	}
	return token{kind: tokNum, text: l.src[start:l.pos], num: v, line: line}, nil
}

func (l *lexer) lexString(quote byte, line int) (token, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return token{kind: tokStr, text: b.String(), line: line}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				break
			}
			switch e := l.src[l.pos]; e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\', '"', '\'':
				b.WriteByte(e)
			case '0':
				b.WriteByte(0)
			default:
				return token{}, &SyntaxError{Line: l.line, Msg: fmt.Sprintf("unknown escape \\%c", e)}
			}
			l.pos++
		case '\n':
			return token{}, &SyntaxError{Line: line, Msg: "unterminated string"}
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return token{}, &SyntaxError{Line: line, Msg: "unterminated string"}
}

func isDigit(c byte) bool    { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool { return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' }

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool { return isIdentStart(r) || unicode.IsDigit(r) }
