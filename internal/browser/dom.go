// Package browser is the evaluation's Servo stand-in: a trusted-code
// "browser" whose DOM lives in PKRU-Safe's trusted heap MT and whose
// scripts run in the untrusted JavaScript engine behind call gates. Node
// records and text content are real simulated-memory objects allocated at
// instrumented sites, so the dynamic analysis discovers exactly which
// browser data flows into the engine (script sources, zero-copy text and
// attribute references) and leaves everything else protected.
package browser

import (
	"fmt"
	"strings"

	"repro/internal/vm"
)

// Node is one DOM node. The Go struct holds the tree shape; the node's
// record and text live in simulated trusted memory.
type Node struct {
	ID       uint64
	Tag      string
	Parent   *Node
	Children []*Node
	// Attrs and attrAddrs stay nil until the node's first setAttr: most
	// nodes a script creates carry no attributes.
	Attrs map[string]string

	// record is the node's 64-byte MT record:
	//   +0 id, +8 tagHash, +16 textPtr, +24 textLen,
	//   +32 childCount, +40 attrCount, +48 styleBits, +56 generation
	record vm.Addr
	// textAddr/textLen locate the node's text content buffer (0 if none).
	textAddr vm.Addr
	textLen  uint64
	// attrAddrs locates each attribute's value buffer.
	attrAddrs map[string]attrBuf
}

type attrBuf struct {
	addr vm.Addr
	len  uint64
}

const nodeRecordSize = 64

// Document is the DOM tree plus its id index.
type Document struct {
	Root   *Node
	byID   map[string]*Node
	byNode map[uint64]*Node
	nextID uint64
}

func newDocument() *Document {
	return &Document{
		byID:   make(map[string]*Node),
		byNode: make(map[uint64]*Node),
		nextID: 1,
	}
}

func (d *Document) node(id uint64) (*Node, bool) {
	n, ok := d.byNode[id]
	return n, ok
}

// CountNodes returns the number of live nodes in the tree under root.
func (d *Document) CountNodes() int { return len(d.byNode) }

// tagHash is a stable FNV-1a hash of the tag name, stored in node records.
func tagHash(tag string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	return h
}

// htmlNode is the parser's output shape before DOM materialization.
type htmlNode struct {
	tag   string
	attrs map[string]string // nil when the element has none
	text  string
	kids  []*htmlNode
}

// parseHTML parses the supported HTML subset: nested elements, double-
// quoted attributes, text, self-closing tags and comments. It returns the
// top-level nodes of the fragment.
func parseHTML(src string) ([]*htmlNode, error) {
	p := &htmlParser{src: src}
	nodes, err := p.nodes("")
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("browser: unexpected %q at offset %d", p.src[p.pos], p.pos)
	}
	return nodes, nil
}

type htmlParser struct {
	src string
	pos int
}

func (p *htmlParser) nodes(closeTag string) ([]*htmlNode, error) {
	var out []*htmlNode
	for p.pos < len(p.src) {
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				return nil, fmt.Errorf("browser: unterminated comment at %d", p.pos)
			}
			p.pos += 4 + end + 3
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "</") {
			end := strings.IndexByte(p.src[p.pos:], '>')
			if end < 0 {
				return nil, fmt.Errorf("browser: unterminated close tag at %d", p.pos)
			}
			name := strings.TrimSpace(p.src[p.pos+2 : p.pos+end])
			if name != closeTag {
				return nil, fmt.Errorf("browser: mismatched </%s>, open tag is <%s>", name, closeTag)
			}
			p.pos += end + 1
			return out, nil
		}
		if p.src[p.pos] == '<' {
			n, err := p.element()
			if err != nil {
				return nil, err
			}
			out = append(out, n)
			continue
		}
		// Text run.
		end := strings.IndexByte(p.src[p.pos:], '<')
		if end < 0 {
			end = len(p.src) - p.pos
		}
		text := strings.TrimSpace(p.src[p.pos : p.pos+end])
		p.pos += end
		if text != "" {
			out = append(out, &htmlNode{tag: "#text", text: text})
		}
	}
	if closeTag != "" {
		return nil, fmt.Errorf("browser: missing </%s>", closeTag)
	}
	return out, nil
}

func (p *htmlParser) element() (*htmlNode, error) {
	start := p.pos
	p.pos++ // '<'
	nameEnd := p.pos
	for nameEnd < len(p.src) && isTagChar(p.src[nameEnd]) {
		nameEnd++
	}
	if nameEnd == p.pos {
		return nil, fmt.Errorf("browser: bad tag at %d", start)
	}
	n := &htmlNode{tag: strings.ToLower(p.src[p.pos:nameEnd])}
	p.pos = nameEnd
	// Attributes.
	for {
		for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\n' || p.src[p.pos] == '\t' || p.src[p.pos] == '\r') {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("browser: unterminated tag <%s>", n.tag)
		}
		if strings.HasPrefix(p.src[p.pos:], "/>") {
			p.pos += 2
			return n, nil
		}
		if p.src[p.pos] == '>' {
			p.pos++
			kids, err := p.nodes(n.tag)
			if err != nil {
				return nil, err
			}
			n.kids = kids
			return n, nil
		}
		keyEnd := p.pos
		for keyEnd < len(p.src) && isTagChar(p.src[keyEnd]) {
			keyEnd++
		}
		if keyEnd == p.pos {
			return nil, fmt.Errorf("browser: bad attribute in <%s> at %d", n.tag, p.pos)
		}
		key := strings.ToLower(p.src[p.pos:keyEnd])
		p.pos = keyEnd
		if n.attrs == nil {
			n.attrs = make(map[string]string)
		}
		if p.pos < len(p.src) && p.src[p.pos] == '=' {
			p.pos++
			if p.pos >= len(p.src) || p.src[p.pos] != '"' {
				return nil, fmt.Errorf("browser: attribute %q needs a double-quoted value", key)
			}
			p.pos++
			vEnd := strings.IndexByte(p.src[p.pos:], '"')
			if vEnd < 0 {
				return nil, fmt.Errorf("browser: unterminated attribute value for %q", key)
			}
			n.attrs[key] = p.src[p.pos : p.pos+vEnd]
			p.pos += vEnd + 1
		} else {
			n.attrs[key] = ""
		}
	}
}

func isTagChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_'
}
