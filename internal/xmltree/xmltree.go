// Package xmltree provides the ordered XML document model the
// labeling schemes operate on: element and text nodes with document
// order, parsing from XML text, structural statistics matching
// Table 2 of the CDBS paper, and structural updates (subtree insertion
// and deletion).
package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Kind distinguishes node types.
type Kind int

const (
	// Element is an XML element node.
	Element Kind = iota
	// Text is a character-data node.
	Text
	// Attr is an attribute node (Name and Data set). The paper's tree
	// model treats attributes as nodes; parsing them is opt-in via
	// ParseOptions.
	Attr
)

// Node is one node of the ordered tree.
type Node struct {
	Kind     Kind
	Name     string // element name; empty for text nodes
	Data     string // character data; empty for elements
	Parent   *Node
	Children []*Node
}

// NewElement returns a fresh element node.
func NewElement(name string) *Node { return &Node{Kind: Element, Name: name} }

// NewText returns a fresh text node.
func NewText(data string) *Node { return &Node{Kind: Text, Data: data} }

// NewAttr returns a fresh attribute node.
func NewAttr(name, value string) *Node { return &Node{Kind: Attr, Name: name, Data: value} }

// AppendChild adds child as the last child of n and returns child.
func (n *Node) AppendChild(child *Node) *Node {
	child.Parent = n
	n.Children = append(n.Children, child)
	return child
}

// InsertChildAt inserts child before position i (0 ≤ i ≤ len). It
// returns an error on a bad position.
func (n *Node) InsertChildAt(i int, child *Node) error {
	if i < 0 || i > len(n.Children) {
		return fmt.Errorf("xmltree: child position %d out of range [0,%d]", i, len(n.Children))
	}
	child.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = child
	return nil
}

// RemoveChildAt detaches and returns the i-th child.
func (n *Node) RemoveChildAt(i int) (*Node, error) {
	if i < 0 || i >= len(n.Children) {
		return nil, fmt.Errorf("xmltree: child position %d out of range [0,%d)", i, len(n.Children))
	}
	c := n.Children[i]
	n.Children = append(n.Children[:i], n.Children[i+1:]...)
	c.Parent = nil
	return c, nil
}

// ChildIndex returns the position of child among n's children, or -1.
func (n *Node) ChildIndex(child *Node) int {
	for i, c := range n.Children {
		if c == child {
			return i
		}
	}
	return -1
}

// SubtreeSize returns the number of nodes in the subtree rooted at n,
// including n.
func (n *Node) SubtreeSize() int {
	size := 1
	for _, c := range n.Children {
		size += c.SubtreeSize()
	}
	return size
}

// Document is a parsed or constructed XML document.
type Document struct {
	Root *Node
}

// ErrNoRoot reports an input without a document element.
var ErrNoRoot = errors.New("xmltree: document has no root element")

// ParseOptions controls which node kinds Parse materialises.
type ParseOptions struct {
	// IncludeAttributes turns each attribute into an Attr node,
	// ordered before the element's other children.
	IncludeAttributes bool
	// DropText skips character data entirely (element-only trees, the
	// paper's dataset accounting).
	DropText bool
}

// Parse reads an XML document. Whitespace-only character data between
// elements is dropped; attributes are ignored (the labeling
// experiments operate on elements and text, as the paper's node counts
// do). Use ParseWithOptions for attribute nodes.
func Parse(r io.Reader) (*Document, error) {
	return ParseWithOptions(r, ParseOptions{})
}

// ParseWithOptions reads an XML document with explicit node-kind
// selection.
func ParseWithOptions(r io.Reader, opts ParseOptions) (*Document, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewElement(t.Name.Local)
			if opts.IncludeAttributes {
				for _, a := range t.Attr {
					n.AppendChild(NewAttr(a.Name.Local, a.Value))
				}
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("xmltree: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("xmltree: unbalanced end element")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if opts.DropText {
				continue
			}
			s := strings.TrimSpace(string(t))
			if s == "" || len(stack) == 0 {
				continue
			}
			stack[len(stack)-1].AppendChild(NewText(s))
		}
	}
	if root == nil {
		return nil, ErrNoRoot
	}
	return &Document{Root: root}, nil
}

// ParseString parses an XML document from a string.
func ParseString(s string) (*Document, error) { return Parse(strings.NewReader(s)) }

// Walk visits every node in document (pre)order — the one definition
// of the ids a labeling and a live document know nodes by: id counts
// from 0 in that order; parent is the parent's id, -1 for the root, and
// depth the node's depth, 1 for the root.
func (d *Document) Walk(visit func(id int, n *Node, parent, depth int)) {
	next := 0
	var walk func(n *Node, parent, depth int)
	walk = func(n *Node, parent, depth int) {
		id := next
		next++
		visit(id, n, parent, depth)
		for _, c := range n.Children {
			walk(c, id, depth+1)
		}
	}
	if d.Root != nil {
		walk(d.Root, -1, 1)
	}
}

// Nodes returns every node in document (pre)order.
func (d *Document) Nodes() []*Node {
	out := make([]*Node, 0, d.Len())
	d.Walk(func(_ int, n *Node, _, _ int) { out = append(out, n) })
	return out
}

// Len returns the number of nodes.
func (d *Document) Len() int {
	if d.Root == nil {
		return 0
	}
	return d.Root.SubtreeSize()
}

// ParentVector returns, for the document-order node list, each node's
// parent index (-1 for the root) — the input format of the Prime
// scheme.
func (d *Document) ParentVector() []int {
	out := make([]int, 0, d.Len())
	d.Walk(func(_ int, _ *Node, parent, _ int) { out = append(out, parent) })
	return out
}

// Stats summarises a document the way Table 2 of the paper does.
type Stats struct {
	Nodes     int
	MaxFanout int
	AvgFanout float64 // mean children count over nodes with children
	MaxDepth  int
	AvgDepth  float64 // mean depth over all nodes; the root has depth 1
}

// Stats computes the document's structural statistics.
func (d *Document) Stats() Stats {
	var s Stats
	if d.Root == nil {
		return s
	}
	var fanSum, fanCount, depthSum int
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		s.Nodes++
		depthSum += depth
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
		if len(n.Children) > 0 {
			fanSum += len(n.Children)
			fanCount++
			if len(n.Children) > s.MaxFanout {
				s.MaxFanout = len(n.Children)
			}
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(d.Root, 1)
	if fanCount > 0 {
		s.AvgFanout = float64(fanSum) / float64(fanCount)
	}
	s.AvgDepth = float64(depthSum) / float64(s.Nodes)
	return s
}

// WriteTo serialises the document as XML text. It implements
// io.WriterTo.
func (d *Document) WriteTo(w io.Writer) (int64, error) {
	if d.Root == nil {
		return 0, ErrNoRoot
	}
	cw := &countWriter{w: w}
	err := writeNode(cw, d.Root)
	return cw.n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) WriteString(s string) error {
	n, err := io.WriteString(c.w, s)
	c.n += int64(n)
	return err
}

func writeNode(w *countWriter, n *Node) error {
	switch n.Kind {
	case Text:
		var esc strings.Builder
		if err := xml.EscapeText(&esc, []byte(n.Data)); err != nil {
			return err
		}
		return w.WriteString(esc.String())
	case Attr:
		return fmt.Errorf("xmltree: attribute node %q outside an element", n.Name)
	}
	if err := w.WriteString("<" + n.Name); err != nil {
		return err
	}
	rest := n.Children
	for len(rest) > 0 && rest[0].Kind == Attr {
		a := rest[0]
		var esc strings.Builder
		if err := xml.EscapeText(&esc, []byte(a.Data)); err != nil {
			return err
		}
		if err := w.WriteString(" " + a.Name + `="` + esc.String() + `"`); err != nil {
			return err
		}
		rest = rest[1:]
	}
	if err := w.WriteString(">"); err != nil {
		return err
	}
	for _, c := range rest {
		if c.Kind == Attr {
			return fmt.Errorf("xmltree: attribute %q after non-attribute children of <%s>", c.Name, n.Name)
		}
		if err := writeNode(w, c); err != nil {
			return err
		}
	}
	return w.WriteString("</" + n.Name + ">")
}

// String renders the document as XML text.
func (d *Document) String() string {
	var sb strings.Builder
	cw := &countWriter{w: &sb}
	if d.Root != nil {
		if err := writeNode(cw, d.Root); err != nil {
			return "<!-- " + err.Error() + " -->"
		}
	}
	return sb.String()
}
