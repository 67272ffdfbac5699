package main

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// insertName is the element name every benchmark insert uses. No
// generated document contains it, so the verifier can count surviving
// inserts with one query.
const insertName = "ins"

// querySpec is one query shape of a workload's mix.
type querySpec struct {
	path  string
	heavy bool
	// parsed serves the rungs below Handle.QueryString, which take a
	// parsed query.
	parsed *xpath.Query
}

func mustQueries(light, heavy []string) ([]querySpec, error) {
	var out []querySpec
	add := func(paths []string, isHeavy bool) error {
		for _, p := range paths {
			q, err := xpath.Parse(p)
			if err != nil {
				return fmt.Errorf("query %q: %w", p, err)
			}
			out = append(out, querySpec{path: p, heavy: isHeavy, parsed: q})
		}
		return nil
	}
	if err := add(light, false); err != nil {
		return nil, err
	}
	if err := add(heavy, true); err != nil {
		return nil, err
	}
	return out, nil
}

// cloneNode deep-copies an element tree.
func cloneNode(n *xmltree.Node) *xmltree.Node {
	out := &xmltree.Node{Kind: n.Kind, Name: n.Name, Data: n.Data}
	for _, c := range n.Children {
		out.AppendChild(cloneNode(c))
	}
	return out
}

// parentShape describes one editable parent of a template document:
// how many children it starts with. A template lists them in document
// order.
type parentShape struct {
	children int
}

// template is a workload's generated document: the pristine tree
// (never handed to the system — every consumer gets a copy), its XML
// text, its element count and the editable parents in document order.
type template struct {
	root       *xmltree.Node
	xml        string
	elements   int
	parentName string
	parents    []parentShape
}

func newTemplate(root *xmltree.Node, parentName string) *template {
	t := &template{root: root, parentName: parentName}
	doc := &xmltree.Document{Root: root}
	t.xml = doc.String()
	for _, n := range doc.Nodes() {
		if n.Kind != xmltree.Element {
			continue
		}
		t.elements++
		if n.Name == parentName {
			t.parents = append(t.parents, parentShape{children: len(n.Children)})
		}
	}
	return t
}

// fresh returns a private copy of the template document.
func (t *template) fresh() *xmltree.Document {
	return &xmltree.Document{Root: cloneNode(t.root)}
}

// playsTemplate is the first n plays of the Shakespeare dataset (D5)
// under one "plays" root: 15 317 elements for n = 3, 50 825 for n = 10.
func playsTemplate(n int) (*template, error) {
	files := datagen.D5(1).Files
	if n > len(files) {
		return nil, fmt.Errorf("D5 has %d plays, want %d", len(files), n)
	}
	root := xmltree.NewElement("plays")
	for _, f := range files[:n] {
		root.AppendChild(cloneNode(f.Root))
	}
	return newTemplate(root, "speech"), nil
}

// orderTemplate is one tenant document: an order of 100 items with
// four fields each, 501 elements.
func orderTemplate() *template {
	root := xmltree.NewElement("order")
	for i := 0; i < 100; i++ {
		item := xmltree.NewElement("item")
		for _, f := range []string{"sku", "qty", "price", "note"} {
			item.AppendChild(xmltree.NewElement(f))
		}
		root.AppendChild(item)
	}
	return newTemplate(root, "item")
}

// hamletTemplate is the paper's Hamlet file, 6 636 elements.
func hamletTemplate() *template {
	return newTemplate(datagen.Hamlet().Root, "speech")
}

// speechFragment is the 5-node subtree label-updates inserts.
func speechFragment() *xmltree.Node {
	sp := xmltree.NewElement(insertName)
	sp.AppendChild(xmltree.NewElement("speaker"))
	for i := 0; i < 3; i++ {
		sp.AppendChild(xmltree.NewElement("line"))
	}
	return sp
}

var (
	playsLight = []string{
		"/plays/play/act[4]",
		"/plays/play/title",
		"//personae/pgroup/persona",
		"/plays/play/personae/persona[12]/preceding-sibling::*",
	}
	playsHeavy = []string{
		"//act/scene/speech",
		"//act[2]/following::speaker",
	}
	// playsScans are the per-name scans of embed-paged: each is one
	// name's whole id list, the read that goes straight to the index.
	// Five of them beside the four light queries make nine shapes drawn
	// alike, so that the median read lies inside the fifth-cheapest
	// shape's latencies; with eight it lay on the edge between two shapes
	// and jumped from one to the other (21 to 29 us) between runs.
	playsScans = []string{
		"//act",
		"//pgroup",
		"//persona",
		"//scene",
		"//stagedir",
	}
	orderLight = []string{
		"/order/item[4]",
		"/order/item/sku",
		"//item/note",
		"/order/item[12]/preceding-sibling::*",
	}
	// hamletLight and hamletHeavy are Q1-Q5 of the paper's Table 3.
	hamletLight = []string{
		"/play/act[4]",
		"/play//personae[./title]/pgroup[.//grpdescr]/persona",
		"/play/personae/persona[12]/preceding-sibling::*",
	}
	hamletHeavy = []string{
		"//act[2]/following::speaker",
		"//act/scene/speech",
	}
)
