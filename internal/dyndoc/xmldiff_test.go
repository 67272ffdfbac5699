package dyndoc

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/containment"
	"repro/internal/datagen"
	"repro/internal/keys"
	"repro/internal/xmltree"
)

// TestXMLMatchesEditedTree is the differential test for serialising
// from the labeling's tree and the columns: after every stretch of a
// 500-edit script, Document.XML must equal, byte for byte, String of
// an xmltree that the model edits in parallel — for a file of every
// generated dataset, salted with text nodes, and for a document parsed
// with attribute nodes, where an insert ahead of an attribute makes
// both serialisers report the same misplaced-attribute comment.
func TestXMLMatchesEditedTree(t *testing.T) {
	docs := map[string]*xmltree.Document{}
	for _, spec := range datagen.Specs() {
		ds, err := datagen.Generate(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		// Datasets are element-only; give every third leaf a text child.
		doc := &xmltree.Document{Root: cloneTree(ds.Files[0].Root)}
		for i, n := range doc.Nodes() {
			if len(n.Children) == 0 && i%3 == 0 {
				n.AppendChild(xmltree.NewText("text <" + n.Name + "> & more"))
			}
		}
		docs[spec.Name] = doc
	}
	attrs, err := xmltree.ParseWithOptions(strings.NewReader(
		`<catalog version="2" note="a &lt; b"><item id="1" lang="en">first<sub k="v"/></item><item id="2">second</item><empty/></catalog>`),
		xmltree.ParseOptions{IncludeAttributes: true})
	if err != nil {
		t.Fatal(err)
	}
	docs["attributes"] = attrs

	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			m := newModel(&xmltree.Document{Root: cloneTree(doc.Root)})
			d, err := New(doc, containment.Build(keys.VCDBS()))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(name))))
			// The attribute document is small: compare after every
			// edit, so that both its renderings are seen.
			every := 50
			if name == "attributes" {
				every = 1
			}
			sawAttr, sawMisplaced := false, false
			for i := 0; i <= 500; i++ {
				if i > 0 {
					e := randomEdit(rng, m, true)
					if _, err := d.ApplyBatch([]Edit{e}); err != nil {
						t.Fatalf("edit %d: %v", i, err)
					}
					m.apply(t, e)
				}
				if i%every == 0 {
					got, want := d.XML(), m.doc.String()
					if got != want {
						t.Fatalf("after %d edits: XML\n got %s\nwant %s", i, got, want)
					}
					sawAttr = sawAttr || strings.Contains(got, `="`)
					sawMisplaced = sawMisplaced || strings.HasPrefix(got, "<!-- ")
				}
			}
			if name == "attributes" && !(sawAttr && sawMisplaced) {
				t.Errorf("rendered attributes: %v, rendered a misplaced attribute: %v; want both", sawAttr, sawMisplaced)
			}
		})
	}
}
