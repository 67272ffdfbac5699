// Xmlupdates: label an XML document, update it without re-labeling,
// and query it — the paper's end-to-end story.
//
// The same edit sequence runs under V-CDBS-Containment (dynamic, the
// paper's contribution) and V-Binary-Containment (the compact static
// baseline), showing the re-label counts of Table 4 in miniature.
//
// Run with: go run ./examples/xmlupdates
package main

import (
	"fmt"
	"log"

	dynxml "repro"
)

const catalog = `<catalog>
  <book><title>A</title><price>10</price></book>
  <book><title>B</title><price>12</price></book>
  <book><title>C</title><price>9</price></book>
</catalog>`

func main() {
	for _, schemeName := range []string{"V-CDBS-Containment", "V-Binary-Containment"} {
		h, err := dynxml.Open(catalog, dynxml.WithScheme(schemeName))
		if err != nil {
			log.Fatal(err)
		}
		lab := h.Labeling()
		fmt.Printf("== %s ==\n", schemeName)
		fmt.Printf("labeled %d nodes, %d label bits total\n", lab.Len(), lab.TotalLabelBits())

		// Edit storm: keep inserting a new <book> before the second
		// one — the worst place for a static scheme.
		totalRelabeled := 0
		for i := 0; i < 5; i++ {
			_, relabeled, err := lab.InsertChildAt(0, 1)
			if err != nil {
				log.Fatal(err)
			}
			totalRelabeled += relabeled
		}
		fmt.Printf("5 insertions before book[2]: %d existing nodes re-labeled\n", totalRelabeled)

		// Relationship queries answered from labels alone still work
		// on the grown tree.
		tr := lab.Tree()
		secondBook := tr.Child(0, 1)
		fmt.Printf("root is parent of new node: %v, level %d\n\n",
			lab.IsParent(0, secondBook), lab.Level(secondBook))
	}

	// Path queries over the labeled document.
	doc, err := dynxml.ParseXMLString(catalog)
	if err != nil {
		log.Fatal(err)
	}
	h, err := dynxml.Open(doc, dynxml.WithScheme("V-CDBS-Containment"))
	if err != nil {
		log.Fatal(err)
	}
	engine, err := dynxml.NewEngine(doc, h.Labeling())
	if err != nil {
		log.Fatal(err)
	}
	for _, qs := range []string{
		"/catalog/book",
		"/catalog/book[2]/title",
		"//price",
		"/catalog/book[3]/preceding-sibling::book",
	} {
		q, err := dynxml.ParseQuery(qs)
		if err != nil {
			log.Fatal(err)
		}
		n, err := engine.Count(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-45s -> %d node(s)\n", qs, n)
	}
}
