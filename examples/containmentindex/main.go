// Containmentindex: a structural element index over a generated
// Shakespeare play, compared across endpoint codecs.
//
// It labels the same document with four containment variants, runs
// the same structural-join queries under each, and prints storage and
// response times side by side — Figure 5 and Figure 6 in miniature on
// one file.
//
// Run with: go run ./examples/containmentindex
package main

import (
	"fmt"
	"log"
	"text/tabwriter"
	"time"

	"os"

	dynxml "repro"
	"repro/internal/datagen"
	"repro/internal/scheme"
)

func main() {
	doc := datagen.Hamlet()
	queries := []string{
		"/play/act[4]",
		"//act/scene/speech",
		"/play/*//line",
		"//act[2]/following::speaker",
	}
	schemes := []string{
		"V-CDBS-Containment",
		"F-CDBS-Containment",
		"QED-Containment",
		"Float-point-Containment",
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Hamlet stand-in: %d element nodes\n\n", doc.Len())
	fmt.Fprint(w, "Codec\tbits/node")
	for _, q := range queries {
		fmt.Fprintf(w, "\t%s", q)
	}
	fmt.Fprintln(w)

	for _, sn := range schemes {
		h, err := dynxml.Open(doc, dynxml.WithScheme(sn))
		if err != nil {
			log.Fatal(err)
		}
		lab := h.Labeling()
		engine, err := dynxml.NewEngine(doc, lab)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%.1f", sn, float64(lab.TotalLabelBits())/float64(lab.Len()))
		for _, qs := range queries {
			q, err := dynxml.ParseQuery(qs)
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			n, err := engine.Count(q)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(w, "\t%d in %v", n, time.Since(start).Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	// The point of the dynamic codecs: a hot insertion spot never
	// forces a re-label, so the index stays valid incrementally.
	fmt.Println("\n1000 insertions at one fixed place (worst case):")
	for _, sn := range schemes {
		h, err := dynxml.Open(doc, dynxml.WithScheme(sn))
		if err != nil {
			log.Fatal(err)
		}
		lab := h.Labeling()
		acts := lab.Tree().Kids(0)
		relabeled := 0
		start := time.Now()
		for i := 0; i < 1000; i++ {
			_, n, err := scheme.InsertSiblingBefore(lab, acts[2])
			if err != nil {
				log.Fatal(err)
			}
			relabeled += n
		}
		fmt.Printf("  %-26s %8v total, %7d nodes re-labeled\n", sn, time.Since(start).Round(time.Millisecond), relabeled)
	}
}
