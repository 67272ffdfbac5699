// Command dynxml is the offline tool: it labels, queries and generates
// XML documents in-process, without a server or a journal.
//
// Usage:
//
//	dynxml label -hamlet -scheme all -insert-before-act 1
//	dynxml label -dataset D5 -scheme V-CDBS-Containment
//	dynxml query -file doc.xml -scheme QED-Prefix '/root/item[2]'
//	dynxml query -dataset D5 -scale 10 -scheme Prime -q6   # the Table 3 suite
//	dynxml query -explain -hamlet '/play/*//line'
//	dynxml gen -dataset D5 -out /tmp/d5
//	dynxml gen -dataset all -out /tmp/corpus -limit 5
//
// label reports label storage statistics for one or all schemes (a
// one-document slice of Figure 5), query times label-driven path
// evaluation (an interactive slice of Figure 6), and gen materialises
// the synthetic evaluation datasets (Table 2 stand-ins) as XML files.
// Every subcommand selects its input with the same flags: -file,
// -dataset (D1..D6, with -scale for D5) or -hamlet.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/registry"
	"repro/internal/scheme"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpath/plan"
)

// errUsage marks a failure of the command line rather than of the
// work: exit status 2, like the flag package's own errors.
var errUsage = errors.New("usage")

func main() {
	cmds := map[string]func([]string) error{"label": label, "query": query, "gen": gen}
	if len(os.Args) < 2 || cmds[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: dynxml label|query|gen [flags] [queries...]")
		os.Exit(2)
	}
	if err := cmds[os.Args[1]](os.Args[2:]); err != nil {
		fmt.Fprintf(os.Stderr, "dynxml %s: %v\n", os.Args[1], err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// source is the document selection every subcommand shares.
type source struct {
	file, dataset string
	hamlet        bool
	scale         int
}

func (s *source) register(fs *flag.FlagSet) {
	fs.StringVar(&s.file, "file", "", "XML file to read")
	fs.StringVar(&s.dataset, "dataset", "", "generated dataset (D1..D6, or hamlet)")
	fs.BoolVar(&s.hamlet, "hamlet", false, "the generated Hamlet document")
	fs.IntVar(&s.scale, "scale", 1, "replication factor for -dataset D5")
}

// name is the selection's short name: "hamlet", the dataset, or the
// file path.
func (s *source) name() string {
	switch {
	case s.hamlet || s.dataset == "hamlet":
		return "hamlet"
	case s.file != "":
		return s.file
	}
	return s.dataset
}

// load resolves the selection to its documents.
func (s *source) load() ([]*xmltree.Document, error) {
	switch {
	case s.name() == "hamlet":
		return []*xmltree.Document{datagen.Hamlet()}, nil
	case s.file != "":
		f, err := os.Open(s.file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		doc, err := xmltree.Parse(f)
		if err != nil {
			return nil, err
		}
		return []*xmltree.Document{doc}, nil
	case s.dataset == "D5" && s.scale != 1:
		return datagen.D5(s.scale).Files, nil
	case s.dataset != "":
		ds, err := datagen.Generate(s.dataset)
		if err != nil {
			return nil, err
		}
		return ds.Files, nil
	}
	return nil, fmt.Errorf("%w: one of -file, -dataset or -hamlet is required", errUsage)
}

// lookupScheme resolves a -scheme value; an unknown name is a usage
// error whose text lists the known ones.
func lookupScheme(name string) (registry.Entry, error) {
	e, err := registry.Lookup(name)
	if errors.Is(err, registry.ErrUnknownScheme) {
		err = fmt.Errorf("%w: %v", errUsage, err)
	}
	return e, err
}

func label(args []string) error {
	fs := flag.NewFlagSet("label", flag.ExitOnError)
	var src source
	src.register(fs)
	schemeName := fs.String("scheme", "all", "scheme name from the registry, or 'all'")
	insertAct := fs.Int("insert-before-act", 0, "with -hamlet: insert an element before act[i] and report re-labels")
	_ = fs.Parse(args) // ExitOnError
	docs, err := src.load()
	if err != nil {
		return err
	}
	entries := registry.All()
	if *schemeName != "all" {
		e, err := lookupScheme(*schemeName)
		if err != nil {
			return err
		}
		entries = []registry.Entry{e}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "input: %s (%d file(s))\n", src.name(), len(docs))
	fmt.Fprintln(w, "Scheme\tnodes\ttotal label bits\tbits/node\trelabels\tordered")
	for _, entry := range entries {
		var total int64
		nodes := 0
		rel := "-"
		ordered := false // whether the labels can key a paged index
		for _, doc := range docs {
			lab, err := entry.Build(doc)
			if err != nil {
				return err
			}
			ordered = scheme.Ordered(lab)
			total += lab.TotalLabelBits()
			nodes += lab.Len()
			if src.name() == "hamlet" && *insertAct >= 1 && *insertAct <= 5 {
				_, n, err := scheme.InsertSiblingBefore(lab, actIDs(doc)[*insertAct-1])
				if err != nil {
					return err
				}
				rel = fmt.Sprint(n)
			}
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f\t%s\t%t\n", entry.Name, nodes, total, float64(total)/float64(nodes), rel, ordered)
	}
	return w.Flush()
}

// actIDs returns the node ids of act children of the root.
func actIDs(doc *xmltree.Document) []int {
	var acts []int
	for i, n := range doc.Nodes() {
		if n.Kind == xmltree.Element && n.Name == "act" && n.Parent == doc.Root {
			acts = append(acts, i)
		}
	}
	return acts
}

func query(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var src source
	src.register(fs)
	schemeName := fs.String("scheme", "V-CDBS-Containment", "labeling scheme")
	suite := fs.Bool("q6", false, "run the paper's Q1-Q6 suite instead of argument queries")
	explain := fs.Bool("explain", false, "print the planner's EXPLAIN tree per query (per file) instead of the timing table")
	_ = fs.Parse(args) // ExitOnError

	var queries []*xpath.Query
	texts := fs.Args()
	if *suite {
		for _, q := range bench.Queries() {
			texts = append(texts, q.Path)
		}
	}
	if len(texts) == 0 {
		return fmt.Errorf("%w: no queries given (pass paths as arguments or -q6)", errUsage)
	}
	for _, text := range texts {
		q, err := xpath.Parse(text)
		if err != nil {
			return err
		}
		queries = append(queries, q)
	}
	docs, err := src.load()
	if err != nil {
		return err
	}
	entry, err := lookupScheme(*schemeName)
	if err != nil {
		return err
	}

	start := time.Now()
	var corpus xpath.Corpus
	for _, doc := range docs {
		lab, err := entry.Build(doc)
		if err != nil {
			return err
		}
		e, err := xpath.NewEngine(doc, lab)
		if err != nil {
			return err
		}
		corpus = append(corpus, e)
	}
	fmt.Printf("indexed %d file(s) with %s in %v\n\n", len(docs), entry.Name, time.Since(start).Round(time.Millisecond))

	if *explain {
		for _, q := range queries {
			for i, e := range corpus {
				if len(corpus) > 1 {
					fmt.Printf("-- file %d --\n", i+1)
				}
				rep, err := plan.NewCache().Explain(e, 0, q) // each file its own engine, and cache
				if err != nil {
					return err
				}
				fmt.Print(rep.String())
			}
			fmt.Println()
		}
		return nil
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Query\tmatches\ttime")
	for i, q := range queries {
		t0 := time.Now()
		n, err := corpus.Count(q)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%v\n", texts[i], n, time.Since(t0).Round(time.Microsecond))
	}
	return w.Flush()
}

func gen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var src source
	src.register(fs)
	out := fs.String("out", "", "output directory (created if missing)")
	limit := fs.Int("limit", 0, "write at most this many files per dataset (0 = all)")
	_ = fs.Parse(args) // ExitOnError
	if *out == "" {
		return fmt.Errorf("%w: -out is required", errUsage)
	}
	if src.dataset != "all" {
		return genOne(src, *out, *limit)
	}
	for _, name := range []string{"D1", "D2", "D3", "D4", "D5", "D6", "hamlet"} {
		one := src
		one.dataset = name
		if err := genOne(one, *out, *limit); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// genOne writes one selection's files under dir/<name>/.
func genOne(src source, dir string, limit int) error {
	files, err := src.load()
	if err != nil {
		return err
	}
	if limit > 0 && limit < len(files) {
		files = files[:limit]
	}
	name := strings.TrimSuffix(filepath.Base(src.name()), ".xml")
	target := filepath.Join(dir, name)
	if err := os.MkdirAll(target, 0o755); err != nil {
		return err
	}
	total := 0
	for i, doc := range files {
		f, err := os.Create(filepath.Join(target, fmt.Sprintf("%s-%04d.xml", name, i)))
		if err != nil {
			return err
		}
		if _, err := doc.WriteTo(f); err != nil {
			_ = f.Close() // best-effort: the write error is the one to report
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		total += doc.Len()
	}
	fmt.Printf("%s: wrote %d files, %d nodes, under %s\n", name, len(files), total, target)
	return nil
}
