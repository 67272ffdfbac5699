// Command labelvet runs the repository's static-analysis suite: the
// source-level invariants behind the CDBS/QED encodings (canonical
// label comparison, code-literal validity, lock hygiene, dropped
// errors, the panic allowlist) and the concurrency/durability tier
// driven by vet: annotations (guardedby, atomicmix, ackorder,
// lockorder).
//
// Usage:
//
//	labelvet [-tags tag,...] [-only name,...] [-allowlist file] [-tests=false] packages...
//	labelvet -list
//
// Packages are patterns like ./... or ./internal/cdbs. The exit code
// is 0 when the analysis is clean, 1 when there are findings, and 2
// on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	tags := flag.String("tags", "", "comma-separated extra build tags (e.g. invariants)")
	only := flag.String("only", "", "comma-separated analyzer names to run (default all; e.g. guardedby,ackorder)")
	allowlist := flag.String("allowlist", "", "panic allowlist file (default internal/analysis/panic_allowlist.txt)")
	tests := flag.Bool("tests", true, "also analyze _test.go files")
	list := flag.Bool("list", false, "list the registered analyzers with their one-line docs and exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: labelvet [flags] packages...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		suite, err := analysis.NewSuite(analysis.SuiteConfig{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "labelvet:", err)
			os.Exit(2)
		}
		for _, a := range suite.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := analysis.Config{
		Patterns:      flag.Args(),
		IncludeTests:  *tests,
		AllowlistPath: *allowlist,
	}
	if *tags != "" {
		cfg.Tags = strings.Split(*tags, ",")
	}
	if *only != "" {
		cfg.Analyzers = strings.Split(*only, ",")
	}
	diags, err := analysis.Vet(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "labelvet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "labelvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
