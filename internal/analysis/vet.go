package analysis

import "fmt"

// Config parameterizes one run of the suite.
type Config struct {
	// Dir is any directory inside the module; the module root is
	// found by walking up to go.mod. Empty means the current
	// directory.
	Dir string

	// Patterns are package patterns: "./...", "./internal/cdbs",
	// "repro/internal/qed", or "./dir/...".
	Patterns []string

	// Tags are extra build tags (e.g. "invariants").
	Tags []string

	// IncludeTests loads _test.go files too.
	IncludeTests bool
}

// Vet loads the requested packages and runs the analyzer suite. Type
// errors in the loaded packages are returned as diagnostics of a
// pseudo-analyzer "typecheck" so they fail the gate visibly.
func Vet(cfg Config) ([]Diagnostic, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	ld, err := NewLoader(dir, cfg.Tags, cfg.IncludeTests)
	if err != nil {
		return nil, err
	}
	pkgs, err := ld.Load(cfg.Patterns...)
	if err != nil {
		return nil, err
	}
	suite, err := NewSuite(SuiteConfig{})
	if err != nil {
		return nil, err
	}
	diags, err := suite.Run(ld, pkgs)
	if err != nil {
		return nil, err
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			diags = append(diags, Diagnostic{Analyzer: "typecheck", Message: fmt.Sprintf("%s: %v", pkg.Path, terr)})
		}
	}
	return diags, nil
}
