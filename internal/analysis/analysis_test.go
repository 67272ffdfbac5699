package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// fixturePath returns the package pattern of a named fixture.
func fixturePath(name string) string {
	return "./internal/analysis/testdata/src/" + name
}

// wantRx extracts `// want `regex“ expectations from fixture
// sources.
var wantRx = regexp.MustCompile("// want `([^`]+)`")

// expectation is one `// want` comment in a fixture file.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectExpectations scans the fixture package sources for want
// comments.
func collectExpectations(t *testing.T, ld *Loader, pkg *Package) []*expectation {
	t.Helper()
	var exps []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := ld.Fset.Position(c.Pos())
				for _, m := range wantRx.FindAllStringSubmatch(c.Text, -1) {
					rx, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					exps = append(exps, &expectation{file: pos.Filename, line: pos.Line, pattern: rx})
				}
			}
		}
	}
	return exps
}

// runFixture loads one fixture package, runs one analyzer on it, and
// checks the diagnostics against the fixture's want comments —
// positions included: a diagnostic must appear on the exact line of
// its expectation.
func runFixture(t *testing.T, analyzer, fixture string) {
	t.Helper()
	root := moduleRoot(t)
	ld, err := NewLoader(root, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load(fixturePath(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", fixture)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture %s: type error: %v", fixture, terr)
		}
	}
	suite, err := NewSuite(SuiteConfig{Names: []string{analyzer}})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := suite.Run(ld, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	exps := collectExpectations(t, ld, pkgs[0])
	if len(exps) == 0 {
		t.Fatalf("fixture %s has no want comments", fixture)
	}
	for _, d := range diags {
		found := false
		for _, e := range exps {
			if !e.matched && e.file == d.Pos.Filename && e.line == d.Pos.Line && e.pattern.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range exps {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
		}
	}
	if len(diags) == 0 {
		t.Errorf("fixture %s produced no diagnostics; the gate must fail on it", fixture)
	}
}

func TestLabelCmpFixture(t *testing.T)  { runFixture(t, "labelcmp", "labelcmp") }
func TestErrCheckFixture(t *testing.T)  { runFixture(t, "errcheck", "errcheck") }
func TestGuardedByFixture(t *testing.T) { runFixture(t, "guardedby", "guardedby") }

// TestFixtureCoverage keeps the suite honest: every registered
// analyzer must have a fixture package under testdata/src/ so it
// cannot silently regress to reporting nothing.
func TestFixtureCoverage(t *testing.T) {
	suite, err := NewSuite(SuiteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	root := moduleRoot(t)
	for _, a := range suite.Analyzers {
		dir := filepath.Join(root, "internal", "analysis", "testdata", "src", a.Name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("analyzer %s has no fixture dir %s: %v", a.Name, dir, err)
			continue
		}
		hasGo := false
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".go") {
				hasGo = true
			}
		}
		if !hasGo {
			t.Errorf("analyzer %s: fixture dir %s holds no .go files", a.Name, dir)
		}
	}
}

// TestRepoClean is the acceptance gate: the full suite over the whole
// module (tests included) must be silent.
func TestRepoClean(t *testing.T) {
	root := moduleRoot(t)
	diags, err := Vet(Config{Dir: root, Patterns: []string{"./..."}, IncludeTests: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not clean: %s", d)
	}
}

// TestRepoCleanWithInvariantsTag re-runs the gate with the invariants
// build tag, which swaps in the self-check files.
func TestRepoCleanWithInvariantsTag(t *testing.T) {
	root := moduleRoot(t)
	diags, err := Vet(Config{Dir: root, Patterns: []string{"./..."}, Tags: []string{"invariants"}, IncludeTests: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not clean under -tags invariants: %s", d)
	}
}

// TestVetUnknownAnalyzer covers the suite's name filtering.
func TestVetUnknownAnalyzer(t *testing.T) {
	if _, err := NewSuite(SuiteConfig{Names: []string{"nonsense"}}); err == nil {
		t.Fatal("NewSuite accepted an unknown analyzer name")
	}
}

// TestDiagnosticString pins the rendering format tools and CI grep
// for.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "labelcmp", Message: "msg"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: [labelcmp] msg"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
