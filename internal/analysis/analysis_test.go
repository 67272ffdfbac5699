package analysis

import (
	"os"
	"os/exec"
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
func runFixture(t *testing.T, analyzer, fixture string, al *Allowlist) []Diagnostic {
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
	suite, err := NewSuite(SuiteConfig{Allowlist: al, Names: []string{analyzer}})
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
		if !strings.Contains(d.Pos.Filename, "testdata") {
			continue // allowlist staleness findings are asserted separately
		}
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
		t.Errorf("fixture %s produced no diagnostics; labelvet must exit non-zero on it", fixture)
	}
	return diags
}

func TestLabelCmpFixture(t *testing.T)    { runFixture(t, "labelcmp", "labelcmp", nil) }
func TestCodeLiteralFixture(t *testing.T) { runFixture(t, "codeliteral", "codeliteral", nil) }
func TestLockCopyFixture(t *testing.T)    { runFixture(t, "lockcopy", "lockcopy", nil) }
func TestLockHeldFixture(t *testing.T)    { runFixture(t, "lockheld", "lockheld", nil) }
func TestErrCheckFixture(t *testing.T)    { runFixture(t, "errcheck", "errcheck", nil) }
func TestGuardedByFixture(t *testing.T)   { runFixture(t, "guardedby", "guardedby", nil) }
func TestAtomicMixFixture(t *testing.T)   { runFixture(t, "atomicmix", "atomicmix", nil) }
func TestAckOrderFixture(t *testing.T)    { runFixture(t, "ackorder", "ackorder", nil) }
func TestLockOrderFixture(t *testing.T)   { runFixture(t, "lockorder", "lockorder", nil) }

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

func TestPanicAuditFixture(t *testing.T) {
	const fixturePkg = "repro/internal/analysis/testdata/src/panicaudit"
	al, err := ParseAllowlist("fixture_allowlist.txt", strings.Join([]string{
		"# fixture allowlist",
		fixturePkg + " MustVetted",
		fixturePkg + " Gone # stale: no such panic anymore",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	diags := runFixture(t, "panicaudit", "panicaudit", al)
	foundStale := false
	for _, d := range diags {
		if d.Pos.Filename == "fixture_allowlist.txt" && d.Pos.Line == 3 &&
			strings.Contains(d.Message, `stale allowlist entry "`+fixturePkg+` Gone"`) {
			foundStale = true
		}
		if strings.Contains(d.Message, "MustVetted") {
			t.Errorf("vetted panic was flagged: %s", d)
		}
	}
	if !foundStale {
		t.Errorf("missing stale-allowlist diagnostic at fixture_allowlist.txt:3; got %v", diags)
	}
}

// TestRepoClean is the acceptance gate: the full suite over the whole
// module (tests included, real allowlist) must be silent.
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

// TestLabelvetExitCodes runs the actual binary: exit 0 on a clean
// package, exit 1 on a fixture.
func TestLabelvetExitCodes(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go binary not on PATH")
	}
	root := moduleRoot(t)
	run := func(args ...string) (int, string) {
		cmd := exec.Command(goBin, append([]string{"run", "./cmd/labelvet"}, args...)...)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), string(out)
		}
		t.Fatalf("running labelvet: %v\n%s", err, out)
		return -1, ""
	}
	if code, out := run("./internal/cdbs"); code != 0 {
		t.Errorf("labelvet ./internal/cdbs: exit %d, want 0\n%s", code, out)
	}
	if code, out := run(fixturePath("errcheck")); code != 1 {
		t.Errorf("labelvet on errcheck fixture: exit %d, want 1\n%s", code, out)
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

// TestAllowlistParsing covers comments, blank lines and error cases.
func TestAllowlistParsing(t *testing.T) {
	al, err := ParseAllowlist("f.txt", "# c\n\npkg Fn # trailing\npkg Fn2\n")
	if err != nil {
		t.Fatal(err)
	}
	if al.Entries["pkg Fn"] != 3 || al.Entries["pkg Fn2"] != 4 {
		t.Fatalf("entries = %v", al.Entries)
	}
	if _, err := ParseAllowlist("f.txt", "only-one-field\n"); err == nil {
		t.Fatal("accepted malformed entry")
	}
	if _, err := ParseAllowlist("f.txt", "pkg Fn\npkg Fn\n"); err == nil {
		t.Fatal("accepted duplicate entry")
	}
}

// TestRealAllowlistParses keeps the checked-in allowlist loadable.
func TestRealAllowlistParses(t *testing.T) {
	root := moduleRoot(t)
	al, err := LoadAllowlist(filepath.Join(root, filepath.FromSlash(DefaultAllowlist)))
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Entries) == 0 {
		t.Fatal("real allowlist is empty")
	}
	for key := range al.Entries {
		if !strings.HasPrefix(key, "repro/") {
			t.Errorf("allowlist entry %q does not name a module package", key)
		}
	}
}
