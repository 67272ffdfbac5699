package main

import (
	"errors"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/web"
)

// runRemote runs `dynxml remote args...` and returns what it printed
// on stdout.
func runRemote(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = remote(args)
	os.Stdout = saved
	out, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), err
}

// mustRemote is runRemote for a command that must succeed; it returns
// stdout without its trailing newline.
func mustRemote(t *testing.T, args ...string) string {
	t.Helper()
	out, err := runRemote(t, args...)
	if err != nil {
		t.Fatalf("dynxml remote %s: %v", strings.Join(args, " "), err)
	}
	return strings.TrimSuffix(out, "\n")
}

// TestRemoteCommands drives the remote commands against a real server
// over a temporary catalog, as a shell script would.
func TestRemoteCommands(t *testing.T) {
	cat, err := catalog.Open(catalog.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cat.Close() })
	ts := httptest.NewServer(web.New(web.Config{Catalog: cat}))
	t.Cleanup(ts.Close)
	t.Setenv("DYNXML_ADDR", ts.URL)

	if out := mustRemote(t, "-addr", ts.URL, "create", "ci", "<root><a></a></root>"); out != `{"name":"ci","scheme":"V-CDBS-Containment"}` {
		t.Errorf("create printed %q", out)
	}
	root := mustRemote(t, "query", "-first", "ci", "/root") // the address from DYNXML_ADDR
	if root != "0" {
		t.Errorf("query -first printed %q, want 0", root)
	}
	if seq := mustRemote(t, "insert", "-seq", "ci", root, "0", "x"); seq == "" || seq == "0" {
		t.Errorf("insert -seq printed %q, want a journal sequence", seq)
	}
	mustRemote(t, "batch", "ci", `[{"op":"insert-tree","parent":`+root+`,"pos":0,"fragment":"<x><y></y></x>"}]`)
	if n := mustRemote(t, "count", "ci", "/root/x"); n != "2" {
		t.Errorf("count printed %q, want 2", n)
	}
	if ex := mustRemote(t, "explain", "ci", "/root/x"); !strings.Contains(ex, "strategy:") {
		t.Errorf("explain printed no strategy:\n%s", ex)
	}
	if xml := mustRemote(t, "xml", "ci"); !strings.Contains(xml, "<y></y>") {
		t.Errorf("xml printed %q", xml)
	}
	if st := mustRemote(t, "stats", "ci"); !strings.Contains(st, `"journal"`) {
		t.Errorf("stats carry no journal: %s", st)
	}
	if out := mustRemote(t, "close", "ci"); out != "" {
		t.Errorf("close printed %q", out)
	}
	if n := mustRemote(t, "count", "ci", "/root/x"); n != "2" {
		t.Errorf("count after close and replay printed %q, want 2", n)
	}

	if _, err := runRemote(t, "count", "ghost", "/root"); err == nil || errors.Is(err, errUsage) {
		t.Errorf("unknown document: err = %v, want a non-usage error", err)
	}
	for _, args := range [][]string{
		{"count", "ci"},
		{"create", "ci"},
		{"insert", "ci", root, "0"},
		{"xml"},
		{"frobnicate", "ci"},
		{},
	} {
		if _, err := runRemote(t, args...); !errors.Is(err, errUsage) {
			t.Errorf("dynxml remote %s: err = %v, want a usage error", strings.Join(args, " "), err)
		}
	}
}
