package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestStreamsFollowTheSeed: the same seed gives the same operation
// streams on every workload, another seed gives others.
func TestStreamsFollowTheSeed(t *testing.T) {
	for _, w := range allWorkloads(false) {
		a, err := w.streamHash(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.streamHash(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.streamHash(8)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed 7 hashed to %x, then to %x", w.def().Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 both hash to %x", w.def().Name, a)
		}
	}
}

// TestContractFile: BENCHMARK.json at the repository root is what the
// metric tables render, and the tables keep to the contract's limits.
func TestContractFile(t *testing.T) {
	want, err := contractJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables in contract.go; regenerate it with: go run . -print-contract > ../BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	var setup bool
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if len(m.Moves) == 0 {
			t.Errorf("%s: names no metric it should move", m.Name)
		}
	}
	for _, m := range perLayer {
		for _, moved := range m.Moves {
			if !seen[moved] {
				t.Errorf("%s should move %s, which the contract does not name", m.Name, moved)
			}
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(want))
	}
}

// smokeRun runs the command with -smoke and returns the result line of
// each workload and everything else it printed.
func smokeRun(t *testing.T, args ...string) (map[string]result, string) {
	t.Helper()
	var buf bytes.Buffer
	old := stdout
	stdout = &buf
	defer func() { stdout = old }()
	args = append([]string{"-smoke", "-workdir", t.TempDir()}, args...)
	if code := run(args); code != 0 {
		t.Fatalf("benchmark %v: exit %d\n%s", args, code, buf.String())
	}
	results := map[string]result{}
	var workload string
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "workload" {
			workload = f[1]
		}
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line of %s: %v", workload, err)
			}
			results[workload] = r
		}
	}
	return results, buf.String()
}

// TestSmoke runs all four workloads and their ladders end to end and
// checks that what the command prints is exactly what the contract
// names: every end-to-end metric as an e2e line, every per-layer metric
// in the traced result, nothing else. It then runs the two one-caller
// workloads again: a smoke phase is a fixed operation count, so their
// count metrics repeat exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads and their ladders")
	}
	results, out := smokeRun(t, "-trace", "1")
	for _, w := range workloadDefs {
		r, ok := results[w.Name]
		if !ok {
			t.Fatalf("%s printed no result", w.Name)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed", w.Name, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics in the traced result, contract names %d", w.Name, len(r.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: traced result lacks %s in %s", w.Name, m.Name, m.Unit)
			}
		}
		for _, m := range endToEnd {
			if !strings.Contains(out, "e2e "+w.Name+" "+m.Name+" ") {
				t.Errorf("%s: no e2e line for %s", w.Name, m.Name)
			}
		}
		for _, side := range []string{"read", "write"} {
			if !strings.Contains(out, side+" ladder, "+w.Name) {
				t.Errorf("%s: no %s ladder", w.Name, side)
			}
		}
	}

	counts := []string{
		"e2e %s label_bytes_per_node ",
		"layer %s scheme.relabels_per_kedit ",
		"layer %s pagestore.pages_read_per_op ",
		"layer %s pagestore.writebacks_per_op ",
		"layer %s pagestore.allocated_pages ",
	}
	line := func(out, prefix string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		return ""
	}
	for _, w := range []string{"embed-paged", "label-updates"} {
		_, again := smokeRun(t, "-workload", w)
		for _, c := range counts {
			prefix := strings.Replace(c, "%s", w, 1)
			if a, b := line(out, prefix), line(again, prefix); a == "" || a != b {
				t.Errorf("%s printed %q, then %q", w, a, b)
			}
		}
	}
}
