//go:build invariants

package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestCacheCatchesWrittenAnswer: under the invariants build a caller
// that writes one id of a borrowed answer is caught at the next hit,
// by a panic that names the query.
func TestCacheCatchesWrittenAnswer(t *testing.T) {
	eng := testEngine(t, randomNamedDoc(rand.New(rand.NewSource(3)), 80))
	c := NewCache()
	ids, err := c.EvalString(eng, 1, "//a")
	if err != nil || len(ids) == 0 {
		t.Fatalf("//a: %d ids, %v", len(ids), err)
	}
	ids[0] = -1
	defer func() {
		msg := fmt.Sprint(recover())
		t.Logf("panic: %s", msg)
		if !strings.HasPrefix(msg, "plan: invariant violated") || !strings.Contains(msg, `"//a"`) {
			t.Fatalf("the hit after a write panicked with %q, want the plan invariant naming //a", msg)
		}
	}()
	_, _ = c.EvalString(eng, 1, "//a")
}

// TestCacheCatchesWrittenRendering: a served answer's bytes are hashed
// when they are stored, so a write into them is caught at the next hit
// as a write into its ids is.
func TestCacheCatchesWrittenRendering(t *testing.T) {
	eng := testEngine(t, randomNamedDoc(rand.New(rand.NewSource(3)), 80))
	c := NewCache()
	r := Rendering{Render: func(ids []int) []byte { return fmt.Append(nil, ids) }, Parse: parseBracketed}
	b, err := c.Rendered(eng, 1, "//a", r)
	if err != nil || len(b) < 3 {
		t.Fatalf("//a: %q, %v", b, err)
	}
	b[1] = '9'
	wantViolation(t, `"//a"`, func() { _, _ = c.Rendered(eng, 1, "//a", r) })
}

// TestCacheCatchesLossyParse: every conversion between the forms checks
// that the rendering parses back to exactly the answer's ids, so a
// parser that drops the last id is caught where an answer is first
// served, where ids the cache holds are first rendered, and where a
// served answer's ids are first parsed.
func TestCacheCatchesLossyParse(t *testing.T) {
	eng := testEngine(t, randomNamedDoc(rand.New(rand.NewSource(3)), 80))
	render := func(ids []int) []byte { return fmt.Append(nil, ids) }
	dropLast := func(b []byte) []int { ids := parseBracketed(b); return ids[:max(len(ids)-1, 0)] }
	t.Run("served first", func(t *testing.T) {
		c := NewCache()
		wantViolation(t, `"//a"`, func() { _, _ = c.Rendered(eng, 1, "//a", Rendering{render, dropLast}) })
	})
	t.Run("ids first", func(t *testing.T) {
		c := NewCache()
		if _, err := c.EvalString(eng, 1, "//a"); err != nil {
			t.Fatal(err)
		}
		wantViolation(t, `"//a"`, func() { _, _ = c.Rendered(eng, 1, "//a", Rendering{render, dropLast}) })
	})
	t.Run("parsed later", func(t *testing.T) {
		// Exact at the first parse, lossy after it.
		parses := 0
		lossy := func(b []byte) []int {
			if parses++; parses == 1 {
				return parseBracketed(b)
			}
			return dropLast(b)
		}
		c := NewCache()
		if _, err := c.Rendered(eng, 1, "//a", Rendering{render, lossy}); err != nil {
			t.Fatal(err)
		}
		wantViolation(t, `"//a"`, func() { _, _ = c.EvalString(eng, 1, "//a") })
	})
}

// wantViolation runs f and fails unless it panics with the plan
// invariant, naming what.
func wantViolation(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		msg := fmt.Sprint(recover())
		t.Logf("panic: %s", msg)
		if !strings.HasPrefix(msg, "plan: invariant violated") || !strings.Contains(msg, what) {
			t.Fatalf("panicked with %q, want the plan invariant naming %s", msg, what)
		}
	}()
	f()
}
