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
