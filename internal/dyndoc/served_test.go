package dyndoc

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/containment"
	"repro/internal/datagen"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/xpath/plan"
)

// fmtRendering prints an answer as fmt does, "[1 2 3]".
var fmtRendering = plan.Rendering{Render: func(ids []int) []byte { return fmt.Append(nil, ids) }, Parse: parseBracketed}

// TestServedAnswerKeptAsBytes pins the forms the result cache holds an
// answer in. One only ever served is its rendering alone: after several
// reads the cache costs what those bytes do and holds no id. The first
// in-process read after served ones parses the ids from the bytes —
// one hit, no miss, the naive answer — and keeps them beside the bytes,
// as the first served read after in-process ones keeps its rendering
// beside the ids: a document read both ways holds both forms. A served
// read on a hit allocates nothing.
func TestServedAnswerKeptAsBytes(t *testing.T) {
	c, err := NewConcurrent(datagen.Hamlet(), containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	footprint := func() (fp int64) {
		_ = c.Snapshot(func(d *Document) error { fp = d.CacheFootprint(); return nil })
		return fp
	}
	oracle := func(path string) (ids []int) {
		if err := c.Snapshot(func(d *Document) (err error) { ids, err = naive(d, path); return err }); err != nil || len(ids) == 0 {
			t.Fatalf("%s: naive has %d ids, %v", path, len(ids), err)
		}
		return ids
	}
	hits, misses := metrics.Default.Counter("xpath_result_cache_hits_total"), metrics.Default.Counter("xpath_result_cache_misses_total")
	counted := func(read func()) (int64, int64) {
		h, m := hits.Value(), misses.Value()
		read()
		return hits.Value() - h, misses.Value() - m
	}

	const served = "//speech/speaker"
	want := oracle(served)
	var body []byte
	for i := 0; i < 8; i++ {
		b, err := c.QueryRendered(served, fmtRendering)
		if err != nil || string(b) != fmt.Sprint(want) {
			t.Fatalf("served read %d: %.60q, %v", i, b, err)
		}
		if i > 0 && &b[0] != &body[0] {
			t.Fatalf("served read %d rendered the answer again", i)
		}
		body = b
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = c.QueryRendered(served, fmtRendering) }); allocs != 0 {
		t.Errorf("a served read on a hit allocates %v times", allocs)
	}
	bytesCost := int64(8 * ((cap(body) + 7) / 8))
	if fp := footprint(); fp != bytesCost {
		t.Fatalf("after 8 served reads the cache holds %d B; the rendering alone costs %d B", fp, bytesCost)
	}
	var ids []int
	if h, m := counted(func() { ids, err = c.QueryString(served) }); err != nil || h != 1 || m != 0 {
		t.Fatalf("the first in-process read after served ones counted %d hits and %d misses (%v), want 1 and 0", h, m, err)
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("ids parsed from the rendering: %v, naive has %v", ids, want)
	}
	both := bytesCost + 8*int64(len(want))
	if fp := footprint(); fp != both {
		t.Fatalf("read both ways, the cache holds %d B; the ids and their rendering cost %d B", fp, both)
	}
	b, err := c.QueryRendered(served, fmtRendering)
	if err != nil || &b[0] != &body[0] {
		t.Fatalf("a served read after the in-process one returned other bytes (%v)", err)
	}
	again, err := c.QueryString(served)
	if err != nil || &again[0] != &ids[0] || footprint() != both {
		t.Fatalf("an in-process read parsed the ids again, or the cache moved to %d B (%v)", footprint(), err)
	}

	// The other way round: ids first, then the rendering made from them.
	const asked = "//line"
	want = oracle(asked)
	ids, err = c.QueryString(asked)
	if err != nil || !slices.Equal(ids, want) {
		t.Fatalf("%s: %d ids, %v", asked, len(ids), err)
	}
	if h, m := counted(func() { b, err = c.QueryRendered(asked, fmtRendering) }); err != nil || h != 1 || m != 0 || string(b) != fmt.Sprint(want) {
		t.Fatalf("the first served read after an in-process one counted %d hits and %d misses (%v)", h, m, err)
	}
	if fp, want := footprint(), both+8*int64(len(want)+(cap(b)+7)/8); fp != want {
		t.Fatalf("both queries read both ways: the cache holds %d B, want %d", fp, want)
	}
}

// TestMixedFormStorm is the storm for an answer made into its other
// form at a hit: readers alternate QueryRendered, QueryString and Count
// on one Concurrent while editors publish, so one shared cache stores
// answers as bytes, parses ids from them and renders ids it holds, all
// at once. As in TestPlannedQueryStormRendered, each editor files the
// naive answers under the generation its clone is about to become, and
// a reader's answer must be the oracle's at a generation between the
// two Generation reads around its call: a conversion that served
// another stamp's answer, or wrote into a shared one, fails that (and
// -race reports the write).
func TestMixedFormStorm(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	const editors, readers, editsEach = 3, 6, 60
	// Every edit touches //pair; none touches the books, whose answer
	// stays valid, and is converted, across generations.
	queries := []string{"//pair", "/library/shelf/book"}
	answers := func(d *Document) ([][]int, error) {
		out := make([][]int, len(queries))
		for i, q := range queries {
			var err error
			if out[i], err = naive(d, q); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var oracle sync.Map // generation -> [][]int, by query
	first, err := func() (a [][]int, err error) {
		err = c.Snapshot(func(d *Document) error { a, err = answers(d); return err })
		return a, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	oracle.Store(uint64(0), first)

	// The editors start once every reader has served a read in each
	// form, so that edits that finish before a loaded machine schedules
	// the readers cannot leave a form unread.
	var editing, reading, ready sync.WaitGroup
	ready.Add(readers)
	errCh := make(chan error, editors+readers)
	var stop atomic.Bool
	var served [3]atomic.Int64
	for e := 0; e < editors; e++ {
		editing.Add(1)
		go func() {
			defer editing.Done()
			ready.Wait()
			var mine []int
			for i := 0; i < editsEach; i++ {
				err := c.Update(func(d *Document) error {
					if len(mine) > 4 {
						if _, err := d.DeleteSubtree(mine[0]); err != nil {
							return err
						}
						mine = mine[1:]
					}
					id, _, err := d.InsertElement(0, i%2, "pair")
					if err != nil {
						return err
					}
					mine = append(mine, id)
					a, err := answers(d)
					if err != nil {
						return err
					}
					oracle.Store(c.Generation()+1, a)
					return nil
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			i := 0
			defer func() {
				if i < 3 {
					ready.Done() // failed before it was ready
				}
			}()
			for ; !stop.Load(); i++ {
				if i == 3 {
					ready.Done()
				}
				form, qi := (r+i)%3, (i/3)%len(queries)
				g0 := c.Generation()
				var match func(want []int) bool
				var got any
				switch form {
				case 0:
					b, err := c.QueryRendered(queries[qi], fmtRendering)
					if err != nil {
						errCh <- err
						return
					}
					got, match = string(b), func(want []int) bool { return string(b) == fmt.Sprint(want) }
				case 1:
					ids, err := c.QueryString(queries[qi])
					if err != nil {
						errCh <- err
						return
					}
					got, match = ids, func(want []int) bool { return slices.Equal(ids, want) }
				case 2:
					n, err := c.Count(queries[qi])
					if err != nil {
						errCh <- err
						return
					}
					got, match = n, func(want []int) bool { return n == len(want) }
				}
				g1 := c.Generation()
				ok := false
				for g := g0; g <= g1 && !ok; g++ {
					if a, found := oracle.Load(g); found {
						ok = match(a.([][]int)[qi])
					}
				}
				served[form].Add(1)
				if !ok {
					errCh <- fmt.Errorf("%s read in form %d as %v between generations %d and %d; the oracle has it at neither", queries[qi], form, got, g0, g1)
					return
				}
			}
		}()
	}
	editing.Wait()
	stop.Store(true)
	reading.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	t.Logf("%d rendered, %d id and %d count reads across %d generations", served[0].Load(), served[1].Load(), served[2].Load(), editors*editsEach)
	for form := range served {
		if served[form].Load() < readers {
			t.Errorf("only %d reads in form %d: the readers did not run beside the editors", served[form].Load(), form)
		}
	}
}
