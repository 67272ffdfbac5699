package dyndoc

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/prefix"
	"repro/internal/primelbl"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// miniPlay is a play small enough for Prime and shaped so that each of
// the paper's Q1–Q5 selects something in it.
func miniPlay() *xmltree.Document {
	text := func(parent *xmltree.Node, name, data string) {
		parent.AppendChild(xmltree.NewElement(name)).AppendChild(xmltree.NewText(data))
	}
	play := xmltree.NewElement("play")
	text(play, "title", "The Tragedy of Columns")
	personae := play.AppendChild(xmltree.NewElement("personae"))
	text(personae, "title", "Dramatis Personae")
	for i := 0; i < 13; i++ {
		text(personae, "persona", fmt.Sprintf("persona %d", i))
	}
	group := personae.AppendChild(xmltree.NewElement("pgroup"))
	text(group, "persona", "first courtier")
	text(group, "persona", "second courtier")
	text(group, "grpdescr", "courtiers")
	for a := 0; a < 5; a++ {
		act := play.AppendChild(xmltree.NewElement("act"))
		for s := 0; s < 2; s++ {
			scene := act.AppendChild(xmltree.NewElement("scene"))
			for sp := 0; sp < 2; sp++ {
				scene.AppendChild(speechFragment(a*100 + s*10 + sp))
			}
		}
	}
	return &xmltree.Document{Root: play}
}

// speechFragment is an element tree with text leaves.
func speechFragment(n int) *xmltree.Node {
	speech := xmltree.NewElement("speech")
	speech.AppendChild(xmltree.NewElement("speaker")).AppendChild(xmltree.NewText(fmt.Sprintf("speaker %d", n)))
	for l := 0; l < 2; l++ {
		speech.AppendChild(xmltree.NewElement("line")).AppendChild(xmltree.NewText(fmt.Sprintf("line %d & %d", n, l)))
	}
	return speech
}

// paperQueries are Table 3's Q1–Q5.
var paperQueries = []string{
	"/play/act[4]",
	"/play//personae[./title]/pgroup[.//grpdescr]/persona",
	"/play/personae/persona[12]/preceding-sibling::*",
	"//act[2]/following::speaker",
	"//act/scene/speech",
}

// randomEdit draws one edit that is valid against m: an insert, or —
// more often the larger m is, and only when deletes is set — a delete.
func randomEdit(rng *rand.Rand, m *model, deletes bool) Edit {
	elems := m.liveIDs(true)
	insertAt := func() (parent, pos int) {
		parent = elems[rng.Intn(len(elems))]
		return parent, rng.Intn(len(m.nodes[parent].Children) + 1)
	}
	live := len(m.liveIDs(false))
	switch k := rng.Intn(10); {
	case deletes && (k < 3 && live > 120 || live > 400):
		all := m.liveIDs(false)
		return Edit{Op: OpDeleteSubtree, Node: all[1+rng.Intn(len(all)-1)]} // id 0 is the root
	case k < 6:
		parent, pos := insertAt()
		return Edit{Op: OpInsertTree, Parent: parent, Pos: pos, Fragment: speechFragment(rng.Intn(1000))}
	default:
		parent, pos := insertAt()
		return Edit{Op: OpInsertElement, Parent: parent, Pos: pos, Name: []string{"speech", "line", "stagedir"}[rng.Intn(3)]}
	}
}

// held is a published snapshot and the deep copy of the model taken
// when it was published.
type held struct {
	gen uint64
	d   *Document
	m   *model
}

// TestSnapshotIsolation drives seeded histories of inserts, fragment
// inserts, deletes and batches through a Concurrent while the last few
// published snapshots are held and checked — on a second goroutine,
// concurrently with the writer — against deep copies of a model taken
// when each was published. A snapshot shares its write-once columns,
// and every list no later edit touched, with the snapshots after it;
// none of their edits may ever show through. The history keeps hitting
// the paths that hand the append frontier of a shared column to
// someone who then goes away: a commit hook vetoing a batch, a batch
// whose third edit fails, an Update whose function fails, and two
// divergent clones of one parent with all three edited.
func TestSnapshotIsolation(t *testing.T) {
	builders := map[string]scheme.Builder{
		"V-CDBS-Containment":   containment.Build(keys.VCDBS()),
		"V-Binary-Containment": containment.Build(keys.VBinary()), // static: re-encodes both key columns
		"QED-Prefix":           prefix.Build(prefix.QEDCodec()),
		"DeweyID-Prefix":       prefix.Build(prefix.Dewey()), // static: rewrites label slots in place
		"Prime":                primelbl.BuildLabeling,
	}
	for name, build := range builders {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				t.Parallel()
				isolationHistory(t, build, seed)
			})
		}
	}
}

func isolationHistory(t *testing.T, build scheme.Builder, seed int64) {
	const steps, keep, pairs = 120, 6, 64
	rng := rand.New(rand.NewSource(seed))
	c, err := NewConcurrent(miniPlay(), build)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(miniPlay())

	// The checker holds the last keep snapshots and keeps re-checking
	// them, oldest first, until the writer is done.
	publish := make(chan held)
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		crng := rand.New(rand.NewSource(seed))
		var ring []held
		check := func(h held) {
			h.m.check(t, fmt.Sprintf("snapshot of generation %d", h.gen), h.d, paperQueries, crng, pairs)
		}
		for h := range publish {
			if ring = append(ring, h); len(ring) > keep {
				check(ring[0])
				ring = ring[1:]
			}
			check(ring[len(ring)/2])
		}
		for _, h := range ring {
			check(h)
		}
	}()
	hold := func() {
		h := held{gen: c.Generation(), m: m.clone()}
		_ = c.Snapshot(func(d *Document) error { h.d = d; return nil })
		publish <- h
	}
	defer func() {
		close(publish)
		<-checked
	}()

	hold()
	gen := c.Generation()
	unpublished := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error", what)
		}
		if c.Generation() != gen {
			t.Fatalf("%s published generation %d", what, c.Generation())
		}
	}
	errBoom := errors.New("boom")
	for step := 0; step < steps; step++ {
		switch step % 12 {
		case 3: // a commit hook vetoes a batch that was applied to its clone
			c.SetCommitHook(func([]Edit, []EditResult) (func() error, error) { return nil, errBoom })
			_, err := c.ApplyBatch([]Edit{randomEdit(rng, m, false), randomEdit(rng, m, false)})
			c.SetCommitHook(nil)
			unpublished("vetoed batch", err)
		case 5: // the third edit of a batch fails
			parent := m.liveIDs(true)[0]
			_, err := c.ApplyBatch([]Edit{
				{Op: OpInsertElement, Parent: parent, Pos: 0, Name: "ghost"},
				{Op: OpInsertTree, Parent: parent, Pos: 0, Fragment: speechFragment(step)},
				{Op: OpDeleteSubtree, Node: len(m.nodes) + 1000},
			})
			unpublished("batch with a bad third edit", err)
		case 7: // Update's function edits its clone, then fails
			e := randomEdit(rng, m, true)
			unpublished("failing Update", c.Update(func(d *Document) error {
				if _, err := d.ApplyBatch([]Edit{e}); err != nil {
					return err
				}
				return errBoom
			}))
		case 9: // two clones of one parent diverge, and the parent too
			divergentClones(t, rng, c, m)
		}
		// One published step: a single edit or a batch of up to four.
		n := 1
		if step%3 == 0 {
			n = 2 + rng.Intn(3)
		}
		var edits []Edit
		mm := m.clone() // later edits of a batch may depend on earlier ones
		for i := 0; i < n; i++ {
			e := randomEdit(rng, mm, true)
			mm.apply(t, e)
			edits = append(edits, e)
		}
		if _, err := c.ApplyBatch(edits); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		m = mm
		gen++
		hold()
	}
}

// divergentClones takes a private copy P of the published snapshot,
// edits it, clones it twice, edits all three differently and checks
// each against its own model. All three hold the same column arrays at
// the same length, so only one of them may append in place; and P made
// the root's child list private before it was cloned, so its next edit
// there must not reach the clones.
func divergentClones(t *testing.T, rng *rand.Rand, c *Concurrent, m *model) {
	t.Helper()
	var snap *Document
	_ = c.Snapshot(func(d *Document) error { snap = d; return nil })
	docs := make([]*Document, 3)
	models := make([]*model, 3)
	edit := func(i int, e Edit) {
		t.Helper()
		if _, err := docs[i].ApplyBatch([]Edit{e}); err != nil {
			t.Fatalf("divergent clone %d: %v", i, err)
		}
		models[i].apply(t, e)
	}
	underRoot := Edit{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "prologue"}

	var err error
	if docs[0], err = snap.Clone(); err != nil {
		t.Fatal(err)
	}
	models[0] = m.clone()
	// Twice: the first edit copies the list exactly, the second grows
	// the copy, and only a list with room to spare shifts in place.
	edit(0, underRoot)
	edit(0, underRoot)
	for i := 1; i < 3; i++ {
		if docs[i], err = docs[0].Clone(); err != nil {
			t.Fatal(err)
		}
		models[i] = models[0].clone()
	}
	edit(0, underRoot)
	for round := 0; round < 4; round++ {
		for i := range docs {
			edit(i, randomEdit(rng, models[i], true))
		}
	}
	for i, d := range docs {
		models[i].check(t, fmt.Sprintf("divergent clone %d", i), d, paperQueries, rng, 32)
	}
}
