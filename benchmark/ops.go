package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

type opKind uint8

const (
	// opQuery evaluates queries[op.query] on document op.doc.
	opQuery opKind = iota
	// opEdit inserts one element under the client's (op.parent mod n)-th
	// editable parent at child position (op.pos mod (children+1)), or —
	// once the client holds fifoCap surviving inserts in that document —
	// deletes the oldest of them instead.
	opEdit
	// The remaining kinds exist only in a label-updates round.
	opOpen       // fresh Open of the Hamlet document (Algorithm 2 bulk labelling)
	opInsertSkew // insert at one fixed gap: the paper's section 6 skewed insertion
	opInsertTree // insert the 5-node fragment under a random speech
	opDeleteTree // delete the oldest surviving fragment
)

// op is one abstract operation. It names documents, queries and
// parents by ordinal, never by node id: ids are resolved against the
// running system by the driver, so a stream is a pure function of the
// seed.
type op struct {
	kind   opKind
	doc    int
	query  int
	parent uint32
	pos    uint32
}

// mixGen draws a seeded stream of queries and edits.
type mixGen struct {
	rng        *rand.Rand
	zipf       *rand.Zipf // document popularity; nil for a single document
	editShare  float64
	skewShare  float64 // of the edits: inserts at one fixed gap
	heavyShare float64
	light      []int // indexes into the workload's queries
	heavy      []int
}

func newMixGen(seed int64, docs int, editShare, heavyShare float64, queries []querySpec) *mixGen {
	g := &mixGen{rng: rand.New(rand.NewSource(seed)), editShare: editShare, heavyShare: heavyShare}
	if docs > 1 {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(docs-1))
	}
	for i, q := range queries {
		if q.heavy {
			g.heavy = append(g.heavy, i)
		} else {
			g.light = append(g.light, i)
		}
	}
	return g
}

func (g *mixGen) next() op {
	var o op
	if g.zipf != nil {
		o.doc = int(g.zipf.Uint64())
	}
	if g.rng.Float64() < g.editShare {
		o.kind = opEdit
		o.parent = g.rng.Uint32()
		o.pos = g.rng.Uint32()
		if g.skewShare > 0 && g.rng.Float64() < g.skewShare {
			o.kind = opInsertSkew
		}
		return o
	}
	o.kind = opQuery
	if len(g.heavy) > 0 && g.rng.Float64() < g.heavyShare {
		o.query = g.heavy[g.rng.Intn(len(g.heavy))]
	} else {
		o.query = g.light[g.rng.Intn(len(g.light))]
	}
	return o
}

// streamSeed derives the seed of one client's stream from the run's.
func streamSeed(seed int64, client, stream int) int64 {
	return seed*1000003 + int64(client)*7919 + int64(stream)*104729 + 1
}

// hashOps folds operations into a stream hash, the determinism test's
// evidence that a seed fixes the inputs.
func hashOps(ops []op) uint64 {
	h := fnv.New64a()
	var buf [21]byte
	for _, o := range ops {
		buf[0] = byte(o.kind)
		binary.LittleEndian.PutUint32(buf[1:], uint32(o.doc))
		binary.LittleEndian.PutUint32(buf[5:], uint32(o.query))
		binary.LittleEndian.PutUint32(buf[9:], o.parent)
		binary.LittleEndian.PutUint32(buf[13:], o.pos)
		// Writes to a hash.Hash never fail.
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

// stack is one level of the system as a caller sees it: the typed
// client, a handle, or — in the traced run — any rung beneath them.
type stack interface {
	// query returns the matching node ids in document order.
	query(doc int, q *querySpec) ([]int, error)
	// insert adds one insertName element and returns its id and the
	// number of existing nodes the system re-labelled to make room.
	insert(doc, parent, pos int) (id, relabeled int, err error)
	remove(doc, id int) error
	close() error
}

// parentSlot is one editable parent as a client tracks it: its node id
// in the running system and its current child count. A parent belongs
// to exactly one client, so the count is exact.
type parentSlot struct {
	id       int
	children int
}

type ownInsert struct {
	id   int
	slot int
}

// editState resolves abstract edits against the running system for one
// client. Node ids enter it only from the system's own answers (the
// set-up query for parents, insert acknowledgments for the FIFO) and
// are dropped whenever the documents are closed: ids do not survive a
// close and re-open, so the generator never carries one across.
type editState struct {
	parents [][]parentSlot // by document
	fifo    [][]ownInsert  // by document, oldest first
	fifoCap int
	// Acknowledged edits by document and answered queries by document
	// and shape, for the verifier.
	inserts, deletes []int
	queryOps         [][]int
	relabeled        int
}

func newEditState(docs, fifoCap, shapes int) *editState {
	e := &editState{
		parents:  make([][]parentSlot, docs),
		fifo:     make([][]ownInsert, docs),
		fifoCap:  fifoCap,
		inserts:  make([]int, docs),
		deletes:  make([]int, docs),
		queryOps: make([][]int, docs),
	}
	for d := range e.queryOps {
		e.queryOps[d] = make([]int, shapes)
	}
	return e
}

// apply runs one operation of a mixed stream against s. It reports
// whether the operation was a write.
func (e *editState) apply(s stack, o op, queries []querySpec) (write bool, err error) {
	switch o.kind {
	case opQuery:
		if _, err = s.query(o.doc, &queries[o.query]); err == nil {
			e.queryOps[o.doc][o.query]++
		}
		return false, err
	case opEdit, opInsertSkew:
		return true, e.edit(s, o)
	default:
		return false, fmt.Errorf("op kind %d outside a mixed stream", o.kind)
	}
}

func (e *editState) edit(s stack, o op) error {
	d := o.doc
	if q := e.fifo[d]; len(q) >= e.fifoCap {
		oldest := q[0]
		if err := s.remove(d, oldest.id); err != nil {
			return err
		}
		e.fifo[d] = append(q[:0], q[1:]...)
		e.parents[d][oldest.slot].children--
		e.deletes[d]++
		return nil
	}
	if len(e.parents[d]) == 0 {
		return fmt.Errorf("document %d has no editable parent for this client", d)
	}
	slot := int(o.parent % uint32(len(e.parents[d])))
	p := &e.parents[d][slot]
	pos := int(o.pos % uint32(p.children+1))
	if o.kind == opInsertSkew {
		// Always the gap in front of the first parent's first child:
		// every insert lands between the parent's start and the
		// previous insert, so the codes grow by about a bit each time.
		slot, p, pos = 0, &e.parents[d][0], 0
	}
	id, relabeled, err := s.insert(d, p.id, pos)
	if err != nil {
		return err
	}
	p.children++
	e.fifo[d] = append(e.fifo[d], ownInsert{id: id, slot: slot})
	e.inserts[d]++
	e.relabeled += relabeled
	if relabeled > 0 {
		// The scheme under test is dynamic: an insert that re-labels an
		// existing node contradicts the paper's claim and is a failure.
		return fmt.Errorf("insert under node %d re-labelled %d existing nodes", p.id, relabeled)
	}
	return nil
}

// isInsert reports whether the next opEdit on doc would insert (as
// opposed to delete the oldest own insert).
func (e *editState) isInsert(doc int) bool { return len(e.fifo[doc]) < e.fifoCap }

// bindParents gives the client its share of a document's editable
// parents: every clients-th one starting at client. ids are the
// system's answer to //parentName, in document order like shapes.
func (e *editState) bindParents(doc int, ids []int, shapes []parentShape, client, clients int) error {
	if len(ids) != len(shapes) {
		return fmt.Errorf("document %d: system reports %d editable parents, template has %d", doc, len(ids), len(shapes))
	}
	e.parents[doc] = e.parents[doc][:0]
	e.fifo[doc] = e.fifo[doc][:0]
	for i := client; i < len(ids); i += clients {
		e.parents[doc] = append(e.parents[doc], parentSlot{id: ids[i], children: shapes[i].children})
	}
	return nil
}
