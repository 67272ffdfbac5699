package dyndoc

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/xmltree"
)

// mBatchSize tracks how many edits (ApplyBatch) or fragments
// (InsertTreeBatch) each batch carries — the amortization knob the
// snapshot layer pays one clone per.
var mBatchSize = metrics.Default.Histogram("dyndoc_batch_size", metrics.ExpBuckets(1, 2, 12))

// EditOp selects the operation of one batch Edit.
type EditOp int

const (
	// OpInsertElement inserts a fresh element Name as the Pos-th child
	// of Parent.
	OpInsertElement EditOp = iota
	// OpInsertTree inserts a deep copy of Fragment as the Pos-th child
	// of Parent.
	OpInsertTree
	// OpDeleteSubtree removes node Node and its descendants.
	OpDeleteSubtree
)

// Edit is one operation of a batch. Exactly the fields its Op reads
// are meaningful; the rest are ignored.
type Edit struct {
	Op       EditOp
	Parent   int           // insert ops: parent id
	Pos      int           // insert ops: child position
	Name     string        // OpInsertElement: element name
	Fragment *xmltree.Node // OpInsertTree: fragment shape
	Node     int           // OpDeleteSubtree: subtree root id
}

// EditResult reports what one Edit did.
type EditResult struct {
	IDs       []int // ids created by an insert op (preorder), nil for deletes
	Relabeled int   // existing nodes re-labeled by the op
	Removed   int   // nodes removed by a delete op
}

// ApplyBatch applies the edits in order against the document and
// returns one result per completed edit. Later edits may reference
// ids created by earlier ones. A run of OpInsertTree edits at
// consecutive positions under one parent is labeled in one pass, as
// InsertTreeBatch labels it, so a replayed or journaled bulk insert
// gets the same labels as the original; the run's relabel count goes
// to its first result, and a run with a bad fragment applies none of
// the run. On error the already-applied prefix of results is returned
// with it; on a Concurrent document ApplyBatch is instead
// all-or-nothing (the batch runs on a private clone).
func (d *Document) ApplyBatch(edits []Edit) ([]EditResult, error) {
	if len(edits) == 0 {
		return nil, nil
	}
	mBatchSize.Observe(float64(len(edits)))
	out := make([]EditResult, 0, len(edits))
	for i := 0; i < len(edits); i++ {
		switch e := edits[i]; e.Op {
		case OpInsertElement:
			id, relabeled, err := d.InsertElement(e.Parent, e.Pos, e.Name)
			if err != nil {
				return out, fmt.Errorf("dyndoc: batch edit %d: %w", i, err)
			}
			out = append(out, EditResult{IDs: []int{id}, Relabeled: relabeled})
		case OpInsertTree:
			run := []*xmltree.Node{e.Fragment}
			for k := i + 1; k < len(edits) && edits[k].Op == OpInsertTree && edits[k].Parent == e.Parent && edits[k].Pos == e.Pos+len(run); k++ {
				run = append(run, edits[k].Fragment)
			}
			ids, relabeled, err := d.insertTrees(e.Parent, e.Pos, run)
			if err != nil {
				return out, fmt.Errorf("dyndoc: batch edit %d: %w", i, err)
			}
			for _, fids := range ids {
				out = append(out, EditResult{IDs: fids})
			}
			out[len(out)-len(ids)].Relabeled = relabeled
			i += len(run) - 1
		case OpDeleteSubtree:
			removed, err := d.DeleteSubtree(e.Node)
			if err != nil {
				return out, fmt.Errorf("dyndoc: batch edit %d: %w", i, err)
			}
			out = append(out, EditResult{Removed: removed})
		default:
			return out, fmt.Errorf("dyndoc: batch edit %d: unknown op %d", i, e.Op)
		}
	}
	return out, nil
}

// InsertTreeBatch inserts copies of the fragments as consecutive
// children of parent starting at pos. The whole run takes the label
// write path once (scheme.Labeling.InsertSubtrees): under a dynamic
// codec every fragment code lands in the single gap with one even
// subdivision (EncodeBetween), so the codes stay as short as a fresh
// bulk encoding. It returns one preorder id slice per fragment and the
// total re-label count.
func (d *Document) InsertTreeBatch(parent, pos int, fragments []*xmltree.Node) ([][]int, int, error) {
	if len(fragments) == 0 {
		return nil, 0, nil
	}
	mBatchSize.Observe(float64(len(fragments)))
	return d.insertTrees(parent, pos, fragments)
}

// insertTrees is InsertTreeBatch, and InsertTree as a batch of one.
// Target, fragments and their names are checked before the first
// mutation.
func (d *Document) insertTrees(parent, pos int, fragments []*xmltree.Node) ([][]int, int, error) {
	if err := d.validateInsert(parent, pos); err != nil {
		return nil, 0, err
	}
	for _, f := range fragments {
		if f == nil || f.Kind != xmltree.Element {
			return nil, 0, errors.New("dyndoc: fragment must be an element tree")
		}
	}
	for _, f := range fragments {
		if err := d.intern(f); err != nil {
			return nil, 0, err
		}
	}
	d.lastEdit = editTokens.Add(1)
	d.touchChildren(parent)
	ids, relabeled, err := d.lab.InsertSubtrees(parent, pos, fragments)
	if err != nil {
		return nil, 0, refused(err)
	}
	d.relabeled += int64(relabeled)
	mInserts.Add(int64(len(fragments)))
	mRelabeled.Add(int64(relabeled))
	rebuild := d.rebuildAfter(relabeled)
	var failed error
	for k, f := range fragments {
		// As within recordTree: every fragment is recorded, the first
		// index failure ends the index writes.
		if err := d.recordTree(ids[k], f, rebuild || failed != nil); err != nil {
			failed = err
		}
	}
	if failed != nil {
		return nil, 0, failed
	}
	if rebuild {
		if err := d.rebuildIndex(); err != nil {
			return nil, 0, err
		}
	}
	return ids, relabeled, nil
}
