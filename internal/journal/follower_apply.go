package journal

import (
	"fmt"

	"repro/internal/dyndoc"
)

// seqLocal reads the applied sequence under mu.
func (f *Follower) seqLocal() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// genLocal reads the current generation under mu.
func (f *Follower) genLocal() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

// applyBatchesLive replays a contiguous run of batches into the
// published document as ONE snapshot swap (dyndoc.Concurrent.Replay):
// readers observe none or all of the run, and watchers get the precise
// edit delta. The caller has validated continuity; ids are translated
// through the follower's leader→local map, which each batch's recorded
// results extend. Runs on the poll thread.
//
// vet:holds f.pollMu
func (f *Follower) applyBatchesLive(batches []ShipBatch) error {
	if len(batches) == 0 {
		return nil
	}
	var nEdits int
	idmap := f.idmap // pinned here: the closure below runs synchronously inside Replay
	err := f.doc.Replay(func(d *dyndoc.Document) ([]dyndoc.Edit, []dyndoc.EditResult, error) {
		var allEdits []dyndoc.Edit
		var allResults []dyndoc.EditResult
		for _, b := range batches {
			edits, recorded, err := DecodeBatch(b.Payload)
			if err != nil {
				return nil, nil, fmt.Errorf("batch %d: %w", b.Seq, err)
			}
			te, res, err := applyRecorded(d, idmap, edits, recorded)
			if err != nil {
				return nil, nil, fmt.Errorf("batch %d: %w", b.Seq, err)
			}
			allEdits = append(allEdits, te...)
			allResults = append(allResults, res...)
		}
		nEdits = len(allEdits)
		return allEdits, allResults, nil
	})
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.seq = batches[len(batches)-1].Seq
	f.batches += uint64(len(batches))
	f.edits += uint64(nEdits)
	f.mu.Unlock()
	mFollowerApplied.Add(int64(len(batches)))
	return nil
}
