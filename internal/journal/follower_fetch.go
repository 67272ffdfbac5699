package journal

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/dyndoc"
)

// Batches arrive as ShipChunks pulled from a leader (over HTTP in
// production; any FetchFunc in tests) and are mirrored into the
// follower's own local journal-shaped directory before the advertised
// horizon advances. The mirror is what makes the horizon a durability
// promise: a follower killed at any instant and restarted re-serves
// every batch at or below the horizon it last advertised, from local
// state alone, before it ever reaches the leader again.
//
// The mirror checkpoint stores the leader's checkpoint meta verbatim —
// its preorder list carries LEADER node ids, which is what makes the
// mirrored batch payloads (also in leader ids) replayable on restart.

// bootstrap restores the replica from the local mirror — openDir, the
// same opener a leader's Replay uses, repairing whatever a kill left —
// or, when the directory holds no journal yet, performs one synchronous
// from-scratch fetch so OpenFollower returns a queryable document.
func (f *Follower) bootstrap() error {
	f.pollMu.Lock()
	defer f.pollMu.Unlock()
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("journal: follower: %w", err)
	}
	// Our own files: a torn tail is an interrupted mirror write for a
	// batch the horizon never covered — truncate and refetch it.
	r, err := openDir(Config{Dir: f.cfg.Dir, WrapFile: f.cfg.WrapFile, Recover: true})
	if errors.Is(err, errNoJournal) {
		if err := f.pollFetch(); err != nil {
			return err
		}
		if f.doc == nil {
			return fmt.Errorf("journal: follower: leader returned no snapshot for a from-scratch fetch")
		}
		return nil
	}
	if err != nil {
		return err
	}
	c, err := dyndoc.NewConcurrentFrom(r.doc)
	if err != nil {
		_ = r.store.Close()
		return err
	}
	f.doc = c
	f.idmap = r.idmap
	f.store = r.store
	f.mu.Lock()
	f.gen = r.gen
	f.schemeName = r.info.Scheme
	f.seq = r.seq
	f.horizon = r.seq
	f.leaderHorizon = r.seq
	f.batches += uint64(r.info.Batches)
	f.edits += uint64(r.info.Edits)
	f.mu.Unlock()
	return nil
}

// pollFetch is one poll round: pull a chunk, adopt its snapshot
// if it carries one, apply and mirror the batches, then advance the
// horizon. A fetch transport error is transient, and so is a snapshot
// adoption whose mirror writes failed and were removed; everything else
// after a successful fetch is validated history, so failures there are
// sticky.
//
// vet:holds f.pollMu
func (f *Follower) pollFetch() error {
	from := uint64(FromScratch)
	if f.doc != nil {
		from = f.seqLocal()
	}
	chunk, err := f.cfg.Fetch(from, f.cfg.MaxBatch)
	if err != nil {
		return err
	}
	if chunk == nil {
		return nil
	}
	if chunk.Snapshot != nil {
		return f.adoptChunk(chunk)
	}
	if f.doc == nil {
		return f.fail(fmt.Errorf("journal: follower: no snapshot in from-scratch chunk"))
	}
	if chunk.Horizon < from {
		return f.fail(fmt.Errorf("journal: follower: leader horizon %d below replica position %d", chunk.Horizon, from))
	}
	if len(chunk.Batches) > 0 {
		// The run publishes as one snapshot, applied by replayBatches as
		// an open or a snapshot adoption applies it. Its continuity check
		// gives a FetchFunc that did not come through DecodeShipStream
		// (in-process tests, custom transports) the scrutiny a network
		// stream gets.
		var seq uint64
		var edits int
		idmap := f.idmap // pinned here: the closure runs synchronously inside Update
		err := f.doc.Update(func(d *dyndoc.Document) error {
			var err error
			seq, edits, err = replayBatches(d, idmap, from, chunk.Batches)
			return err
		})
		if err != nil {
			return f.fail(err)
		}
		f.mu.Lock()
		f.seq = seq
		f.batches += uint64(len(chunk.Batches))
		f.edits += uint64(edits)
		f.mu.Unlock()
		mFollowerApplied.Add(int64(len(chunk.Batches)))
		if err := f.persistBatches(chunk.Batches); err != nil {
			return err
		}
	}
	f.mu.Lock()
	f.leaderHorizon = chunk.Horizon
	f.mu.Unlock()
	return nil
}

// persistBatches mirrors applied batches to the local log and syncs
// before advancing the advertised horizon — the order the kill-and-
// restart contract depends on.
//
// vet:holds f.pollMu
func (f *Follower) persistBatches(batches []ShipBatch) error {
	for _, b := range batches {
		if err := f.store.Write(b.Seq, b.Payload); err != nil {
			return f.fail(err)
		}
	}
	if err := f.store.Sync(); err != nil {
		return f.fail(err)
	}
	f.mu.Lock()
	f.horizon = f.seq
	f.mu.Unlock()
	return nil
}

// adoptChunk swaps the replica onto a leader checkpoint: rebuild the
// document from the shipped meta, replay the chunk's batches onto it,
// mirror everything as a fresh local generation, and only then publish
// the swap and drop the old generation.
//
// vet:holds f.pollMu
func (f *Follower) adoptChunk(chunk *ShipChunk) error {
	meta, err := decodeMeta(chunk.Snapshot)
	if err != nil {
		return f.fail(err)
	}
	if f.doc != nil && meta.BaseSeq < f.seqLocal() {
		return f.fail(fmt.Errorf("journal: follower: snapshot base %d regresses below replica position %d", meta.BaseSeq, f.seqLocal()))
	}
	d, idmap, err := rebuildFromMeta(meta)
	if err != nil {
		return f.fail(err)
	}
	seq, edits, err := replayBatches(d, idmap, meta.BaseSeq, chunk.Batches)
	if err != nil {
		return f.fail(err)
	}
	if chunk.Horizon < seq {
		return f.fail(fmt.Errorf("journal: follower: leader horizon %d below shipped batch %d", chunk.Horizon, seq))
	}
	// Mirror the new generation durably before publishing it. A start
	// that failed cleanly left the old generation as it was, so the next
	// poll can try again.
	oldGen := f.genLocal()
	newGen := oldGen + 1
	if f.doc == nil {
		newGen = 0
	}
	store, err := startGen(Config{Dir: f.cfg.Dir, WrapFile: f.cfg.WrapFile}, newGen, meta, chunk.Batches)
	if errors.Is(err, errLeftover) {
		return f.fail(err)
	}
	if err != nil {
		return err
	}
	// Publish, swap mirror state, drop the old generation.
	reset := f.doc != nil
	if !reset {
		f.doc, _ = dyndoc.NewConcurrentFrom(d) // its error is always nil
	} else if err := f.doc.Reset(d); err != nil {
		_ = store.Close()
		return f.fail(err)
	}
	if f.store != nil {
		_ = f.store.Close()
	}
	f.store = store
	f.idmap = idmap
	if reset {
		// A generation that stays behind is stale: the next bootstrap
		// retires it.
		_ = retireGens(f.cfg.Dir, oldGen)
		mFollowerResets.Inc()
	}
	f.mu.Lock()
	f.gen = newGen
	f.schemeName = meta.Scheme
	f.seq = seq
	f.horizon = seq
	f.leaderHorizon = chunk.Horizon
	f.batches += uint64(len(chunk.Batches))
	f.edits += uint64(edits)
	if reset {
		f.resets++
	}
	f.mu.Unlock()
	mFollowerApplied.Add(int64(len(chunk.Batches)))
	return nil
}
