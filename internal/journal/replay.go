package journal

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/dyndoc"
	"repro/internal/registry"
	"repro/internal/xmltree"
)

// Exists reports whether dir holds a journal (any segment files,
// beyond the residue of a Create that never finished — see segments).
// A missing directory is simply no journal, not an error.
func Exists(dir string) (bool, error) {
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	gens, err := segments(dir)
	if err != nil {
		return false, err
	}
	return len(gens) > 0, nil
}

// ReplayInfo describes what a Replay did.
type ReplayInfo struct {
	// Scheme is the registry scheme name recorded in the checkpoint —
	// the scheme the rebuilt document is labeled under.
	Scheme string
	// Checkpoint is the segment generation recovery started from.
	Checkpoint uint64
	// Batches and Edits count the log tail replayed on top of the
	// checkpoint.
	Batches int
	Edits   int
	// Repaired reports that the journal bore crash damage that Replay
	// fixed (only possible with Config.Recover).
	Repaired bool
	// TruncatedBytes is how much of a torn log tail was cut.
	TruncatedBytes int64
}

// genFiles records which segment files exist for one generation.
type genFiles struct {
	gen  uint64
	ckpt bool
	log  bool
}

// listGens scans the journal directory for segment files, newest
// generation first. Unrecognized files are an error — the journal
// owns its directory.
func listGens(dir string) ([]genFiles, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	byGen := map[uint64]*genFiles{}
	for _, e := range entries {
		if e.IsDir() {
			// Subdirectories are someone else's: dynxml parks its paged
			// label files in <dir>/pages alongside the segments.
			continue
		}
		var gen uint64
		var kind string
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%08d", &gen); err == nil {
			kind = "ckpt"
		} else if _, err := fmt.Sscanf(e.Name(), "log-%08d", &gen); err == nil {
			kind = "log"
		} else {
			return nil, fmt.Errorf("journal: unexpected file %q in %s", e.Name(), dir)
		}
		g := byGen[gen]
		if g == nil {
			g = &genFiles{gen: gen}
			byGen[gen] = g
		}
		if kind == "ckpt" {
			g.ckpt = true
		} else {
			g.log = true
		}
	}
	out := make([]genFiles, 0, len(byGen))
	for _, g := range byGen {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].gen > out[k].gen })
	return out, nil
}

// segments is listGens under the unfinished-create rule: a directory
// whose only segment file is an incomplete ckpt-00000000 holds no
// journal. That file is what a kill inside Create, or inside a
// follower's first snapshot adoption, leaves behind; log-0 is created
// only once checkpoint 0 is complete and neither call had returned, so
// nothing in such a directory was ever acknowledged and the next
// Create (or from-scratch fetch) simply writes over it. Every other
// directory without a complete checkpoint stays an error.
func segments(dir string) ([]genFiles, error) {
	gens, err := listGens(dir)
	if err != nil {
		return nil, err
	}
	if len(gens) == 1 && gens[0].gen == 0 && gens[0].ckpt && !gens[0].log {
		if _, ok := readCheckpoint(ckptPath(dir, 0)); !ok {
			return nil, nil
		}
	}
	return gens, nil
}

// readCheckpoint parses ckpt-gen and reports whether it is complete:
// a meta record first, then as many records as the END trailer
// advertises (none since checkpoints stopped carrying per-node label
// records; older ones carry one per node, which nothing reads), and a
// decodable END trailer last. An incomplete checkpoint — torn or
// damaged file, missing trailer, record count mismatch — is not an
// error here; it is the expected residue of a crash mid-checkpoint,
// and the caller falls back to the previous generation.
func readCheckpoint(path string) (checkpointMeta, bool) {
	s, err := scanFile(path)
	recs := s.recs
	if err != nil || s.why != cleanEOF || len(recs) < 2 {
		return checkpointMeta{}, false
	}
	if recs[0].ID != metaRecordID || recs[len(recs)-1].ID != endRecordID {
		return checkpointMeta{}, false
	}
	meta, err := decodeMeta(recs[0].Payload)
	if err != nil {
		return checkpointMeta{}, false
	}
	end, err := decodeEnd(recs[len(recs)-1].Payload)
	if err != nil {
		return checkpointMeta{}, false
	}
	if end.Labels != len(recs)-2 || end.BaseSeq != meta.BaseSeq {
		return checkpointMeta{}, false
	}
	return meta, true
}

// rebuildFromMeta reconstructs the checkpointed document and the
// checkpoint-id → rebuilt-id map its preorder list pins down. The XML
// is parsed with attribute nodes: the checkpoint serialised them (a
// document without any serialises none), and the id list counts them.
func rebuildFromMeta(meta checkpointMeta) (*dyndoc.Document, map[int]int, error) {
	entry, err := registry.Lookup(meta.Scheme)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: checkpoint scheme: %w", err)
	}
	start := time.Now()
	tree, err := xmltree.ParseWithOptions(strings.NewReader(meta.XML), xmltree.ParseOptions{IncludeAttributes: true})
	dyndoc.ObserveOpenParse(start)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: rebuilding checkpoint document: %w", err)
	}
	d, err := dyndoc.New(tree, entry.Build)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: rebuilding checkpoint document: %w", err)
	}
	pre := d.Labeling().Tree().PreOrder()
	if len(pre) != len(meta.PreOrder) {
		return nil, nil, fmt.Errorf("journal: checkpoint id list has %d entries for %d nodes", len(meta.PreOrder), len(pre))
	}
	idmap := make(map[int]int, len(pre))
	for i, old := range meta.PreOrder {
		idmap[old] = pre[i]
	}
	return d, idmap, nil
}

// errNoJournal reports a directory with no journal in it.
var errNoJournal = errors.New("journal: no journal")

// recovered is a journal directory opened by openDir: the document its
// newest complete checkpoint and log tail rebuild, the map from the
// node ids the checkpoint and log use to the rebuilt document's, and
// the log reopened for appending where it left off.
type recovered struct {
	doc     *dyndoc.Document
	idmap   map[int]int
	store   *segment
	seq     uint64 // last batch replayed
	baseSeq uint64 // sequence the checkpoint covers
	info    ReplayInfo
}

// openDir is the one place a journal-shaped directory — a leader's
// journal or a follower's mirror — is opened: the newest complete
// checkpoint plus every decodable log batch after it, replayed into a
// fresh document. A directory closed cleanly opens without repairs;
// one left by a crash carries signatures (an incomplete checkpoint, a
// torn log tail, a missing log, stray segments) that openDir only
// repairs when cfg.Recover is set, failing with ErrRecoveryTruncated
// before it has modified any file otherwise. Repair never drops a
// batch that was fsynced before it was acknowledged: such batches sit
// before any torn tail.
func openDir(cfg Config) (*recovered, error) {
	gens, err := segments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("%w in %s", errNoJournal, cfg.Dir)
	}

	// Pick the newest generation whose checkpoint is complete. Every
	// generation skipped over, and every older generation left behind,
	// is crash damage to clean up.
	chosen := -1
	var meta checkpointMeta
	needRepair := false
	for i, g := range gens {
		if !g.ckpt {
			needRepair = true // a log (or nothing) without its checkpoint
			continue
		}
		if m, ok := readCheckpoint(ckptPath(cfg.Dir, g.gen)); ok {
			chosen = i
			meta = m
			break
		}
		needRepair = true // torn or incomplete checkpoint
	}
	if chosen < 0 {
		return nil, fmt.Errorf("journal: no complete checkpoint in %s", cfg.Dir)
	}
	if chosen+1 < len(gens) {
		needRepair = true // stale older generations not yet removed
	}
	g := gens[chosen]
	r := &recovered{baseSeq: meta.BaseSeq, info: ReplayInfo{Checkpoint: g.gen, Scheme: meta.Scheme}}

	// Everything but the log's own state is known by now; refuse before
	// the log is opened read-write.
	if !g.log {
		needRepair = true // crash between checkpoint completion and log creation
	}
	if needRepair && !cfg.Recover {
		return nil, fmt.Errorf("%w (open with recovery enabled to repair)", ErrRecoveryTruncated)
	}

	// Open the log tail where it left off. A missing log holds no
	// batches and is created below; a torn one is truncated at the last
	// clean record boundary.
	lp := logPath(cfg.Dir, g.gen)
	var tail reopened
	if g.log {
		tail, err = reopenStore(cfg, lp)
		if err != nil {
			return nil, err
		}
		needRepair = needRepair || tail.damaged
		r.info.TruncatedBytes = tail.cut
	}
	r.info.Repaired = needRepair
	r.store = tail.store
	fail := func(err error) (*recovered, error) {
		if r.store != nil {
			_ = r.store.Close() // nothing was appended; err is the one to report
		}
		return nil, err
	}

	// Rebuild the document from the checkpoint and re-execute the
	// tail. The rebuilt document numbers its nodes freshly, so edits
	// are translated through an old-id → new-id map seeded from the
	// checkpoint's preorder list and extended by each batch's recorded
	// results.
	r.doc, r.idmap, err = rebuildFromMeta(meta)
	if err != nil {
		return fail(err)
	}
	batches := make([]ShipBatch, len(tail.recs))
	for i, rec := range tail.recs {
		batches[i] = ShipBatch{Seq: rec.ID, Payload: rec.Payload}
	}
	r.seq, r.info.Edits, err = replayBatches(r.doc, r.idmap, meta.BaseSeq, batches)
	if err != nil {
		return fail(err)
	}
	r.info.Batches = len(batches)
	mReplayedEdits.Add(int64(r.info.Edits))

	// Remove everything that is not the chosen generation (only
	// reachable with cfg.Recover — needRepair gated above).
	for i, other := range gens {
		if i == chosen {
			continue
		}
		if other.ckpt {
			_ = os.Remove(ckptPath(cfg.Dir, other.gen))
		}
		if other.log {
			_ = os.Remove(logPath(cfg.Dir, other.gen))
		}
	}
	if needRepair {
		syncDir(cfg.Dir)
	}

	if r.store == nil {
		r.store, err = openStore(cfg, lp)
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Replay rebuilds a live document from the journal in cfg.Dir (see
// openDir for what is read and what Config.Recover repairs) and
// returns the journal reopened for appending where the log left off.
func Replay(cfg Config) (*Journal, *dyndoc.Document, ReplayInfo, error) {
	r, err := openDir(cfg)
	if err != nil {
		return nil, nil, ReplayInfo{}, err
	}
	// The journal's recorded scheme wins over whatever the caller
	// passed (dynxml supplies its default when the user names none):
	// carry it into the reopened journal so a later Checkpoint
	// re-records it instead of silently migrating the journal onto the
	// caller's scheme while this session's document stays labeled
	// under the recorded one.
	cfg.Scheme = r.info.Scheme
	return newJournal(cfg, r.store, r.info.Checkpoint, r.seq, r.baseSeq), r.doc, r.info, nil
}

// replayBatches re-executes a run of journaled batches, the first at
// sequence from+1, onto an unpublished document — no clone, no
// publication. A gap or regression in the run is an error: applying
// past it would fork the document from the history that was logged.
func replayBatches(d *dyndoc.Document, idmap map[int]int, from uint64, batches []ShipBatch) (seq uint64, edits int, err error) {
	seq = from
	for _, b := range batches {
		if b.Seq != seq+1 {
			return seq, edits, fmt.Errorf("journal: batch %d out of sequence (want %d)", b.Seq, seq+1)
		}
		es, recorded, err := DecodeBatch(b.Payload)
		if err != nil {
			return seq, edits, fmt.Errorf("journal: batch %d: %w", b.Seq, err)
		}
		if _, _, err := applyRecorded(d, idmap, es, recorded); err != nil {
			return seq, edits, fmt.Errorf("journal: replaying batch %d: %w", b.Seq, err)
		}
		seq = b.Seq
		edits += len(es)
	}
	return seq, edits, nil
}

// applyRecorded re-executes one recorded batch against the rebuilt
// document, translating node ids both ways: edit references old→new
// before applying, recorded result ids old→new after, so later
// batches can reference nodes this one created. It returns the
// translated edits and the fresh results — ids valid in d — which the
// follower feeds to watch notification.
func applyRecorded(d *dyndoc.Document, idmap map[int]int, edits []dyndoc.Edit, recorded []dyndoc.EditResult) ([]dyndoc.Edit, []dyndoc.EditResult, error) {
	if len(recorded) != len(edits) {
		return nil, nil, fmt.Errorf("%w: %d results for %d edits", ErrCodec, len(recorded), len(edits))
	}
	translated := make([]dyndoc.Edit, len(edits))
	for i, e := range edits {
		t := e
		switch e.Op {
		case dyndoc.OpInsertElement, dyndoc.OpInsertTree:
			nid, ok := idmap[e.Parent]
			if !ok {
				return nil, nil, fmt.Errorf("edit %d references unknown parent %d", i, e.Parent)
			}
			t.Parent = nid
		case dyndoc.OpDeleteSubtree:
			nid, ok := idmap[e.Node]
			if !ok {
				return nil, nil, fmt.Errorf("edit %d references unknown node %d", i, e.Node)
			}
			t.Node = nid
		}
		translated[i] = t
	}
	results, err := d.ApplyBatch(translated)
	if err != nil {
		return nil, nil, err
	}
	for i, rec := range recorded {
		if len(results[i].IDs) != len(rec.IDs) {
			return nil, nil, fmt.Errorf("edit %d produced %d ids, journal recorded %d", i, len(results[i].IDs), len(rec.IDs))
		}
		for k, old := range rec.IDs {
			idmap[old] = results[i].IDs[k]
		}
	}
	return translated, results, nil
}
