package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/dyndoc"
	"repro/internal/labelstore"
	"repro/internal/registry"
	"repro/internal/xmltree"
)

// Exists reports whether dir holds a journal (any segment files). A
// missing directory is simply no journal, not an error.
func Exists(dir string) (bool, error) {
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	gens, err := listGens(dir)
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

// readCheckpoint parses ckpt-gen and reports whether it is complete:
// a meta record first, then as many records as the END trailer
// advertises (none since checkpoints stopped carrying per-node label
// records; older ones carry one per node, which nothing reads), and a
// decodable END trailer last. An incomplete checkpoint — torn or
// damaged file, missing trailer, record count mismatch — is not an
// error here; it is the expected residue of a crash mid-checkpoint,
// and the caller falls back to the previous generation.
func readCheckpoint(path string) (checkpointMeta, bool) {
	recs, err := labelstore.ReadAll(path)
	if err != nil || len(recs) < 2 {
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
	tree, err := xmltree.ParseWithOptions(strings.NewReader(meta.XML), xmltree.ParseOptions{IncludeAttributes: true})
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

// Replay rebuilds a live document from the journal in cfg.Dir — the
// newest complete checkpoint plus every decodable log batch after it
// — and returns the journal reopened for appending where the log left
// off. A journal closed cleanly replays without repairs; one left by
// a crash carries signatures (an incomplete checkpoint, a torn log
// tail, a missing log, stray segments) that Replay only repairs when
// cfg.Recover is set, failing with ErrRecoveryTruncated otherwise.
// Repair never drops a batch whose durability was acknowledged in
// SyncAlways mode: such batches are fsynced before acknowledgment, so
// they sit before any torn tail.
func Replay(cfg Config) (*Journal, *dyndoc.Document, ReplayInfo, error) {
	var info ReplayInfo
	fail := func(err error) (*Journal, *dyndoc.Document, ReplayInfo, error) {
		return nil, nil, info, err
	}
	gens, err := listGens(cfg.Dir)
	if err != nil {
		return fail(err)
	}
	if len(gens) == 0 {
		return fail(fmt.Errorf("journal: no journal in %s", cfg.Dir))
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
		return fail(fmt.Errorf("journal: no complete checkpoint in %s", cfg.Dir))
	}
	if chosen+1 < len(gens) {
		needRepair = true // stale older generations not yet removed
	}
	g := gens[chosen]
	info.Checkpoint = g.gen
	info.Scheme = meta.Scheme
	// The journal's recorded scheme wins over whatever the caller
	// passed (dynxml supplies its default when the user names none):
	// carry it into the reopened journal so a later Checkpoint
	// re-records it instead of silently migrating the journal onto the
	// caller's scheme while this session's document stays labeled
	// under the recorded one.
	cfg.Scheme = meta.Scheme

	// Read the log tail. A missing log (crash between checkpoint
	// completion and log creation) holds no batches; a torn one is
	// truncated at the last clean record boundary.
	lp := logPath(cfg.Dir, g.gen)
	var recs []labelstore.Record
	if !g.log {
		needRepair = true
	} else {
		recs, err = labelstore.ReadAll(lp)
		if err != nil {
			needRepair = true
			if cfg.Recover {
				var truncated int64
				recs, truncated, err = labelstore.Recover(lp)
				if err != nil {
					return fail(err)
				}
				info.TruncatedBytes = truncated
			}
		}
	}
	if needRepair && !cfg.Recover {
		return fail(fmt.Errorf("%w (open with recovery enabled to repair)", ErrRecoveryTruncated))
	}
	info.Repaired = needRepair

	// Rebuild the document from the checkpoint and re-execute the
	// tail. The rebuilt document numbers its nodes freshly, so edits
	// are translated through an old-id → new-id map seeded from the
	// checkpoint's preorder list and extended by each batch's recorded
	// results.
	d, idmap, err := rebuildFromMeta(meta)
	if err != nil {
		return fail(err)
	}
	seq := meta.BaseSeq
	for _, rec := range recs {
		if rec.ID != seq+1 {
			return fail(fmt.Errorf("journal: log record %d out of sequence (want %d)", rec.ID, seq+1))
		}
		edits, recorded, err := DecodeBatch(rec.Payload)
		if err != nil {
			return fail(err)
		}
		if _, _, err := applyRecorded(d, idmap, edits, recorded); err != nil {
			return fail(fmt.Errorf("journal: replaying batch %d: %w", rec.ID, err))
		}
		seq = rec.ID
		info.Batches++
		info.Edits += len(edits)
		mReplayedEdits.Add(int64(len(edits)))
	}

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

	// Reopen the log for appending, through the configured wrapper.
	var store *labelstore.Store
	if !g.log {
		store, err = openStore(cfg, lp)
		if err != nil {
			return fail(err)
		}
	} else {
		f, err := os.OpenFile(lp, os.O_RDWR, 0)
		if err != nil {
			return fail(fmt.Errorf("journal: %w", err))
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			_ = f.Close()
			return fail(fmt.Errorf("journal: %w", err))
		}
		var lf labelstore.File = f
		if cfg.WrapFile != nil {
			lf = cfg.WrapFile(lf)
		}
		store = labelstore.AppendStore(lf)
	}
	return newJournal(cfg, store, g.gen, seq, meta.BaseSeq), d, info, nil
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
