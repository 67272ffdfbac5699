package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dyndoc"
	"repro/internal/metrics"
)

// Journal metrics. The append histogram is the cost an edit pays on
// the writer path (encode + buffered write, not the fsync); the
// group-size histogram shows how many batches each fsync made durable
// — the amortization group commit exists for.
var (
	mAppendSeconds  = metrics.Default.Histogram("journal_append_seconds", nil)
	mAppends        = metrics.Default.Counter("journal_appends_total")
	mGroupCommits   = metrics.Default.Counter("journal_group_commits_total")
	mGroupSize      = metrics.Default.Histogram("journal_group_commit_batches", metrics.ExpBuckets(1, 2, 12))
	mCheckpoints    = metrics.Default.Counter("journal_checkpoints_total")
	mReclaimedBytes = metrics.Default.Counter("journal_checkpoint_reclaimed_bytes_total")
	mReplayedEdits  = metrics.Default.Counter("journal_replayed_edits_total")
)

// Mode selects when appended batches are forced to stable storage.
type Mode int

const (
	// SyncAlways fsyncs before acknowledging each batch; concurrent
	// writers share fsyncs through the group-commit pipeline. This is
	// the only mode whose acknowledgments survive power loss.
	SyncAlways Mode = iota
	// SyncInterval acknowledges immediately and fsyncs on a timer; a
	// crash loses at most the last interval of acknowledged batches.
	SyncInterval
	// SyncNone never fsyncs on the edit path (Close still does); a
	// crash loses whatever the OS had not written back.
	SyncNone
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config describes a journal.
type Config struct {
	// Dir is the journal directory: one ckpt-N/log-N segment pair,
	// both segment files (segment.go).
	Dir string
	// Scheme is the registry name recorded in checkpoints so Replay
	// can rebuild the document under the same labeling scheme.
	Scheme string
	// Mode selects the durability mode (default SyncAlways).
	Mode Mode
	// Interval is the SyncInterval flush period (default 100ms).
	Interval time.Duration
	// WrapFile, if set, wraps every file the journal opens for
	// writing — the fault-injection seam the kill matrix uses.
	WrapFile func(f File) File
	// Recover permits Replay to repair crash damage (truncate a torn
	// log tail, discard an incomplete checkpoint, start a generation
	// over a checkpoint whose log is missing, remove stray segments).
	// Without it Replay refuses such journals with ErrRecoveryTruncated.
	Recover bool
}

// groupWindow bounds how long a SyncAlways commit leader waits before
// flushing so that batches from concurrent writers join its wave — the
// classic group-commit delay (PostgreSQL's commit_delay). Without it a
// leader elected right after its own append often syncs a wave of one,
// halving the achievable coalescing. The wait is a yielding spin, not
// a sleep (sub-millisecond sleeps overshoot by far more than the
// window), and ends once appends have been quiet for groupQuiet, so a
// lone writer pays only that.
const (
	groupWindow = 50 * time.Microsecond
	groupQuiet  = groupWindow / 8
)

// ErrClosed reports journal use after Close.
var ErrClosed = errors.New("journal: closed")

// ErrExists reports Create on a directory that already holds a
// journal.
var ErrExists = errors.New("journal: already exists")

// ErrRecoveryTruncated reports a journal bearing crash damage that
// Replay would have to repair — a torn log tail, an incomplete
// checkpoint, a missing or stray segment file. Opening with
// Config.Recover accepts the repair (acknowledged-durable batches are
// still never dropped; only unacknowledged or weaker-mode suffixes
// are).
var ErrRecoveryTruncated = errors.New("journal: recovery requires truncation")

// Reserved record ids. A log's records are batches under their
// sequence numbers, which never reach the top of the id space; a
// checkpoint is a meta record and an END trailer, and a ship chunk
// (ship.go) ends with a horizon record.
const (
	metaRecordID    = ^uint64(0)
	endRecordID     = ^uint64(0) - 1
	horizonRecordID = ^uint64(0) - 2
)

func ckptPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%08d", gen))
}

func logPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("log-%08d", gen))
}

// Journal is a write-ahead log of edit batches. Append is safe for
// concurrent use; the durability wait it returns runs the group
// commit pipeline outside the append lock, so one fsync covers every
// batch appended while the previous fsync was in flight.
type Journal struct {
	cfg Config

	// mu is the append lock: sequence assignment and buffered record
	// writes, in publication order.
	mu       sync.Mutex
	store    *segment // vet:guardedby mu
	gen      uint64   // vet:guardedby mu // current segment generation
	seq      uint64   // vet:guardedby mu // last appended batch sequence
	baseSeq  uint64   // vet:guardedby mu // seq when this session opened (replayed history)
	ckptBase uint64   // vet:guardedby mu // seq the current generation's checkpoint covers
	closed   bool     // vet:guardedby mu

	// appended mirrors seq for lock-free reads by the group-commit
	// window spin (an approximate progress signal, not a fence).
	appended atomic.Uint64

	// cmu guards the commit pipeline: which sequences are durable,
	// whether a leader is mid-fsync, and the wedge error that poisons
	// the journal after an I/O failure.
	cmu  sync.Mutex
	cond *sync.Cond // vet:guardedby cmu

	// durable is the acknowledged-durable horizon: the highest batch
	// sequence known to be on stable storage.
	durable uint64 // vet:guardedby cmu
	syncing bool   // vet:guardedby cmu
	wedged  error  // vet:guardedby cmu

	checkpoints uint64 // vet:guardedby mu // completed checkpoints

	// interval-mode flusher lifecycle.
	stop chan struct{}
	done chan struct{}
}

func newJournal(cfg Config, store *segment, gen, seq, ckptBase uint64) *Journal {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	j := &Journal{cfg: cfg, store: store, gen: gen, seq: seq, baseSeq: seq, ckptBase: ckptBase, durable: seq}
	j.cond = sync.NewCond(&j.cmu)
	if cfg.Mode == SyncInterval {
		j.stop = make(chan struct{})
		j.done = make(chan struct{})
		go j.flushLoop()
	}
	return j
}

// syncDir fsyncs the journal directory so segment creations and
// removals are durable. Best-effort: not every platform supports
// directory fsync, and the segment contents themselves are synced
// through their own files.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Create initializes a fresh journal for doc: checkpoint 0 holding
// the document's current state, and an empty log 0. The directory is
// created if missing and must not already contain a journal (the
// residue of an earlier Create that never finished is not one — see
// segments — and is written over). A document whose checkpoint would
// exceed the record limit is refused with ErrRecordTooLarge, and no
// journal is left behind.
func Create(cfg Config, d *dyndoc.Document) (*Journal, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if gens, err := segments(cfg.Dir); err != nil {
		return nil, err
	} else if len(gens) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrExists, cfg.Dir)
	}
	store, err := startGen(cfg, 0, checkpointOf(cfg.Scheme, d, 0), nil)
	if err != nil {
		return nil, err
	}
	return newJournal(cfg, store, 0, 0, 0), nil
}

// checkpointOf is the checkpoint of d: everything Replay rebuilds the
// labeling from — scheme, XML, preorder id list.
func checkpointOf(scheme string, d *dyndoc.Document, baseSeq uint64) checkpointMeta {
	return checkpointMeta{
		Scheme:   scheme,
		XML:      d.XML(),
		PreOrder: append([]int(nil), d.Labeling().Tree().PreOrder()...),
		BaseSeq:  baseSeq,
	}
}

// errLeftover marks a failed startGen whose files could not be removed:
// a later open may pick them, so the caller must stop acknowledging.
var errLeftover = errors.New("journal: failed generation not removable")

// startGen and retireGens are the generation protocol, the only code
// that creates or removes a ckpt-N or log-N; Create, Checkpoint, a
// follower's snapshot adoption and openDir's repair call them.
//
// startGen starts generation gen: ckpt-gen holding meta and the END
// trailer that proves it complete, synced; then log-gen holding
// batches, synced; then the directory. It returns log-gen open for
// appending. A start that fails removes what it created, so the
// generations there before it stay authoritative; when even that
// removal fails the error wraps errLeftover.
func startGen(cfg Config, gen uint64, meta checkpointMeta, batches []ShipBatch) (*segment, error) {
	store, err := writeGen(cfg, gen, meta, batches)
	if err != nil {
		if rmErr := retireGens(cfg.Dir, gen); rmErr != nil {
			return nil, fmt.Errorf("%w: generation %d failed (%v), then: %v", errLeftover, gen, err, rmErr)
		}
		return nil, err
	}
	syncDir(cfg.Dir)
	return store, nil
}

// writeGen writes the two files of startGen.
func writeGen(cfg Config, gen uint64, meta checkpointMeta, batches []ShipBatch) (*segment, error) {
	ckpt, err := openStore(cfg, ckptPath(cfg.Dir, gen),
		record{metaRecordID, encodeMeta(meta)}, record{endRecordID, encodeEnd(checkpointEnd{BaseSeq: meta.BaseSeq})})
	if err == nil {
		err = ckpt.Close()
	}
	if err != nil {
		return nil, err
	}
	recs := make([]record, len(batches))
	for i, b := range batches {
		recs[i] = record{b.Seq, b.Payload}
	}
	return openStore(cfg, logPath(cfg.Dir, gen), recs...)
}

// retireGens removes each generation, its log and then its checkpoint,
// syncs the directory and reports the first removal that failed.
func retireGens(dir string, gens ...uint64) error {
	var first error
	for _, gen := range gens {
		for _, path := range []string{logPath(dir, gen), ckptPath(dir, gen)} {
			if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) && first == nil {
				first = fmt.Errorf("journal: %w", err)
			}
		}
	}
	syncDir(dir)
	return first
}

// Append writes one committed batch to the log and returns a wait
// function that blocks until the batch is durable under the
// configured mode (it returns immediately for SyncInterval and
// SyncNone). Callers must not acknowledge the batch to their own
// clients before wait returns; the commit hook wiring in dyndoc calls
// wait after snapshot publication, outside the writer mutex, which is
// what lets concurrent writers share one fsync. A batch that encodes
// past the record limit fails with ErrRecordTooLarge and leaves the
// journal usable.
func (j *Journal) Append(edits []dyndoc.Edit, results []dyndoc.EditResult) (wait func() error, err error) {
	start := time.Now()
	payload, err := EncodeBatch(edits, results)
	if err != nil {
		// Nothing was written: an unencodable batch (nil fragment)
		// fails this append without poisoning the journal.
		return nil, err
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil, ErrClosed
	}
	if err := j.wedgeErr(); err != nil {
		j.mu.Unlock()
		return nil, err
	}
	seq := j.seq + 1
	if err := j.store.Write(seq, payload); err != nil {
		if !errors.Is(err, ErrRecordTooLarge) { // that one wrote nothing
			j.wedge(err)
		}
		j.mu.Unlock()
		return nil, err
	}
	j.seq = seq
	j.appended.Store(seq)
	j.mu.Unlock()
	mAppends.Inc()
	mAppendSeconds.Observe(time.Since(start).Seconds())
	if j.cfg.Mode != SyncAlways {
		return nil, nil
	}
	return func() error { return j.waitDurable(seq) }, nil
}

// wedge poisons the journal after an I/O failure: every later Append,
// Sync or wait fails with the original error. A journal that may have
// lost a write cannot keep acknowledging batches.
func (j *Journal) wedge(err error) {
	j.cmu.Lock()
	j.wedgeLocked(err)
	j.cmu.Unlock()
}

// wedgeLocked records the first poisoning error and wakes every
// durability waiter so it is observed.
//
// vet:holds j.cmu
func (j *Journal) wedgeLocked(err error) {
	if j.wedged == nil {
		j.wedged = err
	}
	j.cond.Broadcast()
}

func (j *Journal) wedgeErr() error {
	j.cmu.Lock()
	defer j.cmu.Unlock()
	return j.wedged
}

func (j *Journal) setDurable(seq uint64) {
	j.cmu.Lock()
	if seq > j.durable {
		j.durable = seq
	}
	j.cond.Broadcast()
	j.cmu.Unlock()
}

// waitDurable blocks until sequence seq is durable, the journal
// wedges, or this caller becomes the commit leader and performs the
// fsync itself. Leadership is first-come: one waiter flushes and
// fsyncs on behalf of every batch appended so far, the rest sleep on
// the condition variable; batches appended while the leader's fsync
// is in flight are covered by the next leader. This is the group
// commit pipeline.
func (j *Journal) waitDurable(seq uint64) error {
	j.cmu.Lock()
	for {
		if j.wedged != nil {
			err := j.wedged
			j.cmu.Unlock()
			return err
		}
		if j.durable >= seq {
			j.cmu.Unlock()
			return nil
		}
		if j.syncing {
			j.cond.Wait()
			continue
		}
		j.syncing = true
		prev := j.durable
		j.cmu.Unlock()

		// Give concurrent writers a window to append into this wave
		// before the flush picks its target: spin-yield until the
		// window closes or appends have gone quiet (every writer that
		// was going to join has).
		deadline := time.Now().Add(groupWindow)
		last := j.appended.Load()
		lastChange := time.Now()
		for {
			now := time.Now()
			if !now.Before(deadline) {
				break
			}
			if cur := j.appended.Load(); cur != last {
				last, lastChange = cur, now
			} else if now.Sub(lastChange) > groupQuiet {
				break
			}
			runtime.Gosched()
		}

		// Flush buffered records under the append lock, then fsync
		// with no locks held: appenders keep writing into the buffer
		// while the disk works. The store pointer is captured under mu
		// — Checkpoint swaps it, but never while a leader is in flight
		// (it quiesces the pipeline first), so the captured store stays
		// open for the whole fsync.
		j.mu.Lock()
		target := j.seq
		store := j.store
		err := store.Flush()
		j.mu.Unlock()
		if err == nil {
			err = store.SyncFile()
		}

		j.cmu.Lock()
		j.syncing = false
		if err != nil {
			j.wedgeLocked(err)
			j.cmu.Unlock()
			return err
		}
		if target > j.durable {
			j.durable = target
		}
		mGroupCommits.Inc()
		mGroupSize.Observe(float64(target - prev))
		j.cond.Broadcast()
		// Loop: usually durable >= seq now; if a newer leader is
		// needed for batches appended mid-fsync, one of the waiters
		// this broadcast wakes becomes it.
	}
}

// Sync forces everything appended so far to stable storage,
// regardless of mode.
func (j *Journal) Sync() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	seq := j.seq
	j.mu.Unlock()
	return j.waitDurable(seq)
}

// flushLoop is the SyncInterval background flusher.
func (j *Journal) flushLoop() {
	defer close(j.done)
	t := time.NewTicker(j.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			j.mu.Lock()
			closed, seq := j.closed, j.seq
			j.mu.Unlock()
			if closed {
				return
			}
			j.cmu.Lock()
			behind := j.durable < seq && j.wedged == nil
			j.cmu.Unlock()
			if behind {
				_ = j.waitDurable(seq) // an error wedges the journal; Append reports it
			}
		}
	}
}

// Checkpoint serializes d — which must reflect exactly the batches
// journaled so far; the dynxml layer guarantees that by calling this
// under the document's writer lock — into a new segment generation
// and retires the old one. On return the journal appends to the new
// log and the old pair has been removed; a crash anywhere inside
// leaves either the old pair or the new pair recoverable. A failed
// Checkpoint, such as one whose document exceeds the record limit
// (ErrRecordTooLarge), leaves the old pair in use.
func (j *Journal) Checkpoint(d *dyndoc.Document) error {
	// Quiesce the commit pipeline before touching stores: claim
	// leadership (or wait out the in-flight leader) so no group-commit
	// fsync is running against the store this checkpoint retires.
	// Leaders call SyncFile with no locks held, so swapping and
	// closing the old store under mu alone would race that fsync and
	// could wedge the journal with a spurious close-induced error for
	// batches that are in fact durable.
	j.cmu.Lock()
	for j.syncing && j.wedged == nil {
		j.cond.Wait()
	}
	if err := j.wedged; err != nil {
		j.cmu.Unlock()
		return err
	}
	j.syncing = true
	j.cmu.Unlock()
	defer func() {
		j.cmu.Lock()
		j.syncing = false
		j.cond.Broadcast()
		j.cmu.Unlock()
	}()

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.wedgeErr(); err != nil {
		return err
	}
	// Push buffered records to the OS first so the fallback journal
	// (old pair) is as complete as the mode ever promised.
	if err := j.store.Flush(); err != nil {
		j.wedge(err)
		return err
	}
	reclaim := fileSize(ckptPath(j.cfg.Dir, j.gen)) + fileSize(logPath(j.cfg.Dir, j.gen))
	next := j.gen + 1
	store, err := startGen(j.cfg, next, checkpointOf(j.cfg.Scheme, d, j.seq), nil)
	if err != nil {
		// A ckpt-(next) left behind could read back complete and win the
		// next Replay, which would drop log-(gen) and every batch
		// acknowledged into it since: stop acknowledging.
		if errors.Is(err, errLeftover) {
			j.wedge(err)
		}
		return err
	}
	old := j.store
	j.store = store
	oldGen := j.gen
	j.gen = next
	j.ckptBase = j.seq
	j.checkpoints++
	j.setDurable(j.seq) // the checkpoint made everything appended durable
	_ = old.Close()
	// A generation that stays behind is stale: the next open, with
	// Config.Recover, removes it.
	_ = retireGens(j.cfg.Dir, oldGen)
	mCheckpoints.Inc()
	mReclaimedBytes.Add(reclaim)
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Close syncs outstanding batches and closes the log. It is
// idempotent; a wedged journal closes without attempting the sync.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	seq := j.seq
	// Capture the store while mu still pins it: j.store must not be
	// read after the unlock, even though closed=true means no
	// Checkpoint can swap it anymore.
	store := j.store
	j.closed = true
	j.mu.Unlock()
	if j.stop != nil {
		close(j.stop)
		<-j.done
	}
	var syncErr error
	if j.wedgeErr() == nil {
		syncErr = j.waitDurable(seq)
	}
	closeErr := store.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Stats is a point-in-time snapshot of journal counters; the tags are
// its form in the /v1 stats reply.
type Stats struct {
	// Appended is the number of batches written to the log this
	// session (excluding replayed history).
	Appended uint64 `json:"appended"`
	// Durable is the highest batch sequence known to be on stable
	// storage.
	Durable uint64 `json:"durable"`
	// Seq is the highest batch sequence appended.
	Seq uint64 `json:"seq"`
	// Generation is the current segment generation.
	Generation uint64 `json:"generation"`
	// Checkpoints counts checkpoints taken this session.
	Checkpoints uint64 `json:"checkpoints"`
	// Mode is the configured durability mode (by name in the reply).
	Mode Mode `json:"-"`
}

// Stats returns current journal counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	seq, gen, ckpts, base := j.seq, j.gen, j.checkpoints, j.baseSeq
	j.mu.Unlock()
	j.cmu.Lock()
	durable := j.durable
	j.cmu.Unlock()
	return Stats{
		Appended:    seq - base,
		Durable:     durable,
		Seq:         seq,
		Generation:  gen,
		Checkpoints: ckpts,
		Mode:        j.cfg.Mode,
	}
}
