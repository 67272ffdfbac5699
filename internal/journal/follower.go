package journal

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dyndoc"
	"repro/internal/metrics"
)

// Follower replays a leader's journal into a read-only live document.
// Dir is the follower's OWN local mirror. Each poll pulls a ShipChunk
// from the leader through Config.Fetch (typically internal/web's
// /v1/docs/{name}/journal endpoint), applies the batches, then
// persists them to the mirror before advancing the advertised horizon
// — so a follower killed and restarted serves everything at or below
// the horizon it last advertised, from local state alone. Ship is the
// only feed: it serves nothing above the leader's durable horizon, so
// no replica ever exposes a batch a leader crash could still lose.
//
// Queries run against Doc(), a dyndoc.Concurrent with no commit hook:
// lock-free snapshot reads, watchable, but every edit entry point of
// the stack above rejects writes (the replica's only writer is the
// replay path). Horizon() is the read-your-writes anchor: a client
// that saw sequence S acknowledged by the leader waits for
// WaitHorizon(S) here before reading.
var (
	mFollowerLag     = metrics.Default.Gauge("follower_lag_seqs")
	mFollowerApplied = metrics.Default.Counter("follower_applied_total")
	mFollowerResets  = metrics.Default.Counter("follower_resets_total")
	mFollowerPolls   = metrics.Default.Counter("follower_polls_total")
)

// FetchFunc pulls one ship chunk from the leader: everything after
// position from, at most max batches. FromScratch asks for the
// leader's current checkpoint snapshot plus the tail.
type FetchFunc func(from uint64, max int) (*ShipChunk, error)

// FollowerConfig configures OpenFollower.
type FollowerConfig struct {
	// Dir is the follower's local mirror directory.
	Dir string
	// Fetch pulls ship chunks from the leader. Required.
	Fetch FetchFunc
	// Interval is the background poll cadence (default 50ms).
	Interval time.Duration
	// MaxBatch caps batches pulled per fetch (default 512).
	MaxBatch int
	// Manual suppresses the background poll loop; the owner drives
	// Poll itself (tests, single-shot catch-up).
	Manual bool
	// WrapFile wraps mirror segment files as they are opened — the
	// fault-injection seam.
	WrapFile func(f File) File
}

// ErrFollowerClosed reports use of a closed follower.
var ErrFollowerClosed = errors.New("journal: follower closed")

// errDiverged marks sticky failures: the follower's history no longer
// matches what the transport delivers, so continuing could silently
// fork the replica. Every later Poll fails with the recorded cause.
var errDiverged = errors.New("journal: follower diverged")

// FollowerStats is a point-in-time observability snapshot; the tags
// are its form in the /v1 stats reply.
type FollowerStats struct {
	Seq           uint64 `json:"seq"`            // last applied (visible) sequence
	Horizon       uint64 `json:"horizon"`        // locally durable sequence
	LeaderHorizon uint64 `json:"leader_horizon"` // leader's durable horizon at last fetch
	Generation    uint64 `json:"generation"`     // current segment generation
	Scheme        string `json:"-"`
	Resets        uint64 `json:"resets"` // checkpoint adoptions (full document swaps)
	Polls         uint64 `json:"-"`
	Batches       uint64 `json:"-"`
	Edits         uint64 `json:"-"`
	LastErr       string `json:"last_err,omitempty"`
}

// Follower is one replica. Construct with OpenFollower.
type Follower struct {
	cfg FollowerConfig
	doc *dyndoc.Concurrent

	// pollMu serializes poll rounds (the background loop vs. an
	// explicit Poll from a Sync call) and guards the replay-thread
	// state below it: the id map and the open mirror log are touched
	// only with pollMu held.
	pollMu sync.Mutex
	idmap  map[int]int // vet:guardedby pollMu // leader id → local id
	store  *segment    // vet:guardedby pollMu // mirror log

	mu            sync.Mutex
	cond          *sync.Cond // vet:guardedby mu
	seq           uint64     // vet:guardedby mu
	horizon       uint64     // vet:guardedby mu
	leaderHorizon uint64     // vet:guardedby mu
	gen           uint64     // vet:guardedby mu
	schemeName    string     // vet:guardedby mu
	err           error      // vet:guardedby mu // sticky divergence
	lastErr       error      // vet:guardedby mu // most recent poll error, transient included
	closed        bool       // vet:guardedby mu
	resets        uint64     // vet:guardedby mu
	polls         uint64     // vet:guardedby mu
	batches       uint64     // vet:guardedby mu
	edits         uint64     // vet:guardedby mu

	stop chan struct{}
	done chan struct{}
}

// OpenFollower bootstraps a replica from the local mirror when one
// exists and otherwise performs one synchronous from-scratch fetch, so
// a successful return always carries a queryable document.
func OpenFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Fetch == nil {
		return nil, errors.New("journal: follower: FollowerConfig.Fetch is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 512
	}
	f := &Follower{cfg: cfg}
	f.cond = sync.NewCond(&f.mu)
	if err := f.bootstrap(); err != nil {
		return nil, err
	}
	if !cfg.Manual {
		f.stop = make(chan struct{})
		f.done = make(chan struct{})
		go f.loop()
	}
	return f, nil
}

// Doc returns the replica document. It has no commit hook; callers
// must route all writes to the leader.
func (f *Follower) Doc() *dyndoc.Concurrent { return f.doc }

// Scheme returns the labeling scheme the replica is labeled under.
func (f *Follower) Scheme() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.schemeName
}

// Horizon returns the locally durable sequence: after a kill and
// restart the follower still serves every batch at or below it.
func (f *Follower) Horizon() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.horizon
}

// WaitHorizon blocks until the local horizon reaches min, the timeout
// expires, or the follower closes or diverges. It reports the horizon
// it observed and whether min was reached — the read-your-writes wait
// for clients holding a leader-acknowledged sequence.
func (f *Follower) WaitHorizon(min uint64, timeout time.Duration) (uint64, bool) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer timer.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.horizon < min && f.err == nil && !f.closed && time.Now().Before(deadline) {
		f.cond.Wait()
	}
	return f.horizon, f.horizon >= min
}

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

// Stats returns a point-in-time snapshot.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := FollowerStats{
		Seq:           f.seq,
		Horizon:       f.horizon,
		LeaderHorizon: f.leaderHorizon,
		Generation:    f.gen,
		Scheme:        f.schemeName,
		Resets:        f.resets,
		Polls:         f.polls,
		Batches:       f.batches,
		Edits:         f.edits,
	}
	if f.err != nil {
		s.LastErr = f.err.Error()
	} else if f.lastErr != nil {
		s.LastErr = f.lastErr.Error()
	}
	return s
}

// Close stops the poll loop and releases the mirror log. The document
// stays readable at its last published state.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
	if f.stop != nil {
		close(f.stop)
		<-f.done
	}
	// Taking pollMu waits out any in-flight Poll before the log it
	// writes is closed; the closed flag stops the next one.
	f.pollMu.Lock()
	defer f.pollMu.Unlock()
	if f.store != nil {
		_ = f.store.Close()
		f.store = nil
	}
	return nil
}

func (f *Follower) loop() {
	defer close(f.done)
	t := time.NewTicker(f.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			_ = f.Poll()
		}
	}
}

// Poll runs one catch-up round: pull everything new, apply it, persist
// it and advance the horizon. Transport errors are transient —
// recorded, returned, retried next round. History errors (a gap, a
// regression, an apply failure) are sticky: the follower refuses to
// run forward from a fork.
func (f *Follower) Poll() error {
	f.pollMu.Lock()
	defer f.pollMu.Unlock()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrFollowerClosed
	}
	if f.err != nil {
		err := f.err
		f.mu.Unlock()
		return err
	}
	f.polls++
	f.mu.Unlock()
	mFollowerPolls.Inc()
	err := f.pollFetch()
	f.mu.Lock()
	f.lastErr = err
	lag := float64(0)
	if f.leaderHorizon > f.seq {
		lag = float64(f.leaderHorizon - f.seq)
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	mFollowerLag.Set(lag)
	return err
}

// fail records a sticky divergence and returns it.
func (f *Follower) fail(err error) error {
	err = fmt.Errorf("%w: %v", errDiverged, err)
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	return err
}
