package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
)

// Journal shipping: the leader reads acknowledged-durable batches back
// out of its own segments and sends them to a follower over HTTP
// (internal/web's /v1/docs/{name}/journal) or any other byte transport.
// A chunk is a segment stream (segment.go): at most one snapshot record
// (metaRecordID), the batch records exactly as the log holds them, and
// a horizon record that ends it. DecodeShipStream reads it with the
// segment reader — the disk's checksums and length cap — and checks
// sequence continuity, so a hostile or truncated leader can neither
// wedge nor OOM a follower. Leader and followers run the same version.
var (
	mShipRequests  = metrics.Default.Counter("journal_ship_requests_total")
	mShipBatches   = metrics.Default.Counter("journal_ship_batches_total")
	mShipBytes     = metrics.Default.Counter("journal_ship_bytes_total")
	mShipSnapshots = metrics.Default.Counter("journal_ship_snapshots_total")
)

// maxShipBatches caps the batches of one chunk, on both sides.
const maxShipBatches = 1 << 16

// ErrShip reports a malformed, truncated or regressing ship stream.
var ErrShip = errors.New("journal: bad ship stream")

// FromScratch is the position a follower with no local state fetches
// from: the leader always opens the chunk with its current checkpoint
// snapshot, even when the checkpoint base is 0 and plain continuity
// (from < base) would never trigger. It doubles as a record id, so it
// reuses the reserved top of the id space.
const FromScratch = ^uint64(0)

// ShipBatch is one journaled batch in transit: its sequence number and
// the EncodeBatch payload exactly as the leader logged it.
type ShipBatch struct {
	Seq     uint64
	Payload []byte
}

// ShipChunk is one reply of the shipping protocol: an optional
// checkpoint snapshot the follower must reset onto (sent when the
// follower's position predates the leader's current checkpoint, i.e.
// the batches it needs were compacted away), a run of batches
// continuing from the follower's position, and the leader's durable
// horizon at serve time.
type ShipChunk struct {
	Snapshot []byte // encoded checkpoint meta; nil when continuity holds
	BaseSeq  uint64 // sequence the snapshot covers; batches resume at BaseSeq+1
	Batches  []ShipBatch
	Horizon  uint64 // leader durable horizon
}

// EncodeShipChunk writes c onto w as a segment stream: the header, the
// snapshot (if any), the batches and the horizon record a decoder
// requires to accept the stream.
func EncodeShipChunk(w io.Writer, c *ShipChunk) error {
	buf := segHeader()
	if c.Snapshot != nil {
		buf = appendRecord(buf, metaRecordID, c.Snapshot)
	}
	for _, b := range c.Batches {
		buf = appendRecord(buf, b.Seq, b.Payload)
	}
	buf = appendRecord(buf, horizonRecordID, binary.AppendUvarint(nil, c.Horizon))
	_, err := w.Write(buf)
	return err
}

// DecodeShipStream parses and validates one chunk from r. from is the
// follower's position (the last sequence it holds); the stream must
// either continue at exactly from+1 or open with a snapshot whose base
// is at least from — anything else (a gap, a sequence regression, a
// replayed or reordered batch, a damaged record, data after the
// horizon record) is rejected with ErrShip, because applying it would
// silently fork the follower from the leader's history.
func DecodeShipStream(r io.Reader, from uint64) (*ShipChunk, error) {
	sr := &segReader{r: bufio.NewReader(r)}
	if _, err := sr.header(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrShip, err)
	}
	chunk := &ShipChunk{}
	scratch := from == FromScratch
	next := from + 1 // 0 when scratch; replaced by the mandatory snapshot
	for {
		rec, err := sr.record()
		if err == io.EOF {
			return nil, fmt.Errorf("%w: no horizon record", ErrShip)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrShip, err)
		}
		switch rec.ID {
		case metaRecordID:
			if chunk.Snapshot != nil || len(chunk.Batches) > 0 {
				return nil, fmt.Errorf("%w: snapshot out of order", ErrShip)
			}
			meta, err := decodeMeta(rec.Payload)
			if err != nil {
				return nil, fmt.Errorf("%w: snapshot: %v", ErrShip, err)
			}
			if !scratch && meta.BaseSeq < from {
				return nil, fmt.Errorf("%w: snapshot base %d regresses below position %d", ErrShip, meta.BaseSeq, from)
			}
			chunk.Snapshot = rec.Payload
			chunk.BaseSeq = meta.BaseSeq
			next = meta.BaseSeq + 1
		case horizonRecordID:
			h, n := binary.Uvarint(rec.Payload)
			if n <= 0 || n != len(rec.Payload) {
				return nil, fmt.Errorf("%w: bad horizon record", ErrShip)
			}
			if scratch && chunk.Snapshot == nil {
				return nil, fmt.Errorf("%w: from-scratch fetch returned no snapshot", ErrShip)
			}
			if len(chunk.Batches) > 0 && h < next-1 {
				return nil, fmt.Errorf("%w: horizon %d below shipped batch %d", ErrShip, h, next-1)
			}
			if _, err := sr.r.ReadByte(); err != io.EOF {
				return nil, fmt.Errorf("%w: data after the horizon record", ErrShip)
			}
			chunk.Horizon = h
			return chunk, nil
		default:
			if scratch && chunk.Snapshot == nil {
				return nil, fmt.Errorf("%w: batch without snapshot on a from-scratch fetch", ErrShip)
			}
			if len(chunk.Batches) >= maxShipBatches {
				return nil, fmt.Errorf("%w: more than %d batches in one chunk", ErrShip, maxShipBatches)
			}
			if rec.ID != next {
				return nil, fmt.Errorf("%w: batch sequence %d, want %d", ErrShip, rec.ID, next)
			}
			chunk.Batches = append(chunk.Batches, ShipBatch{Seq: rec.ID, Payload: rec.Payload})
			next = rec.ID + 1
		}
	}
}

// Ship reads back everything a follower positioned at from still
// needs, up to maxBatches batches, serving only sequences at or below
// the durable horizon — a batch that could still be lost to a leader
// crash must never reach a follower, or the two histories fork. When
// from predates the current checkpoint the needed batches have been
// compacted away, so the chunk opens with the checkpoint snapshot and
// resumes from its base.
func (j *Journal) Ship(from uint64, maxBatches int) (*ShipChunk, error) {
	if maxBatches <= 0 || maxBatches > maxShipBatches {
		maxBatches = maxShipBatches
	}
	mShipRequests.Inc()
	// A checkpoint can swap generations and delete the files captured
	// below at any point after mu is released; on any read failure,
	// recapture and retry rather than failing a well-formed request.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		chunk, err := j.shipOnce(from, maxBatches)
		if err == nil {
			mShipBatches.Add(int64(len(chunk.Batches)))
			for _, b := range chunk.Batches {
				mShipBytes.Add(int64(len(b.Payload)))
			}
			if chunk.Snapshot != nil {
				mShipSnapshots.Inc()
				mShipBytes.Add(int64(len(chunk.Snapshot)))
			}
			return chunk, nil
		}
		lastErr = err
		if errors.Is(err, ErrClosed) {
			break
		}
	}
	return nil, lastErr
}

// shipOnce is one capture-and-read attempt of Ship.
func (j *Journal) shipOnce(from uint64, maxBatches int) (*ShipChunk, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil, ErrClosed
	}
	// Push buffered records to the OS so the file read below observes
	// every appended batch at or below the durable horizon. (Durable
	// batches are necessarily flushed already; this only tightens the
	// window for interval/none modes.)
	if err := j.store.Flush(); err != nil {
		j.wedge(err)
		j.mu.Unlock()
		return nil, err
	}
	gen, base := j.gen, j.ckptBase
	j.mu.Unlock()
	horizon := j.DurableHorizon()

	chunk := &ShipChunk{Horizon: horizon}
	pos := from
	if from == FromScratch || from < base {
		meta, ok := readCheckpoint(ckptPath(j.cfg.Dir, gen))
		if !ok {
			return nil, fmt.Errorf("journal: ship: checkpoint %d unreadable", gen)
		}
		if meta.BaseSeq != base {
			// The generation moved under us; retry with fresh state.
			return nil, fmt.Errorf("journal: ship: generation moved during read")
		}
		chunk.Snapshot = encodeMeta(meta)
		chunk.BaseSeq = base
		pos = base
	}
	if pos >= horizon {
		return chunk, nil
	}
	// The writer is live: a record that is torn now is complete on the
	// next scan, so only a head that cannot be a segment is an error.
	s, err := scanFile(logPath(j.cfg.Dir, gen))
	if err == nil && s.why == notSegment {
		err = s.err
	}
	if err != nil {
		return nil, fmt.Errorf("journal: ship: %w", err)
	}
	for _, rec := range s.recs {
		if rec.ID <= pos {
			continue
		}
		if rec.ID != pos+1 {
			return nil, fmt.Errorf("journal: ship: log gap at %d (want %d)", rec.ID, pos+1)
		}
		if rec.ID > horizon || len(chunk.Batches) >= maxBatches {
			break
		}
		chunk.Batches = append(chunk.Batches, ShipBatch{Seq: rec.ID, Payload: rec.Payload})
		pos = rec.ID
	}
	return chunk, nil
}

// DurableHorizon returns the highest batch sequence known to be on
// stable storage — the only sequences a follower is ever served.
func (j *Journal) DurableHorizon() uint64 {
	j.cmu.Lock()
	defer j.cmu.Unlock()
	return j.durable
}

// WaitHorizon blocks until the durable horizon reaches min, the
// timeout expires, or the journal wedges or closes, and returns the
// horizon it observed plus whether min was reached. Unlike the
// group-commit wait this is a passive observer — it never elects
// itself fsync leader — so it is safe for read-your-writes pollers
// (the /v1 horizon endpoint) that must not force I/O on the leader.
// Because it is purely an observer it carries no ack-ordering
// contract.
func (j *Journal) WaitHorizon(min uint64, timeout time.Duration) (uint64, bool) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		j.cmu.Lock()
		j.cond.Broadcast()
		j.cmu.Unlock()
	})
	defer timer.Stop()
	j.cmu.Lock()
	defer j.cmu.Unlock()
	for j.durable < min && j.wedged == nil && time.Now().Before(deadline) {
		j.cond.Wait()
	}
	return j.durable, j.durable >= min
}
