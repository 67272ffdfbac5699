package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/dyndoc"
	"repro/internal/registry"
)

func mustEncodeChunk(t testing.TB, c *ShipChunk) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeShipChunk(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testBatchPayload(t *testing.T, name string) []byte {
	t.Helper()
	d := mustDoc(t, "<root/>")
	root := rootID(t, d)
	edits := insertEdit(root, name)
	results, err := d.ApplyBatch(edits)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeBatch(edits, results)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestShipChunkRoundTrip(t *testing.T) {
	d := mustDoc(t, "<root><a/></root>")
	meta := checkpointMeta{
		Scheme:   testScheme,
		XML:      d.XML(),
		PreOrder: d.Labeling().Tree().PreOrder(),
		BaseSeq:  3,
	}
	in := &ShipChunk{
		Snapshot: encodeMeta(meta),
		BaseSeq:  3,
		Batches: []ShipBatch{
			{Seq: 4, Payload: testBatchPayload(t, "x")},
			{Seq: 5, Payload: testBatchPayload(t, "y")},
		},
		Horizon: 7,
	}
	out, err := DecodeShipStream(bytes.NewReader(mustEncodeChunk(t, in)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.BaseSeq != 3 || out.Horizon != 7 || len(out.Batches) != 2 {
		t.Fatalf("decoded chunk = %+v", out)
	}
	if out.Batches[0].Seq != 4 || !bytes.Equal(out.Batches[0].Payload, in.Batches[0].Payload) {
		t.Fatal("batch 0 did not round-trip")
	}
	if !bytes.Equal(out.Snapshot, in.Snapshot) {
		t.Fatal("snapshot did not round-trip")
	}

	// Without a snapshot, continuity is relative to from.
	in2 := &ShipChunk{Batches: in.Batches, Horizon: 7}
	out2, err := DecodeShipStream(bytes.NewReader(mustEncodeChunk(t, in2)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Batches) != 2 || out2.Snapshot != nil {
		t.Fatalf("decoded chunk = %+v", out2)
	}
}

// TestDecodeShipStreamRejects feeds the decoder malformed and hostile
// streams; every one must fail with ErrShip, never hang or panic.
func TestDecodeShipStreamRejects(t *testing.T) {
	payload := testBatchPayload(t, "n")
	goodBatches := []ShipBatch{{Seq: 1, Payload: payload}}
	good := mustEncodeChunk(t, &ShipChunk{Batches: goodBatches, Horizon: 1})
	d := mustDoc(t, "<root/>")
	meta := checkpointMeta{Scheme: testScheme, XML: d.XML(), PreOrder: d.Labeling().Tree().PreOrder(), BaseSeq: 5}

	// stream is a segment header followed by recs.
	stream := func(recs ...record) []byte {
		b := segHeader()
		for _, r := range recs {
			b = appendRecord(b, r.ID, r.Payload)
		}
		return b
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	flip := func(at int, mask byte) []byte {
		b := append([]byte(nil), good...)
		b[at] ^= mask
		return b
	}

	cases := []struct {
		name string
		from uint64
		data []byte
	}{
		{"empty", 0, nil},
		{"truncated mid-frame", 0, good[:len(good)-3]},
		{"no end frame", 0, stream(record{1, payload})}, // no horizon record ends it
		{"trailing junk", 0, append(append([]byte{}, good...), 0xff)},
		{"unknown kind", 0, stream(record{endRecordID, []byte{}}, record{horizonRecordID, uv(1)})},
		{"oversized small frame", 0, stream(record{horizonRecordID, make([]byte, 64)})},
		{"end without horizon", 0, stream(record{endRecordID, []byte{}})},
		{"end with payload", 0, stream(record{horizonRecordID, append(uv(1), 1)})},
		{"huge declared length", 0, append(segHeader(), append(uv(1), uv(1<<40)...)...)},
		{"gap", 0, mustEncodeChunk(t, &ShipChunk{Batches: []ShipBatch{{Seq: 2, Payload: payload}}, Horizon: 2})},
		{"regression", 5, good},
		{"snapshot regresses", 9, mustEncodeChunk(t, &ShipChunk{Snapshot: encodeMeta(meta), BaseSeq: 5, Horizon: 9})},
		{"horizon below batch", 0, stream(record{1, payload}, record{horizonRecordID, uv(0)})},
		{"batch after horizon", 0, stream(record{horizonRecordID, uv(5)}, record{1, payload})},
		{"duplicate horizon", 0, stream(record{horizonRecordID, uv(5)}, record{horizonRecordID, uv(5)})},
		{"snapshot after batch", 1, stream(record{2, payload}, record{metaRecordID, encodeMeta(meta)}, record{horizonRecordID, uv(5)})},
		{"garbage snapshot", 0, stream(record{metaRecordID, []byte("junk")}, record{horizonRecordID, uv(1)})},
		{"scratch without snapshot", FromScratch, good},
		{"bad magic", 0, flip(0, 1)},
		{"unsupported version", 0, flip(segHeaderSize-1, 1)},
		{"checksum mismatch", 0, flip(segHeaderSize+3, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeShipStream(bytes.NewReader(tc.data), tc.from); !errors.Is(err, ErrShip) {
				t.Fatalf("decode = %v, want ErrShip", err)
			}
		})
	}
}

// TestShipRecordCRC: the wire is checked like the disk. One byte
// flipped inside a shipped batch's element name — "speech" arriving as
// "rpeech" — fails the record's checksum, so the batch is refused, not
// applied.
func TestShipRecordCRC(t *testing.T) {
	wire := mustEncodeChunk(t, &ShipChunk{Batches: []ShipBatch{{Seq: 1, Payload: testBatchPayload(t, "speech")}}, Horizon: 1})
	at := bytes.Index(wire, []byte("speech"))
	if at < 0 {
		t.Fatal("element name not found on the wire")
	}
	wire[at] ^= 's' ^ 'r'
	if chunk, err := DecodeShipStream(bytes.NewReader(wire), 0); !errors.Is(err, ErrShip) {
		t.Fatalf("decode of a damaged batch = %+v, %v; want ErrShip", chunk, err)
	}
}

// TestShipGoldenBytes pins the ship format: a chunk is a segment
// stream, and each batch record on the wire is byte for byte the
// record in the leader's log.
func TestShipGoldenBytes(t *testing.T) {
	const golden = "4c424c53544f5202" + // "LBLSTOR", version 2
		"ffffffffffffffffff010d" + "0153073c723e3c2f723e010100" + "7c9ee467" + // snapshot: meta record, scheme "S", XML "<r></r>", base 1, ids [0]
		"0201ab" + "9d776b07" + // batch 2, payload ab
		"fdffffffffffffffff0101" + "03" + "550b7b63" // horizon record, 3
	meta := encodeMeta(checkpointMeta{Scheme: "S", XML: "<r></r>", PreOrder: []int{0}, BaseSeq: 1})
	in := &ShipChunk{Snapshot: meta, BaseSeq: 1, Batches: []ShipBatch{{Seq: 2, Payload: []byte{0xab}}}, Horizon: 3}
	wire := mustEncodeChunk(t, in)
	if got := hex.EncodeToString(wire); got != golden {
		t.Fatalf("ship bytes changed:\n got %s\nwant %s", got, golden)
	}
	out, err := DecodeShipStream(bytes.NewReader(wire), 0)
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("decode of the golden bytes = %+v, %v; want %+v", out, err, in)
	}

	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	leaderWrite(t, j, d, "a")
	leaderWrite(t, j, d, "b")
	chunk, err := j.Ship(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(logPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	wire = mustEncodeChunk(t, chunk)
	if !bytes.HasPrefix(wire, log) || !bytes.Equal(wire[len(log):], appendRecord(nil, horizonRecordID, []byte{2})) {
		t.Fatalf("wire is not log-0 plus a horizon record:\nwire %x\nlog  %x", wire, log)
	}
}

func TestJournalShip(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	root := rootID(t, d)
	for i := 0; i < 4; i++ {
		if err := applyAndAppend(t, j, d, insertEdit(root, fmt.Sprintf("n%d", i)))(); err != nil {
			t.Fatal(err)
		}
	}

	// Continuity fetch from 0: four batches, no snapshot.
	chunk, err := j.Ship(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Snapshot != nil || len(chunk.Batches) != 4 || chunk.Horizon != 4 {
		t.Fatalf("Ship(0) = snapshot=%v batches=%d horizon=%d", chunk.Snapshot != nil, len(chunk.Batches), chunk.Horizon)
	}
	for i, b := range chunk.Batches {
		if b.Seq != uint64(i+1) {
			t.Fatalf("batch %d has seq %d", i, b.Seq)
		}
	}

	// From-scratch fetch must open with the checkpoint snapshot.
	chunk, err = j.Ship(FromScratch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Snapshot == nil || chunk.BaseSeq != 0 || len(chunk.Batches) != 4 {
		t.Fatalf("Ship(FromScratch) = %+v", chunk)
	}

	// maxBatches caps the run.
	chunk, err = j.Ship(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk.Batches) != 2 || chunk.Batches[0].Seq != 2 {
		t.Fatalf("Ship(1, 2) returned %d batches starting %d", len(chunk.Batches), chunk.Batches[0].Seq)
	}

	// After a checkpoint, a position before the new base gets a
	// snapshot; a current position gets plain continuation.
	if err := j.Checkpoint(d); err != nil {
		t.Fatal(err)
	}
	if err := applyAndAppend(t, j, d, insertEdit(root, "after"))(); err != nil {
		t.Fatal(err)
	}
	chunk, err = j.Ship(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Snapshot == nil || chunk.BaseSeq != 4 || len(chunk.Batches) != 1 || chunk.Batches[0].Seq != 5 {
		t.Fatalf("Ship(2) after checkpoint = snapshot=%v base=%d batches=%d", chunk.Snapshot != nil, chunk.BaseSeq, len(chunk.Batches))
	}
	chunk, err = j.Ship(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Snapshot != nil || len(chunk.Batches) != 1 {
		t.Fatalf("Ship(4) after checkpoint = snapshot=%v batches=%d", chunk.Snapshot != nil, len(chunk.Batches))
	}

	// The whole leader→wire→follower path: encode and re-decode.
	var buf bytes.Buffer
	if err := EncodeShipChunk(&buf, chunk); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeShipStream(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Batches) != 1 || back.Batches[0].Seq != 5 {
		t.Fatalf("round-tripped chunk = %+v", back)
	}
}

// TestShipServesOnlyDurable pins the divergence guard: batches beyond
// the durable horizon are never shipped.
func TestShipServesOnlyDurable(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	// SyncNone: appends are buffered, durable horizon stays 0 until an
	// explicit Sync.
	j, err := Create(Config{Dir: dir, Scheme: testScheme, Mode: SyncNone}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	root := rootID(t, d)
	for i := 0; i < 3; i++ {
		if err := applyAndAppend(t, j, d, insertEdit(root, fmt.Sprintf("n%d", i)))(); err != nil {
			t.Fatal(err)
		}
	}
	chunk, err := j.Ship(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk.Batches) != 0 || chunk.Horizon != 0 {
		t.Fatalf("undurable batches shipped: %d (horizon %d)", len(chunk.Batches), chunk.Horizon)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	chunk, err = j.Ship(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk.Batches) != 3 || chunk.Horizon != 3 {
		t.Fatalf("after Sync: %d batches, horizon %d", len(chunk.Batches), chunk.Horizon)
	}
}

func TestWaitHorizon(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if h, ok := j.WaitHorizon(1, 10*time.Millisecond); ok || h != 0 {
		t.Fatalf("WaitHorizon on empty journal = (%d, %v)", h, ok)
	}
	root := rootID(t, d)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if h, ok := j.WaitHorizon(1, 5*time.Second); !ok || h < 1 {
			t.Errorf("WaitHorizon = (%d, %v), want reached", h, ok)
		}
	}()
	if err := applyAndAppend(t, j, d, insertEdit(root, "n"))(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// FuzzStreamDecode drives DecodeShipStream with arbitrary bytes: it
// must return a chunk or an error, never hang, panic or over-allocate.
func FuzzStreamDecode(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	entry, err := registry.Lookup(testScheme)
	if err != nil {
		f.Fatal(err)
	}
	d, err := dyndoc.Parse("<root/>", entry.Build)
	if err != nil {
		f.Fatal(err)
	}
	meta := checkpointMeta{Scheme: testScheme, XML: d.XML(), PreOrder: d.Labeling().Tree().PreOrder(), BaseSeq: 0}
	var buf bytes.Buffer
	_ = EncodeShipChunk(&buf, &ShipChunk{Snapshot: encodeMeta(meta), Horizon: 2})
	f.Add(buf.Bytes(), uint64(FromScratch))
	buf.Reset()
	_ = EncodeShipChunk(&buf, &ShipChunk{Batches: []ShipBatch{{Seq: 1, Payload: []byte("xx")}}, Horizon: 1})
	f.Add(buf.Bytes(), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, from uint64) {
		chunk, err := DecodeShipStream(bytes.NewReader(data), from)
		if err == nil && chunk == nil {
			t.Fatal("nil chunk with nil error")
		}
	})
}
