package journal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
)

// testRecords is a corpus with the framing edge cases: empty payload,
// one byte, multi-byte varint id, payload longer than the varint
// scratch.
func testRecords() []record {
	return []record{
		{ID: 0, Payload: []byte{}},
		{ID: 1, Payload: []byte{0xAB}},
		{ID: 130, Payload: []byte("hello label")},
		{ID: 1 << 40, Payload: bytes.Repeat([]byte{7}, 300)},
	}
}

// The three things a caller makes of a scan, as the production call
// sites do: readAll is the strict policy (readCheckpoint, a plain
// open), recoverSegment the repair policy (an open with
// Config.Recover), and scanSegment itself the tolerant one (Ship).

// readAll parses a segment file strictly: any stop but a clean end is
// an error, never a silently shortened result.
func readAll(path string) ([]record, error) {
	s, err := scanFile(path)
	if err != nil || s.why != cleanEOF {
		return nil, errors.Join(err, s.err)
	}
	return s.recs, nil
}

// recoverSegment reopens path with repair allowed and closes it again,
// returning what survived and how many bytes were cut.
func recoverSegment(path string) ([]record, int64, error) {
	r, err := reopenStore(Config{Recover: true}, path)
	if err != nil {
		return nil, 0, err
	}
	return r.recs, r.cut, r.store.Close()
}

// writeAll appends recs through s, syncs once and closes.
func writeAll(t testing.TB, s *segment, recs []record) {
	t.Helper()
	for _, r := range recs {
		if err := s.Write(r.ID, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeStore creates a segment at path holding recs, synced once.
func writeStore(t testing.TB, path string, recs []record) {
	t.Helper()
	s, err := openStore(Config{}, path)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, s, recs)
}

// sameRecords compares record slices.
func sameRecords(a, b []record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// isPrefix reports whether got is a record-for-record prefix of want.
func isPrefix(got, want []record) bool {
	return len(got) <= len(want) && sameRecords(got, want[:len(got)])
}

// TestSegmentGoldenBytes pins the on-disk format: a header plus two
// records, byte for byte as the writer produced them before the label
// log was folded into this package.
func TestSegmentGoldenBytes(t *testing.T) {
	const golden = "4c424c53544f5202" + // "LBLSTOR", version 2
		"0101ab" + "eeb745ed" + // id 1, len 1, payload, crc32c
		"82010b" + "68656c6c6f206c6162656c" + "892f278e" // id 130, len 11, "hello label", crc32c
	path := filepath.Join(t.TempDir(), "golden.seg")
	recs := testRecords()[1:3]
	writeStore(t, path, recs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != golden {
		t.Fatalf("segment bytes changed:\n got %s\nwant %s", got, golden)
	}
	want, _ := hex.DecodeString(golden)
	if s := scanSegment(bytes.NewReader(want)); s.why != cleanEOF || s.end != int64(len(want)) || !sameRecords(s.recs, recs) {
		t.Fatalf("scan of the golden bytes: %+v", s)
	}
}

// TestPrefoldJournalReplays opens two journal directories written by
// the commit before the label log was folded into this package — one
// closed cleanly, one with its log cut inside the last batch — and
// expects the ReplayInfo and document that commit reported for them.
func TestPrefoldJournalReplays(t *testing.T) {
	const tornXML = `<library><n5></n5><n4></n4><n3></n3><n2></n2><n1></n1><n0></n0><shelf id="s1"><book>A</book></shelf><shelf></shelf></library>`
	for _, c := range []struct {
		name string
		want ReplayInfo
		xml  string
	}{
		{"clean", ReplayInfo{Scheme: "V-CDBS-Containment", Checkpoint: 1, Batches: 4, Edits: 4},
			strings.Replace(tornXML, "<n4>", "<box><item>x</item><item>y</item></box><n4>", 1)},
		{"torn", ReplayInfo{Scheme: "V-CDBS-Containment", Checkpoint: 1, Batches: 3, Edits: 3, Repaired: true, TruncatedBytes: 45}, tornXML},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, content := range dirFiles(t, filepath.Join("testdata", "prefold", c.name)) {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if c.want.Repaired {
				if _, _, _, err := Replay(Config{Dir: dir}); !errors.Is(err, ErrRecoveryTruncated) {
					t.Fatalf("Replay without Recover = %v, want ErrRecoveryTruncated", err)
				}
			}
			j, d, info, err := Replay(Config{Dir: dir, Recover: c.want.Repaired})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if info != c.want || d.XML() != c.xml {
				t.Fatalf("info %+v, XML %s\nwant %+v, XML %s", info, d.XML(), c.want, c.xml)
			}
		})
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	want := testRecords()
	records, byteCount, syncs := mRecords.Value(), mBytes.Value(), mSyncs.Value()
	writeStore(t, path, want)
	// The counters the benchmark derives journal.fsyncs_per_edit and
	// journal.bytes_per_edit from (the header's own sync is not one).
	if r, b, s := mRecords.Value()-records, mBytes.Value()-byteCount, mSyncs.Value()-syncs; r != 4 || s != 1 || b <= 300 {
		t.Errorf("metrics moved by %d records, %d bytes, %d syncs", r, b, s)
	}
	got, err := readAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(got, want) {
		t.Errorf("readAll = %+v, want %+v", got, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, segHeader()) {
		t.Errorf("file does not start with the v2 header: % x", raw[:min(len(raw), segHeaderSize)])
	}
}

func TestSegmentReopenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	first := testRecords()
	writeStore(t, path, first)

	r, err := reopenStore(Config{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if r.damaged || r.cut != 0 || !sameRecords(r.recs, first) {
		t.Errorf("reopen of a clean segment: damaged %v, cut %d, %d records", r.damaged, r.cut, len(r.recs))
	}
	extra := []record{{ID: 99, Payload: []byte("appended")}, {ID: 100, Payload: []byte{}}}
	writeAll(t, r.store, extra)
	got, err := readAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(first, extra...); !sameRecords(got, want) {
		t.Errorf("after append: %d records, want %d", len(got), len(want))
	}
}

// TestSegmentWritesAtFlushSize: records wait in the segment until
// flushAt bytes are pending, then reach the file whole, in one write; a
// buffer an outsize record grew is let go once the record is written.
func TestSegmentWritesAtFlushSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	s, err := openStore(Config{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	payload := bytes.Repeat([]byte{1}, 100)
	framed := 0
	for id := uint64(0); framed < flushAt; id++ {
		if got := size(); got != int64(segHeaderSize) {
			t.Fatalf("%d pending bytes reached the file early: size %d", framed, got)
		}
		if err := s.Write(id, payload); err != nil {
			t.Fatal(err)
		}
		framed += len(appendRecord(nil, id, payload))
	}
	if got, want := size(), int64(segHeaderSize+framed); got != want || len(s.pending) != 0 {
		t.Fatalf("after %d framed bytes: file %d B, want %d; %d still pending", framed, got, want, len(s.pending))
	}
	if err := s.Write(1, bytes.Repeat([]byte{2}, 3*flushAt)); err != nil {
		t.Fatal(err)
	}
	if s.pending != nil {
		t.Fatalf("an outsize record left a %d B buffer behind", cap(s.pending))
	}
}

// shortFile accepts one byte of every write and reports no error.
type shortFile struct{ n int }

func (f *shortFile) Write(p []byte) (int, error) { f.n++; return min(len(p), 1), nil }
func (f *shortFile) Sync() error                 { return nil }
func (f *shortFile) Close() error                { return nil }

// TestSegmentShortWrite: a write the file takes only part of fails with
// io.ErrShortWrite, and that error sticks: nothing more is written.
func TestSegmentShortWrite(t *testing.T) {
	f := &shortFile{}
	s := appendSegment(f)
	if err := s.Write(1, []byte("record")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Flush = %v, want io.ErrShortWrite", err)
	}
	if err := s.Write(2, []byte("x")); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Write after a short write = %v, want io.ErrShortWrite", err)
	}
	if err := s.Close(); !errors.Is(err, io.ErrShortWrite) || f.n != 1 {
		t.Fatalf("Close = %v after %d writes, want io.ErrShortWrite after 1", err, f.n)
	}
}

func TestSegmentReopenMissing(t *testing.T) {
	if _, err := reopenStore(Config{Recover: true}, filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("reopen of a missing segment succeeded")
	}
}

// TestSegmentReopenTornTail: a segment cut inside its last record is
// refused without Config.Recover and left as it was; with it the torn
// record is cut and appends continue behind the survivors.
func TestSegmentReopenTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	writeStore(t, path, testRecords())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := raw[:len(raw)-150] // half the last record, as a crash mid-write leaves it
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reopenStore(Config{}, path); !errors.Is(err, ErrRecoveryTruncated) {
		t.Fatalf("reopen without Recover = %v, want ErrRecoveryTruncated", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, torn) {
		t.Fatalf("refused reopen modified the file (%d -> %d bytes, %v)", len(torn), len(after), err)
	}
	r, err := reopenStore(Config{Recover: true}, path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.damaged || r.cut == 0 {
		t.Errorf("repairing reopen: damaged %v, cut %d", r.damaged, r.cut)
	}
	post := record{ID: 7, Payload: []byte("post-crash")}
	writeAll(t, r.store, []record{post})
	got, err := readAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(testRecords()[:3], post); !sameRecords(got, want) {
		t.Errorf("after torn-tail reopen: %+v, want %+v", got, want)
	}
}

// TestReadAllTornVarint is the regression for a reader treating
// io.EOF from a partially-read id uvarint as a clean end of file: a
// file cut mid-varint must fail with io.ErrUnexpectedEOF.
func TestReadAllTornVarint(t *testing.T) {
	dir := t.TempDir()

	// Header + one whole record + a torn id varint.
	p := filepath.Join(dir, "torn")
	writeStore(t, p, testRecords()[:1])
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, append(raw, 0x80), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(p); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("torn id accepted: err = %v", err)
	}

	// A bare torn varint with no preceding record.
	bare := filepath.Join(dir, "bare")
	if err := os.WriteFile(bare, append(segHeader(), 0xFF), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(bare); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("bare torn varint accepted: err = %v", err)
	}
}

// TestHeaderBitFlip: a populated segment with any single bit of its
// 8-byte header flipped is not a torn segment, it is a damaged one.
// No reader accepts it and no open — with Recover or without — shrinks
// or rewrites it: the records behind the header are CRC-intact and one
// restored byte away from readable. (Reading such a file as a
// checksum-free legacy format once let recovery cut it to a fraction.)
func TestHeaderBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	writeStore(t, path, testRecords())
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < segHeaderSize; i++ {
		for bit := 0; bit < 8; bit++ {
			damaged := append([]byte(nil), clean...)
			damaged[i] ^= 1 << bit
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			check := func(op string, err error) {
				t.Helper()
				if i < len(segMagic) {
					if !errors.Is(err, ErrCorrupt) {
						t.Errorf("byte %d bit %d: %s = %v, want ErrCorrupt", i, bit, op, err)
					}
				} else if err == nil || !strings.Contains(err.Error(), "unsupported format version") {
					t.Errorf("byte %d bit %d: %s = %v, want the unsupported-version error", i, bit, op, err)
				}
				if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, damaged) {
					t.Fatalf("byte %d bit %d: %s modified the file (%d -> %d bytes, %v)", i, bit, op, len(damaged), len(after), rerr)
				}
			}
			_, err := readAll(path)
			check("strict read", err)
			_, _, err = recoverSegment(path)
			check("reopen with Recover", err)
			if s := scanSegment(bytes.NewReader(damaged)); s.why != notSegment || s.end != 0 || len(s.recs) != 0 {
				t.Errorf("byte %d bit %d: tolerant scan = %+v, want notSegment", i, bit, s)
			}
		}
	}
	// Restoring the byte restores every record.
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := readAll(path); err != nil || !sameRecords(got, testRecords()) {
		t.Errorf("restored file: %+v, %v", got, err)
	}
}

func TestReadAllChecksumMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	writeStore(t, path, testRecords())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the last record; the length stays
	// plausible so only the CRC can catch it.
	raw[segHeaderSize+len(raw[segHeaderSize:])/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip not detected: err = %v", err)
	}
}

func TestReadAllUnsupportedVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	h := segHeader()
	h[len(segMagic)] = 9
	if err := os.WriteFile(path, h, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(path); err == nil {
		t.Error("future version accepted")
	}
	if _, _, err := recoverSegment(path); err == nil {
		t.Error("repair accepted a future version")
	}
}

func TestSegmentUseAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	s, err := openStore(Config{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(7, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkClosed(t, s)

	// The same contract holds for a reopened segment: every post-Close
	// operation deterministically reports ErrClosed and never mutates
	// the file.
	r, err := reopenStore(Config{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.store.Close(); err != nil {
		t.Fatal(err)
	}
	checkClosed(t, r.store)
	recs, err := readAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != 7 {
		t.Fatalf("post-close writes reached the file: %v", recs)
	}
}

// checkClosed asserts every operation on a closed segment returns the
// ErrClosed sentinel and that Close stays idempotent.
func checkClosed(t *testing.T, s *segment) {
	t.Helper()
	if err := s.Write(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Write after close: %v", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after close: %v", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after close: %v", err)
	}
	if err := s.SyncFile(); !errors.Is(err, ErrClosed) {
		t.Errorf("SyncFile after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestReadAllErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := readAll(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	// Record bytes behind no header: not a segment.
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte{1, 10, 0xFF}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("headerless file: err = %v, want ErrCorrupt", err)
	}
}

// TestCreateHeaderDurable: the segment header is written and synced
// at creation, not buffered until the first Sync — a journal that
// crashes right after creating a segment leaves a valid empty one,
// never a zero-length file.
func TestCreateHeaderDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	s, err := openStore(Config{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// No Write, no Sync: the on-disk file must already be complete.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, segHeader()) {
		t.Fatalf("freshly created segment on disk = % x, want the %d-byte v2 header", raw, segHeaderSize)
	}
	if got, err := readAll(path); err != nil || len(got) != 0 {
		t.Errorf("freshly created segment: readAll = %v, %v", got, err)
	}
}

func TestSegmentCreateErrors(t *testing.T) {
	if _, err := openStore(Config{}, filepath.Join(t.TempDir(), "no", "such", "dir", "x")); err == nil {
		t.Error("bad path accepted")
	}
}

func BenchmarkSegmentWriteSync(b *testing.B) {
	s, err := openStore(Config{}, filepath.Join(b.TempDir(), "labels.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := bytes.Repeat([]byte{3}, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(uint64(i), payload); err != nil {
			b.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecoverEveryOffset is the crash-safety proof by construction: a
// valid segment truncated at *every* byte offset is never mis-parsed,
// and at each cut the three policies built on the one scanner — strict
// (readCheckpoint, an open without Recover), repair (an open with
// Recover) and tolerant (Ship) — agree on the same valid prefix and
// the same offset. The prefix loses at most the one torn tail record.
func TestRecoverEveryOffset(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.log")
	want := testRecords()
	writeStore(t, base, want)
	full, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for off := 0; off <= len(full); off++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.log", off))
		if err := os.WriteFile(path, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}

		// Tolerant: whatever parsed, and where it ends. Every record
		// whose final byte is within the cut is in it.
		scan := scanSegment(bytes.NewReader(full[:off]))
		whole := recordsEndingWithin(want, off)
		if !sameRecords(scan.recs, want[:whole]) {
			t.Fatalf("off %d: scan yielded %d records, %d were fully on disk", off, len(scan.recs), whole)
		}
		clean := scan.why == cleanEOF
		if (scan.err == nil) != clean || (off == len(full) && !clean) {
			t.Fatalf("off %d: scan stopped with %v, %v", off, scan.why, scan.err)
		}
		if wantEnd := int64(endOfRecords(want, whole)); off >= segHeaderSize && scan.end != wantEnd || off < segHeaderSize && (scan.end != 0 || scan.why != tornHeader) {
			t.Fatalf("off %d: scan ended at %d (%v), want %d", off, scan.end, scan.why, wantEnd)
		}

		// Strict: a failure exactly when the scan stopped short, the
		// same records when it did not, and the file untouched.
		strict, strictErr := readAll(path)
		if (strictErr == nil) != clean || (clean && !sameRecords(strict, scan.recs)) {
			t.Fatalf("off %d: strict read = %d records, %v; scan was clean=%v", off, len(strict), strictErr, clean)
		}
		r, err := reopenStore(Config{}, path)
		if clean {
			if err != nil || r.damaged || !sameRecords(r.recs, scan.recs) {
				t.Fatalf("off %d: strict reopen of a clean cut: %+v, %v", off, r, err)
			}
			_ = r.store.Close()
		} else if !errors.Is(err, ErrRecoveryTruncated) {
			t.Fatalf("off %d: strict reopen = %v, want ErrRecoveryTruncated", off, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, full[:off]) {
			t.Fatalf("off %d: a strict open modified the file", off)
		}

		// Repair: the same prefix, the file cut to the same offset (or
		// reset to a bare header), the difference accounted.
		recovered, cut, err := recoverSegment(path)
		if err != nil {
			t.Fatalf("off %d: repair: %v", off, err)
		}
		if !sameRecords(recovered, scan.recs) {
			t.Fatalf("off %d: repair kept %d records, scan saw %d", off, len(recovered), len(scan.recs))
		}
		wantSize := max(scan.end, int64(segHeaderSize))
		if info, err := os.Stat(path); err != nil || info.Size() != wantSize {
			t.Fatalf("off %d: repaired file is %d bytes, want %d (%v)", off, info.Size(), wantSize, err)
		}
		if cut != int64(off)-scan.end {
			t.Fatalf("off %d: repair reported %d bytes cut, want %d", off, cut, int64(off)-scan.end)
		}

		// After repair the segment is clean: a strict read succeeds
		// and agrees, and a second repair finds nothing to do.
		again, err := readAll(path)
		if err != nil || !sameRecords(again, recovered) {
			t.Fatalf("off %d: post-repair read %+v, %v", off, again, err)
		}
		recovered2, cut2, err := recoverSegment(path)
		if err != nil || cut2 != 0 || !sameRecords(recovered2, recovered) {
			t.Fatalf("off %d: second repair: %+v, %d, %v", off, recovered2, cut2, err)
		}
	}
}

// endOfRecords is the byte offset the first n records of a segment
// end at.
func endOfRecords(recs []record, n int) int {
	pos := segHeaderSize
	for _, r := range recs[:n] {
		pos += len(appendRecord(nil, r.ID, r.Payload))
	}
	return pos
}

// recordsEndingWithin counts how many leading records of a segment
// end at or before byte offset off in its encoding.
func recordsEndingWithin(recs []record, off int) int {
	n := 0
	for n < len(recs) && endOfRecords(recs, n+1) <= off {
		n++
	}
	return n
}

// TestRecoverCorruptMiddle flips a byte mid-file: repair must keep
// the records before the damage and cut everything from it on.
func TestRecoverCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	want := testRecords()
	writeStore(t, path, want)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(raw, []byte("hello label")) // record 3's payload
	if idx < 0 {
		t.Fatal("corpus payload not found")
	}
	raw[idx] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, cut, err := recoverSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(recovered, want[:2]) {
		t.Errorf("recovered %+v, want first two records", recovered)
	}
	if cut == 0 {
		t.Error("no bytes reported cut")
	}
	again, err := readAll(path)
	if err != nil || !sameRecords(again, want[:2]) {
		t.Errorf("post-repair read: %+v, %v", again, err)
	}
}

// TestRecoverTornHeader: a crash before the segment header landed
// leaves a strict prefix of it — possibly the empty prefix, a
// zero-length file; repair resets the file to a valid empty segment
// that accepts appends. Without that, records would be appended to a
// headerless file that no reader accepts.
func TestRecoverTornHeader(t *testing.T) {
	for off := 0; off < segHeaderSize; off++ {
		path := filepath.Join(t.TempDir(), "torn.log")
		if err := os.WriteFile(path, segHeader()[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		// Every strict header prefix, the empty one included, is a
		// detected tear.
		if _, err := readAll(path); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("off %d: torn header read: err = %v, want io.ErrUnexpectedEOF", off, err)
		}
		r, err := reopenStore(Config{Recover: true}, path)
		if err != nil || len(r.recs) != 0 || !r.damaged || r.cut != int64(off) {
			t.Fatalf("off %d: repairing reopen = %+v, %v", off, r, err)
		}
		// The file is a bare header before anything is appended.
		if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, segHeader()) {
			t.Errorf("off %d: repaired file = % x, %v", off, raw, err)
		}
		writeAll(t, r.store, []record{{ID: 1, Payload: []byte("x")}})
		if got, err := readAll(path); err != nil || len(got) != 1 {
			t.Errorf("off %d: append after repair: %v, %v", off, got, err)
		}
	}
}

// FuzzReadAll feeds arbitrary bytes through the strict reader and the
// repair path: neither may panic, repair must always produce a file
// the strict reader accepts and agrees with, and a file the strict
// reader accepted must lose nothing in repair.
func FuzzReadAll(f *testing.F) {
	// A tiny corpus: small payloads keep execs fast.
	p := filepath.Join(f.TempDir(), "seed.log")
	writeStore(f, p, []record{
		{ID: 1, Payload: []byte("a")},
		{ID: 300, Payload: []byte("bcd")},
		{ID: 2, Payload: []byte{}},
	})
	v2, err := os.ReadFile(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(v2)
	f.Add(v2[:len(v2)-3])
	f.Add(v2[:segHeaderSize+1])
	f.Add(segHeader())
	f.Add(segHeader()[:3])
	f.Add(v2[segHeaderSize:]) // records behind no header
	for i := 0; i < segHeaderSize; i++ {
		damaged := append([]byte(nil), v2...)
		damaged[i] ^= 1
		f.Add(damaged)
	}
	f.Add([]byte{0x80, 0x80, 0x80})
	f.Add([]byte{1, 10, 0xFF})
	corrupt := append([]byte(nil), v2...)
	corrupt[len(corrupt)/2] ^= 1
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		strict, strictErr := readAll(path)
		recovered, cut, err := recoverSegment(path)
		if !bytes.HasPrefix(data, segHeader()) && !bytes.HasPrefix(segHeader(), data) {
			// Neither a segment nor one torn inside its header: damaged
			// magic, a version we never wrote, or foreign bytes. Both
			// refuse it and the file stays as it was.
			if strictErr == nil || err == nil {
				t.Fatalf("not a segment, yet strict read = %v, repair = %v", strictErr, err)
			}
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("repair modified a file that is not a segment (%d -> %d bytes, %v)", len(data), len(after), rerr)
			}
			return
		}
		if err != nil {
			t.Fatalf("repair failed on recoverable input: %v", err)
		}
		if cut < 0 || cut > int64(len(data)) {
			t.Fatalf("cut = %d of %d", cut, len(data))
		}
		if strictErr == nil {
			// A cleanly readable segment must survive repair intact.
			if cut != 0 || !sameRecords(recovered, strict) {
				t.Fatalf("repair changed a clean segment: cut %d, %d vs %d records", cut, len(recovered), len(strict))
			}
		}
		again, err := readAll(path)
		if err != nil {
			t.Fatalf("post-repair read: %v", err)
		}
		if !sameRecords(again, recovered) {
			t.Fatalf("post-repair read disagrees with repair")
		}
	})
}

// driveStore writes batches of records through a segment built on a
// fault-injecting file, syncing after each batch, until a fault (or
// nothing) stops it. It returns every record written so far and the
// number of batches whose Sync succeeded.
func driveStore(t *testing.T, path string, batches int, perBatch int, faults ...faultfs.Fault) (written []record, syncedBatches int, failed error) {
	t.Helper()
	s, err := openStore(Config{WrapFile: func(f File) File { return faultfs.Wrap(f.(faultfs.Backing), faults...) }}, path)
	if err != nil {
		return nil, 0, err
	}
	id := uint64(0)
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			rec := record{ID: id, Payload: []byte(fmt.Sprintf("payload-%d-%d", b, i))}
			id++
			if err := s.Write(rec.ID, rec.Payload); err != nil {
				_ = s.Close()
				return written, syncedBatches, err
			}
			written = append(written, rec)
		}
		if err := s.Sync(); err != nil {
			_ = s.Close()
			return written, syncedBatches, err
		}
		syncedBatches++
	}
	return written, syncedBatches, s.Close()
}

// checkRecovery asserts the segment's durability contract after a
// fault: repair succeeds, yields an exact prefix of what was written,
// keeps every record from a successfully synced batch, and leaves a
// segment the strict reader accepts.
func checkRecovery(t *testing.T, path string, written []record, syncedBatches, perBatch int) {
	t.Helper()
	recovered, _, err := recoverSegment(path)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !isPrefix(recovered, written) {
		t.Fatalf("recovered %d records are not a prefix of the %d written", len(recovered), len(written))
	}
	if durable := syncedBatches * perBatch; len(recovered) < durable {
		t.Fatalf("lost synced records: recovered %d, %d were synced", len(recovered), durable)
	}
	again, err := readAll(path)
	if err != nil {
		t.Fatalf("post-repair read: %v", err)
	}
	if !sameRecords(again, recovered) {
		t.Fatal("post-repair read disagrees with repair")
	}
}

// TestFaultInjectionMatrix kills the writer at every write and sync
// boundary of a multi-batch run — wholesale write errors, torn (short)
// writes of every partial length class, and sync failures — and
// proves repair never loses a synced record and never yields a
// mis-parse.
func TestFaultInjectionMatrix(t *testing.T) {
	const batches, perBatch = 4, 3
	type tc struct {
		name  string
		fault faultfs.Fault
	}
	var cases []tc
	// openStore writes and syncs the header unbuffered (write #1 and
	// sync #1); after that the records wait in the segment, so batch b
	// hits the file as write/sync #(b+1) at its Sync. Ops 1..batches+1
	// cover every boundary.
	for n := 1; n <= batches+1; n++ {
		cases = append(cases,
			tc{fmt.Sprintf("write-error-%d", n), faultfs.Fault{Op: faultfs.OpWrite, N: n}},
			tc{fmt.Sprintf("write-short1-%d", n), faultfs.Fault{Op: faultfs.OpWrite, N: n, Short: 1}},
			tc{fmt.Sprintf("write-short5-%d", n), faultfs.Fault{Op: faultfs.OpWrite, N: n, Short: 5}},
			tc{fmt.Sprintf("write-short20-%d", n), faultfs.Fault{Op: faultfs.OpWrite, N: n, Short: 20}},
			tc{fmt.Sprintf("sync-error-%d", n), faultfs.Fault{Op: faultfs.OpSync, N: n}},
		)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "labels.log")
			written, synced, failed := driveStore(t, path, batches, perBatch, c.fault)
			wantFault := c.fault.N <= batches // the last boundary may never be reached
			if wantFault && failed == nil {
				t.Fatalf("fault %+v never fired", c.fault)
			}
			if failed != nil && !errors.Is(failed, faultfs.ErrInjected) {
				t.Fatalf("unexpected failure: %v", failed)
			}
			// Torn sync means the failing batch is not durable; count
			// only fully synced batches.
			checkRecovery(t, path, written, synced, perBatch)
		})
	}
}

// TestFaultDuringHeader kills the very first write so even the
// segment header is torn; repair must still produce a usable segment.
func TestFaultDuringHeader(t *testing.T) {
	for short := 0; short < segHeaderSize; short++ {
		path := filepath.Join(t.TempDir(), "labels.log")
		_, _, failed := driveStore(t, path, 1, 1, faultfs.Fault{Op: faultfs.OpWrite, N: 1, Short: short})
		if failed == nil {
			t.Fatalf("short=%d: no failure", short)
		}
		recovered, _, err := recoverSegment(path)
		if err != nil || len(recovered) != 0 {
			t.Fatalf("short=%d: repair = %v, %v", short, recovered, err)
		}
		if got, err := readAll(path); err != nil || len(got) != 0 {
			t.Fatalf("short=%d: post-repair read: %v, %v", short, got, err)
		}
	}
}

// TestSyncedDataSurvivesWedge proves the headline guarantee directly:
// everything before a successful Sync is still readable after a later
// fault.
func TestSyncedDataSurvivesWedge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	// Sync #1 is the header sync inside openStore, so sync #4 kills
	// batch 3's fsync, leaving batches 1 and 2 durable.
	written, synced, failed := driveStore(t, path, 5, 2, faultfs.Fault{Op: faultfs.OpSync, N: 4})
	if failed == nil || synced != 2 {
		t.Fatalf("synced = %d, failed = %v", synced, failed)
	}
	checkRecovery(t, path, written, synced, 2)
}
