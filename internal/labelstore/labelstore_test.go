package labelstore

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testRecords is a corpus with the framing edge cases: empty payload,
// one byte, multi-byte varint id, payload longer than the varint
// scratch.
func testRecords() []Record {
	return []Record{
		{ID: 0, Payload: []byte{}},
		{ID: 1, Payload: []byte{0xAB}},
		{ID: 130, Payload: []byte("hello label")},
		{ID: 1 << 40, Payload: bytes.Repeat([]byte{7}, 300)},
	}
}

// writeStore creates a v2 store at path holding recs, synced once.
func writeStore(t *testing.T, path string, recs []Record) {
	t.Helper()
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
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

// sameRecords compares record slices.
func sameRecords(a, b []Record) bool {
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

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	want := testRecords()
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if err := s.Write(r.ID, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	records, byteCount, syncs := s.Stats()
	if records != 4 || syncs != 1 || byteCount <= 300 {
		t.Errorf("Stats = %d,%d,%d", records, byteCount, syncs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(got, want) {
		t.Errorf("ReadAll = %+v, want %+v", got, want)
	}
	// The file leads with the v2 segment header.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < headerSize || string(raw[:len(magic)]) != magic || raw[len(magic)] != FormatVersion {
		t.Errorf("file does not start with the v2 header: % x", raw[:min(len(raw), headerSize)])
	}
}

func TestOpenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	first := testRecords()
	writeStore(t, path, first)

	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	extra := []Record{{ID: 99, Payload: []byte("appended")}, {ID: 100, Payload: nil}}
	for _, r := range extra {
		if err := s.Write(r.ID, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := s.Stats(); n != 2 {
		t.Errorf("Open-session Stats records = %d, want 2", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Record{}, first...), Record{ID: 99, Payload: []byte("appended")}, Record{ID: 100, Payload: []byte{}})
	if !sameRecords(got, want) {
		t.Errorf("after append: %d records, want %d", len(got), len(want))
	}
}

// TestOpenEmptyFile: Open on a zero-length file — the state a crash
// leaves between file creation and the header landing — must repair
// it to a valid v2 store before appending. The regression it guards:
// appending CRC-footed records behind no header, which no reader
// accepts.
func TestOpenEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{ID: 42, Payload: []byte("after empty")}}
	if err := s.Write(want[0].ID, want[0].Payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil || !sameRecords(got, want) {
		t.Errorf("ReadAll after Open-on-empty = %+v, %v, want %+v", got, err, want)
	}
	recovered, truncated, err := Recover(path)
	if err != nil || truncated != 0 || !sameRecords(recovered, want) {
		t.Errorf("Recover after Open-on-empty = %+v, %d, %v", recovered, truncated, err)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("Open of a missing store succeeded")
	}
}

func TestOpenRepairsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	writeStore(t, path, testRecords())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last record in half, as a crash mid-write would.
	if err := os.WriteFile(path, raw[:len(raw)-150], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(7, []byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(testRecords()[:3], Record{ID: 7, Payload: []byte("post-crash")})
	if !sameRecords(got, want) {
		t.Errorf("after torn-tail Open: %+v, want %+v", got, want)
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
	if _, err := ReadAll(p); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("torn id accepted: err = %v", err)
	}

	// A bare torn varint with no preceding record.
	bare := filepath.Join(dir, "bare")
	if err := os.WriteFile(bare, append(header(), 0xFF), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(bare); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("bare torn varint accepted: err = %v", err)
	}
}

// TestHeaderBitFlip: a populated segment with any single bit of its
// 8-byte header flipped is not a torn segment, it is a damaged one.
// No reader accepts it and no repair path — Recover, Open — shrinks or
// rewrites it: the records behind the header are CRC-intact and one
// restored byte away from readable. (Reading such a file as a
// checksum-free legacy format once let Recover cut it to a fraction.)
func TestHeaderBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	writeStore(t, path, testRecords())
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < headerSize; i++ {
		for bit := 0; bit < 8; bit++ {
			damaged := append([]byte(nil), clean...)
			damaged[i] ^= 1 << bit
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			check := func(op string, err error) {
				t.Helper()
				if i < len(magic) {
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
			_, err := ReadAll(path)
			check("ReadAll", err)
			_, _, err = Recover(path)
			check("Recover", err)
			_, err = Open(path)
			check("Open", err)
		}
	}
	// Restoring the byte restores every record.
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadAll(path); err != nil || !sameRecords(got, testRecords()) {
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
	// Flip one payload byte of the third record; the length stays
	// plausible so only the CRC can catch it.
	raw[headerSize+len(raw[headerSize:])/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip not detected: err = %v", err)
	}
}

func TestReadAllUnsupportedVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	h := header()
	h[len(magic)] = 9
	if err := os.WriteFile(path, h, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(path); err == nil {
		t.Error("future version accepted")
	}
	if _, _, err := Recover(path); err == nil {
		t.Error("Recover accepted a future version")
	}
}

func TestUseAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	s, err := Create(path)
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

	// The same contract holds for a Store reopened with Open: every
	// post-Close operation deterministically reports ErrClosed and
	// never mutates the file.
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	checkClosed(t, s2)
	recs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != 7 {
		t.Fatalf("post-close writes reached the file: %v", recs)
	}
}

// checkClosed asserts every Store operation on a closed store returns
// the ErrClosed sentinel (matched via errors.Is, the way callers are
// expected to test it) and that Close stays idempotent.
func checkClosed(t *testing.T, s *Store) {
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
	if _, err := ReadAll(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	// Record bytes behind no header: not a segment.
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte{1, 10, 0xFF}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("headerless file: err = %v, want ErrCorrupt", err)
	}
}

// TestCreateHeaderDurable: the segment header is written and synced
// by Create itself, not buffered until the first Sync — a store that
// crashes right after creation leaves a valid empty v2 file, never a
// zero-length one.
func TestCreateHeaderDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// No Write, no Sync: the on-disk file must already be complete.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != headerSize || string(raw[:len(magic)]) != magic || raw[len(magic)] != FormatVersion {
		t.Fatalf("freshly created store on disk = % x, want the %d-byte v2 header", raw, headerSize)
	}
	if got, err := ReadAll(path); err != nil || len(got) != 0 {
		t.Errorf("freshly created store: ReadAll = %v, %v", got, err)
	}
}

func TestCreateErrors(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "no", "such", "dir", "x")); err == nil {
		t.Error("bad path accepted")
	}
}

func BenchmarkWriteSync(b *testing.B) {
	path := filepath.Join(b.TempDir(), "labels.log")
	s, err := Create(path)
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
