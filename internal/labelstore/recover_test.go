package labelstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// isPrefix reports whether got is a record-for-record prefix of want.
func isPrefix(got, want []Record) bool {
	if len(got) > len(want) {
		return false
	}
	return sameRecords(got, want[:len(got)])
}

// TestRecoverEveryOffset is the crash-safety proof by construction:
// a valid store truncated at *every* byte offset must (a) never be
// mis-parsed by ReadAll — the result is an error or an exact record
// prefix, never wrong data — and (b) always be repaired by Recover
// into a clean store holding an exact record prefix, losing at most
// the one torn tail record.
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

		// (a) Strict read of the torn file: error or exact prefix.
		if recs, err := ReadAll(path); err == nil {
			if !isPrefix(recs, want) {
				t.Fatalf("off %d: ReadAll mis-parsed a torn file into %+v", off, recs)
			}
			if off == len(full) && len(recs) != len(want) {
				t.Fatalf("off %d: full file lost records", off)
			}
		} else if off == len(full) {
			t.Fatalf("off %d: ReadAll failed on the intact file: %v", off, err)
		}

		// (b) Recover: never errors, yields a prefix, accounts bytes.
		recovered, truncated, err := Recover(path)
		if err != nil {
			t.Fatalf("off %d: Recover: %v", off, err)
		}
		if !isPrefix(recovered, want) {
			t.Fatalf("off %d: Recover yielded non-prefix %+v", off, recovered)
		}
		if truncated < 0 || truncated > int64(off) {
			t.Fatalf("off %d: truncatedBytes = %d", off, truncated)
		}
		if off == len(full) && (truncated != 0 || len(recovered) != len(want)) {
			t.Fatalf("intact file: truncated %d bytes, kept %d records", truncated, len(recovered))
		}
		// At most one record may be lost relative to the bytes
		// present: every record whose final byte is within the cut
		// survives.
		wholeByOffset := recordsEndingWithin(full, want, off)
		if len(recovered) < wholeByOffset {
			t.Fatalf("off %d: recovered %d records, but %d were fully on disk", off, len(recovered), wholeByOffset)
		}

		// After recovery the store is clean: a strict read succeeds
		// and agrees with what Recover reported.
		again, err := ReadAll(path)
		if err != nil {
			t.Fatalf("off %d: ReadAll after Recover: %v", off, err)
		}
		if !sameRecords(again, recovered) {
			t.Fatalf("off %d: post-recovery read %+v != recovered %+v", off, again, recovered)
		}
		// Recovery is idempotent.
		recovered2, truncated2, err := Recover(path)
		if err != nil || truncated2 != 0 || !sameRecords(recovered2, recovered) {
			t.Fatalf("off %d: second Recover: %+v, %d, %v", off, recovered2, truncated2, err)
		}
	}
}

// recordsEndingWithin counts how many leading records of a v2 store
// end at or before byte offset off in its encoding.
func recordsEndingWithin(full []byte, recs []Record, off int) int {
	pos := headerSize
	n := 0
	for _, r := range recs {
		enc := appendRecord(nil, r.ID, r.Payload)
		pos += len(enc)
		if pos > off {
			break
		}
		n++
	}
	return n
}

// TestRecoverCorruptMiddle flips a byte mid-file: Recover must keep
// the records before the damage and cut everything from it on.
func TestRecoverCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.log")
	want := testRecords()
	writeStore(t, path, want)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload of record 3 ("hello label"): find it.
	idx := bytes.Index(raw, []byte("hello label"))
	if idx < 0 {
		t.Fatal("corpus payload not found")
	}
	raw[idx] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, truncated, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(recovered, want[:2]) {
		t.Errorf("recovered %+v, want first two records", recovered)
	}
	if truncated == 0 {
		t.Error("no bytes reported truncated")
	}
	again, err := ReadAll(path)
	if err != nil || !sameRecords(again, want[:2]) {
		t.Errorf("post-recovery read: %+v, %v", again, err)
	}
}

// TestRecoverTornHeader: a crash before the segment header landed
// leaves a strict prefix of it — possibly the empty prefix, a
// zero-length file; Recover resets the file to a valid empty store
// that Open can append to. Without the off==0 case, Open would append
// records to a headerless file that no reader accepts.
func TestRecoverTornHeader(t *testing.T) {
	for off := 0; off < headerSize; off++ {
		path := filepath.Join(t.TempDir(), "torn.log")
		if err := os.WriteFile(path, header()[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		// Every strict header prefix, the empty one included, is a
		// detected tear.
		if _, err := ReadAll(path); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("off %d: torn header read: err = %v, want io.ErrUnexpectedEOF", off, err)
		}
		recs, truncated, err := Recover(path)
		if err != nil || len(recs) != 0 || truncated != int64(off) {
			t.Fatalf("off %d: Recover = %v, %d, %v", off, recs, truncated, err)
		}
		if got, err := ReadAll(path); err != nil || len(got) != 0 {
			t.Errorf("off %d: post-recovery read: %v, %v", off, got, err)
		}
		// The repaired store accepts appends.
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadAll(path); err != nil || len(got) != 1 {
			t.Errorf("off %d: append after repair: %v, %v", off, got, err)
		}
	}
}

// FuzzReadAll feeds arbitrary bytes through the strict reader and the
// recovery path: neither may panic, recovery must always produce a
// file the strict reader accepts and agrees with, and a file the
// strict reader accepted must lose nothing in recovery.
func FuzzReadAll(f *testing.F) {
	want := testRecordsFuzz()
	var v2 []byte
	{
		dir := f.TempDir()
		p := filepath.Join(dir, "seed.log")
		s, err := Create(p)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range want {
			if err := s.Write(r.ID, r.Payload); err != nil {
				f.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			f.Fatal(err)
		}
		if err := s.Close(); err != nil {
			f.Fatal(err)
		}
		v2, err = os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{})
	f.Add(v2)
	f.Add(v2[:len(v2)-3])
	f.Add(v2[:headerSize+1])
	f.Add(header())
	f.Add(header()[:3])
	f.Add(v2[headerSize:]) // records behind no header
	for i := 0; i < headerSize; i++ {
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
		strict, strictErr := ReadAll(path)
		recovered, truncated, err := Recover(path)
		if !bytes.HasPrefix(data, header()) && !bytes.HasPrefix(header(), data) {
			// Neither a segment nor one torn inside its header: damaged
			// magic, a version we never wrote, or foreign bytes. Both
			// refuse it and the file stays as it was.
			if strictErr == nil || err == nil {
				t.Fatalf("not a segment, yet ReadAll = %v, Recover = %v", strictErr, err)
			}
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("Recover modified a file that is not a segment (%d -> %d bytes, %v)", len(data), len(after), rerr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Recover failed on recoverable input: %v", err)
		}
		if truncated < 0 || truncated > int64(len(data)) {
			t.Fatalf("truncatedBytes = %d of %d", truncated, len(data))
		}
		if strictErr == nil {
			// A cleanly readable store must survive recovery intact.
			if truncated != 0 || !sameRecords(recovered, strict) {
				t.Fatalf("recovery changed a clean store: truncated %d, %d vs %d records", truncated, len(recovered), len(strict))
			}
		}
		again, err := ReadAll(path)
		if err != nil {
			t.Fatalf("post-recovery ReadAll: %v", err)
		}
		if !sameRecords(again, recovered) {
			t.Fatalf("post-recovery read disagrees with Recover")
		}
	})
}

// testRecordsFuzz is a tiny corpus for fuzz seeding (small payloads
// keep execs fast).
func testRecordsFuzz() []Record {
	return []Record{
		{ID: 1, Payload: []byte("a")},
		{ID: 300, Payload: []byte("bcd")},
		{ID: 2, Payload: []byte{}},
	}
}
