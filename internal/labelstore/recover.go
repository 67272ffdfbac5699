package labelstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// Recover scans a store file that may have been torn by a crash,
// validates every record (checksums, varint framing, payload bounds),
// truncates the file in place at the last clean record boundary and
// returns the surviving records plus how many bytes were cut.
//
// The contract, proven by the every-offset truncation tests: records
// that were fully on disk — in particular everything written before a
// successful Sync — always survive; at most the one torn or corrupt
// tail record is dropped. A file whose corruption starts mid-stream
// loses that record and everything after it (the log is append-only,
// so a damaged middle means the tail was never durable either).
//
// Special cases: a file shorter than the segment header that is a
// prefix of it — including a zero-length file, the state a crash
// leaves between creation and the header landing — is reset to a
// valid empty store. A file whose head is anything else but the
// header is not a torn segment: Recover fails with ErrCorrupt (or the
// unsupported-version error) and leaves it byte for byte as it was.
func Recover(path string) (records []Record, truncatedBytes int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("labelstore: %w", err)
	}
	records, truncatedBytes, err = recoverOpenFile(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("labelstore: %w", cerr)
	}
	return records, truncatedBytes, err
}

// recoverOpenFile is Recover on an already-open read-write file. It
// leaves the file offset unspecified.
func recoverOpenFile(f *os.File) (records []Record, truncatedBytes int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("labelstore: %w", err)
	}
	size := info.Size()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("labelstore: %w", err)
	}
	r := bufio.NewReader(f)

	if err := readHeader(r); errors.Is(err, errTornHeader) {
		// Nothing was ever readable, so reset to a valid empty store.
		// Without this, Open would append records to a headerless file
		// that no reader accepts.
		if err := rewriteHeader(f); err != nil {
			return nil, 0, err
		}
		recordTruncation(size)
		return nil, size, nil
	} else if err != nil {
		return nil, 0, err
	}
	off := int64(headerSize)

	// Scan forward, remembering the last clean boundary.
	for {
		rec, consumed, err := readRecord(r)
		if err == io.EOF {
			break // clean end: the whole tail is intact
		}
		if err != nil {
			// Torn or corrupt record: cut the file at the boundary.
			truncatedBytes = size - off
			if terr := f.Truncate(off); terr != nil {
				return nil, 0, fmt.Errorf("labelstore: truncating torn tail: %w", terr)
			}
			if terr := f.Sync(); terr != nil {
				return nil, 0, fmt.Errorf("labelstore: %w", terr)
			}
			recordTruncation(truncatedBytes)
			return records, truncatedBytes, nil
		}
		records = append(records, rec)
		off += consumed
	}
	return records, 0, nil
}

// rewriteHeader resets f to a valid empty v2 store.
func rewriteHeader(f *os.File) error {
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("labelstore: %w", err)
	}
	if _, err := f.WriteAt(header(), 0); err != nil {
		return fmt.Errorf("labelstore: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("labelstore: %w", err)
	}
	return nil
}

// recordTruncation feeds the recovery metrics.
func recordTruncation(bytes int64) {
	mRecoveries.Inc()
	if bytes > 0 {
		mTruncBytes.Add(bytes)
		mTruncRecs.Inc()
	}
}
