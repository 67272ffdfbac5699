package labelstore

import (
	"bufio"
	"errors"
	"io"
	"math"
)

// ReadAvailable scans a v2 segment for complete records starting at
// byte offset off and returns them with the clean offset just past the
// last one. Unlike ReadAll it never fails on a torn tail: an
// incomplete or checksum-failing record simply ends the scan at the
// last clean boundary. That makes it safe to run against a segment a
// live writer is still appending to — a record that is torn now is
// complete on the next call — which is exactly how the journal
// follower tails a leader's log and how the leader reads batches back
// for shipping while its own group-commit pipeline keeps writing.
//
// An off of 0 parses the segment header first; a file too short to
// hold even the header is "nothing available yet" (nil, 0, nil), and a
// head that cannot be a v2 segment is an error. Nonzero offsets must
// come from a previous ReadAvailable call on the same file.
func ReadAvailable(r io.ReaderAt, off int64) ([]Record, int64, error) {
	br := bufio.NewReader(io.NewSectionReader(r, off, math.MaxInt64-off))
	if off == 0 {
		if err := readHeader(br); errors.Is(err, errTornHeader) {
			return nil, 0, nil // header still being written
		} else if err != nil {
			return nil, 0, err
		}
		off = int64(headerSize)
	}
	var out []Record
	for {
		rec, n, err := readRecord(br)
		if err != nil {
			// io.EOF is a clean boundary; anything else is a tail that
			// is torn, still in flight, or corrupt — indistinguishable
			// while the writer lives, so all of them mean "stop here".
			return out, off, nil
		}
		out = append(out, rec)
		off += n
	}
}
