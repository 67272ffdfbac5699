package bitstr

import (
	"encoding/binary"
	"fmt"
)

// AppendTo serialises the bit string as a uvarint bit count followed
// by the packed payload bytes, appending to dst.
func (s BitString) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.n))
	return append(dst, s.data...)
}

// DecodeFrom parses a bit string produced by AppendTo from the front
// of data, returning it and the number of bytes consumed.
func DecodeFrom(data []byte) (BitString, int, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return Empty, 0, fmt.Errorf("bitstr: bad length prefix")
	}
	if n > 1<<24 {
		return Empty, 0, fmt.Errorf("bitstr: implausible bit count %d", n)
	}
	need := bytesFor(int(n))
	if len(data) < used+need {
		return Empty, 0, fmt.Errorf("bitstr: truncated payload: need %d bytes, have %d", need, len(data)-used)
	}
	bs, err := FromBytes(data[used:used+need], int(n))
	if err != nil {
		return Empty, 0, err
	}
	return bs, used + need, nil
}
