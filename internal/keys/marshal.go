package keys

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bitstr"
	"repro/internal/qed"
)

// Marshaler is implemented by codecs whose keys can be serialised for
// storage. All codecs in this package implement it; the interface
// exists so the scheme layer can discover the capability without
// widening Codec itself.
type Marshaler interface {
	// AppendKey serialises k, appending to dst.
	AppendKey(dst []byte, k Key) ([]byte, error)
	// DecodeKey parses one key from the front of data, returning it
	// and the number of bytes consumed.
	DecodeKey(data []byte) (Key, int, error)
}

var (
	_ Marshaler = intCodec{}
	_ Marshaler = floatCodec{}
	_ Marshaler = cdbsCodec{}
	_ Marshaler = qedCodec{}
)

// AppendKey serialises a bit-string key (V/F-Binary, V/F-CDBS) as its
// bit count and bits.
func (bitStored) AppendKey(dst []byte, k Key) ([]byte, error) {
	b, ok := k.(bitstr.BitString)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, k)
	}
	return b.AppendTo(dst), nil
}

// DecodeKey parses a bit-string key.
func (bitStored) DecodeKey(data []byte) (Key, int, error) {
	b, used, err := bitstr.DecodeFrom(data)
	if err != nil {
		return nil, 0, err
	}
	return b, used, nil
}

// AppendKey serialises a float key as 8 big-endian bytes.
func (floatCodec) AppendKey(dst []byte, k Key) ([]byte, error) {
	v, ok := k.(float64)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, k)
	}
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v)), nil
}

// DecodeKey parses a float key.
func (floatCodec) DecodeKey(data []byte) (Key, int, error) {
	if len(data) < 8 {
		return nil, 0, fmt.Errorf("keys: truncated float key")
	}
	return math.Float64frombits(binary.BigEndian.Uint64(data)), 8, nil
}

// AppendKey serialises a QED key in its native separator-terminated
// 2-bit packing — no length field, as the scheme promises.
func (qedCodec) AppendKey(dst []byte, k Key) ([]byte, error) {
	code, ok := k.(qed.Code)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, k)
	}
	return append(dst, qed.Marshal([]qed.Code{code})...), nil
}

// DecodeKey parses one separator-terminated QED key. The 2-bit stream
// is byte-padded, so the consumed size is the packed length of the
// code plus its separator.
func (qedCodec) DecodeKey(data []byte) (Key, int, error) {
	// Scan 2-bit symbols until the "0" separator.
	digits := 0
	for i := 0; ; i++ {
		if i/4 >= len(data) {
			return nil, 0, fmt.Errorf("keys: truncated QED key")
		}
		d := (data[i/4] >> (6 - 2*(i%4))) & 3
		if d == 0 {
			break
		}
		digits++
	}
	used := (digits + 1 + 3) / 4 // symbols plus separator, byte-padded
	codes, err := qed.Unmarshal(data[:used])
	if err != nil {
		return nil, 0, err
	}
	if len(codes) != 1 {
		return nil, 0, fmt.Errorf("keys: expected one QED code, found %d", len(codes))
	}
	return codes[0], used, nil
}
