package web

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"sync"

	dynxml "repro"
)

// A reqBody is a pooled request-body buffer and the reader bounding it;
// a body decodes into fresh strings, so it is free once decoded.
type reqBody struct {
	buf []byte
	lr  io.LimitedReader
}

var bodies = sync.Pool{New: func() any { return new(reqBody) }}

// decodeJSON decodes the request body into dst, or answers a 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any, allowEmpty bool) bool {
	rb := bodies.Get().(*reqBody)
	rb.lr = io.LimitedReader{R: r.Body, N: maxBodyBytes + 1}
	b := bytes.NewBuffer(rb.buf[:0])
	_, err := b.ReadFrom(&rb.lr)
	if b.Len() > maxBodyBytes {
		err = &http.MaxBytesError{Limit: maxBodyBytes}
	}
	if err == nil {
		err = decodeRequest(b.Bytes(), dst, allowEmpty)
	}
	if rb.lr.R = nil; b.Cap() <= maxPooled {
		rb.buf = b.Bytes()
		bodies.Put(rb)
	}
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "invalid JSON body: "+err.Error())
	}
	return err == nil
}

var errTrailing = errors.New("trailing data")

// decodeRequest decodes body into dst as a json.Decoder with
// DisallowUnknownFields would, refusing trailing data by More(); an
// empty body is an error unless allowEmpty (dst keeps its zero value).
func decodeRequest(body []byte, dst any, allowEmpty bool) error {
	if decodeFlat(body, dst) {
		return nil
	}
	reflect.ValueOf(dst).Elem().SetZero()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		if allowEmpty && errors.Is(err, io.EOF) {
			return nil
		}
		return err
	}
	if dec.More() {
		return errTrailing
	}
	return nil
}

// decodeFlat decodes a query or edit request in the form the client
// sends: members in declaration order, no whitespace, strings of
// printable ASCII without escapes, integers of at most maxDigits digits
// with no sign or leading zero. Anything else is not ok, for
// encoding/json to decide, which agrees on what is accepted here.
func decodeFlat(b []byte, dst any) bool {
	// A body is more than the closing brace, and opens with the first
	// key: the keys after it start with a comma, so a body without it
	// matches none of them and ends unread.
	f := flat{b, len(b) > 1 && b[0] == '{'}
	switch v := dst.(type) {
	case *queryRequest:
		f.str(`{"path":`, &v.Path)
	case *editRequest:
		f.str(`{"op":`, &v.Op)
		f.int(`,"parent":`, &v.Parent)
		f.int(`,"pos":`, &v.Pos)
		f.str(`,"name":`, &v.Name)
		f.str(`,"fragment":`, &v.Fragment)
		f.int(`,"node":`, &v.Node)
	default:
		return false
	}
	return f.ok && string(f.b) == "}"
}

// flat reads members from b, each when b starts with its key; ok falls
// at the first value it cannot read.
type flat struct {
	b  []byte
	ok bool
}

func (f *flat) str(key string, dst *string) {
	b, found := bytes.CutPrefix(f.b, []byte(key))
	if !f.ok || !found {
		return
	}
	f.ok = false
	for i := 1; i < len(b) && b[0] == '"' && b[i] >= 0x20 && b[i] < 0x80 && b[i] != '\\'; i++ {
		if b[i] == '"' {
			*dst, f.b, f.ok = string(b[1:i]), b[i+1:], true
			return
		}
	}
}

// maxDigits is how many decimal digits always fit an int.
const maxDigits = 9 + 9*(strconv.IntSize/64)

func (f *flat) int(key string, dst *int) {
	b, found := bytes.CutPrefix(f.b, []byte(key))
	if !f.ok || !found {
		return
	}
	i, v := 0, 0
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + int(b[i]-'0')
	}
	*dst, f.b, f.ok = v, b[i:], i > 0 && i <= maxDigits && (i == 1 || b[0] != '0')
}

// renderEditReply appends the edit and batch routes' ack, byte for byte
// what json.Encoder wrote for it, newline included (TestRenderEditReplyGolden).
func renderEditReply(b []byte, results []dynxml.EditResult, seq uint64) []byte {
	b = append(b, `{"results":[`...)
	for i, r := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if len(r.IDs) > 0 {
			sep := `"ids":[`
			for _, id := range r.IDs {
				b = strconv.AppendInt(append(b, sep...), int64(id), 10)
				sep = ","
			}
			b = append(b, "],"...)
		}
		b = strconv.AppendInt(append(b, `"relabeled":`...), int64(r.Relabeled), 10)
		if r.Removed != 0 {
			b = strconv.AppendInt(append(b, `,"removed":`...), int64(r.Removed), 10)
		}
		b = append(b, '}')
	}
	b = strconv.AppendInt(append(b, `],"applied":`...), int64(len(results)), 10)
	if seq != 0 {
		b = strconv.AppendUint(append(b, `,"seq":`...), seq, 10)
	}
	return append(b, "}\n"...)
}
