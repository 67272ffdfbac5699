package client

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// appendString appends s as a JSON string: as it is unless it holds
// non-ASCII or a byte JSON escapes, then as json.Marshal writes it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendEdit appends e in the server's flat form: members in order, each but op only when set.
func appendEdit(b []byte, e Edit) []byte {
	b = appendString(append(b, `{"op":`...), e.Op)
	b = appendInt(b, `,"parent":`, e.Parent)
	b = appendInt(b, `,"pos":`, e.Pos)
	if e.Name != "" {
		b = appendString(append(b, `,"name":`...), e.Name)
	}
	if e.Fragment != "" {
		b = appendString(append(b, `,"fragment":`...), e.Fragment)
	}
	return append(appendInt(b, `,"node":`, e.Node), '}')
}

func appendInt(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// maxDigits is how many decimal digits always fit an int.
const maxDigits = 9 + 9*(strconv.IntSize/64)

// decodeQueryReply decodes a reply of exactly the form the server
// renders: {"count":N,"ids":[a,b,...]} and at most one newline, no
// other whitespace, numbers of at most maxDigits digits with no sign or
// leading zero, N the number of ids — allocated once, at N. Anything
// else is not ok and goes to encoding/json, which decides what it
// means and agrees on whatever is accepted here (FuzzQueryReplyDecode).
func decodeQueryReply(b []byte) (ids []int, ok bool) {
	n, b, ok := number(b, `{"count":`)
	// An id takes a digit and a separator: a count of more than half the
	// body is wrong, and gets no memory on its word.
	if !ok || n > len(b)/2 {
		return nil, false
	}
	ids, sep := make([]int, n), `,"ids":[`
	for i := range ids {
		if ids[i], b, ok = number(b, sep); !ok {
			return nil, false
		}
		sep = ","
	}
	if n == 0 {
		b, ok = bytes.CutPrefix(b, []byte(sep))
	}
	return ids, ok && (string(b) == "]}" || string(b) == "]}\n")
}

// decodeEditAck decodes one edit's ack in exactly the form the server
// renders it, numbers as decodeQueryReply reads them. Anything else — a
// batch's ack too — is not ok and goes to encoding/json, which agrees on
// whatever is accepted here (FuzzEditAckDecode).
func decodeEditAck(b []byte) (ack EditAck, ok bool) {
	var r EditResult
	key := `{"results":[{"relabeled":`
	if ids, found := bytes.CutPrefix(b, []byte(`{"results":[{"ids":[`)); found {
		r.IDs = make([]int, bytes.Count(ids[:max(bytes.IndexByte(ids, ']'), 0)], []byte(","))+1)
		b, key, ok = ids, "", true
		for i := 0; ok && i < len(r.IDs); i++ {
			r.IDs[i], b, ok = number(b, key)
			key = ","
		}
		key = `],"relabeled":`
	}
	if r.Relabeled, b, ok = number(b, key); ok && bytes.HasPrefix(b, []byte(`,"removed":`)) {
		r.Removed, b, ok = number(b, `,"removed":`)
	}
	if ok {
		ack.Applied, b, ok = number(b, `}],"applied":`)
	}
	if ok && bytes.HasPrefix(b, []byte(`,"seq":`)) {
		var seq int
		seq, b, ok = number(b, `,"seq":`)
		ack.Seq = uint64(seq)
	}
	ack.Results = []EditResult{r}
	return ack, ok && (string(b) == "}" || string(b) == "}\n")
}

// number parses the decimal digits after the prefix b must start with
// and returns what follows them, nil when not ok. No digits, more than
// maxDigits and a zero before another digit are not ok: encoding/json
// refuses them or an int may not hold them.
func number(b []byte, after string) (v int, rest []byte, ok bool) {
	i := len(after)
	if len(b) < i || string(b[:i]) != after {
		return 0, nil, false
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + int(b[i]-'0')
	}
	if digits := i - len(after); digits == 0 || digits > maxDigits || (digits > 1 && b[len(after)] == '0') {
		return 0, nil, false
	}
	return v, b[i:], true
}
