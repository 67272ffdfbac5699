package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// queryReply is the query route's reply as a struct.
type queryReply struct {
	Count int   `json:"count"`
	IDs   []int `json:"ids"`
}

// canonicalReply is the reply the server renders for ids.
func canonicalReply(ids []int) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(queryReply{Count: len(ids), IDs: ids})
	return buf.Bytes()
}

func seqIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i * 7
	}
	return ids
}

// FuzzQueryReplyDecode pins the fast decoder to encoding/json: for any
// body it either declines, leaving the decision to encoding/json, or
// returns exactly the ids encoding/json returns with a count that
// matches them; it never panics, and never sizes ids from a count the
// body could not hold.
func FuzzQueryReplyDecode(f *testing.F) {
	for _, seed := range []string{
		string(canonicalReply(seqIDs(40))),                   // canonical
		`{"count":0,"ids":[]}` + "\n",                        // canonical, empty
		`{"count":2,"ids":[01,2]}`,                           // leading zeros
		`{"count":02,"ids":[1,2]}`,                           //
		`{"count":1,"ids":[-4]}`,                             // negative
		`{"count":-1,"ids":[]}`,                              //
		`{"count":3,"ids":[1,2]}`,                            // count != len
		`{"count":1,"ids":[1,2]}`,                            //
		`{"count":2,"ids":[1,2,]}`,                           // trailing comma
		`{"count":1,"ids":[12345678901234567890]}`,           // 20-digit number
		`{"count":12345678901234567890,"ids":[1]}`,           //
		`{"count":999999999999,"ids":[1]}`,                   // a count the body cannot hold
		`{"count":1,"ids":[[1]]}`,                            // nested array
		`{"count":3,"ids":[1,2`,                              // truncated body
		`{"count":`,                                          //
		`{"count":1`,                                         //
		`{"count":1,"ids":[7]}` + "\n\n",                     // whitespace encoding/json accepts
		`{ "count": 1, "ids": [7] }`,                         //
		`{"ids":[7],"count":1}`,                              // reordered
		`{"count":1,"ids":[7],"more":true}`,                  // extra field
		`{"count":1,"ids":[7]}{"count":1,"ids":[7]}`,         // trailing data
		`{"count":1,"ids":[1e2]}`, `{"count":1,"ids":[1.0]}`, // numbers that are no ints
		`{"count":1,"ids":null}`, `null`, ``, `{"count":1,"ids`, //
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ids, ok := decodeQueryReply(body)
		if !ok {
			return
		}
		if cap(ids) > len(body) {
			t.Fatalf("accepted %q with room for %d ids", body, cap(ids))
		}
		var want queryReply
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("accepted %q, which encoding/json refuses: %v", body, err)
		}
		if !reflect.DeepEqual(ids, want.IDs) || want.Count != len(ids) {
			t.Fatalf("%q: fast decoder %v, encoding/json count %d ids %v", body, ids, want.Count, want.IDs)
		}
	})
}

// TestQueryReplyDecodeCanonical is the other half: what the server
// renders is accepted, not merely decoded correctly by the fallback.
func TestQueryReplyDecodeCanonical(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5000} {
		want := seqIDs(n)
		body := canonicalReply(want)
		for _, b := range [][]byte{body, bytes.TrimSuffix(body, []byte("\n"))} {
			ids, ok := decodeQueryReply(b)
			if !ok || !reflect.DeepEqual(ids, want) || ids == nil {
				t.Errorf("%d ids: ok %v, got %d ids (nil %v)", n, ok, len(ids), ids == nil)
			}
		}
	}
	if _, ok := decodeQueryReply([]byte(fmt.Sprintf(`{"count":1,"ids":[%s]}`, strings.Repeat("9", maxDigits+1)))); ok {
		t.Errorf("accepted a number of %d digits", maxDigits+1)
	}
}

// TestQueryDecodeAllocs pins what a read costs the client past the
// transport: the body buffer and the ids, each allocated once at its
// size.
func TestQueryDecodeAllocs(t *testing.T) {
	body := canonicalReply(seqIDs(5000))
	rd := bytes.NewReader(body)
	resp := &http.Response{Body: io.NopCloser(rd), ContentLength: int64(len(body))}
	var ids []int
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		raw, err := readBody(resp)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		if ids, ok = decodeQueryReply(raw); !ok {
			t.Fatal("canonical reply declined")
		}
	})
	if len(ids) != 5000 || cap(ids) != 5000 {
		t.Fatalf("decoded %d ids into room for %d", len(ids), cap(ids))
	}
	if allocs > 3 {
		t.Errorf("reading and decoding a 5 000-id reply takes %.0f allocations, want <= 3 (body, ids)", allocs)
	}
}

// TestReadBodyLyingContentLength: a reply that states 60 MB and sends
// five bytes costs the client a buffer of 1 MB and an error, not 60 MB;
// one that states 3.5 MB and sends them is read whole, a step ahead at
// a time.
func TestReadBodyLyingContentLength(t *testing.T) {
	resp := &http.Response{Body: io.NopCloser(strings.NewReader("short")), ContentLength: 60 << 20}
	raw, err := readBody(resp)
	if err != io.ErrUnexpectedEOF || string(raw) != "short" || cap(raw) > 1<<20 {
		t.Errorf("read %d bytes into room for %d: %v", len(raw), cap(raw), err)
	}
	body := bytes.Repeat([]byte("0123456"), 1<<19)
	resp = &http.Response{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
	if raw, err = readBody(resp); err != nil || !bytes.Equal(raw, body) {
		t.Errorf("read %d bytes of %d: %v", len(raw), len(body), err)
	}
}

// TestQueryOtherSpellings is a server that does not render the reply
// the way dynxmld does — chunked, pretty-printed, fields reordered, an
// extra field, a count that disagrees: the client reads it as it comes
// and encoding/json decides, as before.
func TestQueryOtherSpellings(t *testing.T) {
	want := seqIDs(3000)
	compact, _ := json.Marshal(want)
	pretty, _ := json.MarshalIndent(queryReply{Count: len(want), IDs: want}, "", "  ")
	replies := map[string]string{
		"chunked":   string(canonicalReply(want)),
		"pretty":    string(pretty),
		"reordered": fmt.Sprintf(`{"ids":%s,"count":%d}`, compact, len(want)),
		"extra":     fmt.Sprintf(`{"count":%d,"ids":%s,"took_us":12}`, len(want), compact),
		"miscount":  fmt.Sprintf(`{"count":%d,"ids":%s}`, len(want)+5, compact),
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		as := strings.Split(r.URL.Path, "/")[3] // /v1/docs/{as}/query
		reply := replies[as]
		w.Header().Set("Content-Type", "application/json")
		if as != "chunked" {
			w.Header().Set("Content-Length", fmt.Sprint(len(reply)))
		}
		// Two writes with a flush between them: an unsized reply leaves
		// chunked whatever its length.
		_, _ = io.WriteString(w, reply[:len(reply)/2])
		w.(http.Flusher).Flush()
		_, _ = io.WriteString(w, reply[len(reply)/2:])
	}))
	defer ts.Close()
	c, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for as := range replies {
		ids, err := (&Doc{c: c, name: as}).Query("//x")
		if err != nil || !reflect.DeepEqual(ids, want) {
			t.Errorf("%s: %d ids, %v", as, len(ids), err)
		}
	}
	if _, err := (&Doc{c: c, name: "none"}).Query("//x"); err == nil {
		t.Error("an empty reply decoded")
	}
}
