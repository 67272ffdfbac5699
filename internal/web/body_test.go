package web

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	dynxml "repro"
)

// editResult and editResponse are the edit ack as structs: what the
// edit and batch routes encoded with json.Encoder before they rendered
// the bytes themselves, kept as the oracle renderEditReply is pinned to.
type editResult struct {
	IDs       []int `json:"ids,omitempty"`
	Relabeled int   `json:"relabeled"`
	Removed   int   `json:"removed,omitempty"`
}

type editResponse struct {
	Results []editResult `json:"results"`
	Applied int          `json:"applied"`
	Seq     uint64       `json:"seq,omitempty"`
}

func TestRenderEditReplyGolden(t *testing.T) {
	cases := map[string][]dynxml.EditResult{
		"insert":      {{IDs: []int{41}}},
		"insert-tree": {{IDs: []int{7, 8, 9}, Relabeled: 2}},
		"delete":      {{Removed: 3}},
		"batch":       {{IDs: []int{1}}, {IDs: []int{12, 13}, Relabeled: 1}, {Removed: 2}, {}},
		"empty ids":   {{IDs: []int{}, Relabeled: 5}},
		"none":        {},
	}
	for name, results := range cases {
		for _, seq := range []uint64{0, 1, 1 << 40} {
			resp := editResponse{Results: make([]editResult, len(results)), Applied: len(results), Seq: seq}
			for i, r := range results {
				resp.Results[i] = editResult{IDs: r.IDs, Relabeled: r.Relabeled, Removed: r.Removed}
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(resp); err != nil {
				t.Fatal(err)
			}
			if got := renderEditReply(nil, results, seq); !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s, seq %d: rendered %q, json.Encoder writes %q", name, seq, got, want.Bytes())
			}
		}
	}
}

// referenceDecode is how a request body was decoded before the flat
// fast path: json.Decoder, unknown fields refused, More() for trailing
// data.
func referenceDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return errTrailing
	}
	return nil
}

// FuzzRequestDecode pins the request decoder to the reference for each
// flat request type: both accept or both refuse, with equal values, and
// what the fast path accepts alone the reference accepts too.
func FuzzRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"path":"//act/scene/speech"}`, `{"path":"/plays/play/act[4]"}`, `{"path":"//b[@x<3 and y>2]&z"}`,
		`{"op":"insert-element","parent":12,"pos":3,"name":"x"}`, `{"op":"delete","node":41}`,
		`{"op":"insert-tree","parent":1,"fragment":"<x><y></y></x>"}`, `{"path":"<r></r>","op":"x"}`,
		`{}`, ``, `  `, `{"PATH":"x"}`, `{"Path":"x"}`, `{"path":"a","path":"b"}`, `{"path":"A"}`,
		`{"path":"a\"b"}`, "{\"path\":\"\xff\"}", "{\"path\":\"é\"}", `{"op":"delete","node":-0}`,
		`{"op":"delete","node":-5}`, `{"op":"delete","node":007}`, `{"op":"delete","node":1e2}`,
		`{"op":"delete","node":1.0}`, `{"op":"delete","node":99999999999999999999}`,
		`{"op":"delete","node":999999999999999999}`, `{"op":"delete","node":"5"}`, `{"node":null}`,
		" {\t\"path\" :\r\n\"x\" } ", `{"path":"x"} {}`, `{"path":"x"}}`, `{"path":"x"} x`, `{"path":"x",}`,
		`{"path":"x" "y"}`, `{"path":true}`, `{"edits":[]}`, `{"path":{"a":1}}`, `[]`, `null`, `}`, `{"op":"x"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		check := func(got, want any) {
			gotErr := decodeRequest(body, got, false)
			wantErr := referenceDecode(body, want)
			if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%q: decoded %+v (%v), reference %+v (%v)", body, got, gotErr, want, wantErr)
			}
			fast := reflect.New(reflect.TypeOf(got).Elem()).Interface()
			if decodeFlat(body, fast) && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
				t.Fatalf("%q: fast path accepted %+v, reference %+v (%v)", body, fast, want, wantErr)
			}
		}
		check(new(queryRequest), new(queryRequest))
		check(new(editRequest), new(editRequest))
	})
}

// TestRequestDecodeCanonical is the other half: the bodies the client
// sends are taken by the fast path, not merely decoded by the fallback.
func TestRequestDecodeCanonical(t *testing.T) {
	for _, body := range []string{
		`{"path":"//act/scene/speech"}`,
		`{"op":"insert-element","parent":12,"pos":3,"name":"x"}`,
		`{"op":"insert-tree","parent":1,"fragment":"<x><y></y></x>"}`,
		`{"op":"delete","node":41}`,
	} {
		if !decodeFlat([]byte(body), new(queryRequest)) && !decodeFlat([]byte(body), new(editRequest)) {
			t.Errorf("%s: not taken by the fast path", body)
		}
	}
}
