// Package journal is a write-ahead log of dyndoc edit batches in
// CRC-framed segment files (segment.go). Every acknowledged batch is appended to a
// log segment before the caller learns it succeeded; group commit
// coalesces concurrent writers into one fsync; checkpoints serialize
// the full document into a fresh segment pair and reclaim the
// replayed log prefix; and Replay rebuilds a live document from the
// newest complete checkpoint plus the log tail. See DESIGN.md ("Edit
// journal and group commit") for the on-disk contract.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/dyndoc"
	"repro/internal/xmltree"
)

// ErrCodec reports a malformed journal record payload. Every decode
// failure wraps it, so callers can errors.Is against one sentinel.
var ErrCodec = errors.New("journal: malformed record")

// The codec is deterministic and self-framing: uvarints for counts
// and non-negative values, zigzag uvarints for ints that the batch
// layer treats as signed, and length-prefixed strings. Fragments are
// encoded as preorder (kind, name, data, child-count) tuples. The
// same bytes always decode to the same batch, and any batch that
// decodes re-encodes to a batch that decodes identically —
// FuzzEditCodec holds the codec to that round trip (byte equality is
// not promised: varints admit non-minimal spellings on input).

// maxCodecLen caps counts and string lengths a decoder will accept,
// so corrupt or adversarial payloads cannot ask for absurd
// allocations before the data runs out.
const maxCodecLen = 1 << 24

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendInt(b []byte, v int) []byte {
	return binary.AppendUvarint(b, zigzag(int64(v)))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// reader is a tiny cursor over a record payload. Errors stick: after
// the first failure every read returns zero values.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCodec, what)
	}
}

func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) count(what string) int {
	v := r.uvarint(what)
	if r.err == nil && v > maxCodecLen {
		r.fail(what + " too large")
		return 0
	}
	return int(v)
}

func (r *reader) int(what string) int {
	return int(unzigzag(r.uvarint(what)))
}

func (r *reader) string(what string) string {
	n := r.count(what + " length")
	if r.err != nil {
		return ""
	}
	if n > len(r.b) {
		r.fail(what + " truncated")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// appendNode encodes a fragment tree in preorder.
func appendNode(b []byte, n *xmltree.Node) []byte {
	b = appendUvarint(b, uint64(n.Kind))
	b = appendString(b, n.Name)
	b = appendString(b, n.Data)
	b = appendUvarint(b, uint64(len(n.Children)))
	for _, c := range n.Children {
		b = appendNode(b, c)
	}
	return b
}

// maxNodeDepth bounds fragment recursion so a corrupt payload cannot
// blow the stack.
const maxNodeDepth = 10_000

func (r *reader) node(depth int) *xmltree.Node {
	if r.err != nil {
		return nil
	}
	if depth > maxNodeDepth {
		r.fail("fragment too deep")
		return nil
	}
	kind := r.uvarint("fragment kind")
	if r.err == nil && kind > uint64(xmltree.Attr) {
		r.fail("fragment kind out of range")
	}
	n := &xmltree.Node{Kind: xmltree.Kind(kind)}
	n.Name = r.string("fragment name")
	n.Data = r.string("fragment data")
	kids := r.count("fragment child count")
	for i := 0; i < kids && r.err == nil; i++ {
		c := r.node(depth + 1)
		if r.err != nil {
			return nil
		}
		c.Parent = n
		n.Children = append(n.Children, c)
	}
	if r.err != nil {
		return nil
	}
	return n
}

func appendEdit(b []byte, e dyndoc.Edit) []byte {
	b = appendUvarint(b, uint64(e.Op))
	switch e.Op {
	case dyndoc.OpInsertElement:
		b = appendInt(b, e.Parent)
		b = appendInt(b, e.Pos)
		b = appendString(b, e.Name)
	case dyndoc.OpInsertTree:
		b = appendInt(b, e.Parent)
		b = appendInt(b, e.Pos)
		b = appendNode(b, e.Fragment)
	case dyndoc.OpDeleteSubtree:
		b = appendInt(b, e.Node)
	}
	return b
}

func (r *reader) edit() dyndoc.Edit {
	op := r.uvarint("edit op")
	var e dyndoc.Edit
	e.Op = dyndoc.EditOp(op)
	switch e.Op {
	case dyndoc.OpInsertElement:
		e.Parent = r.int("edit parent")
		e.Pos = r.int("edit pos")
		e.Name = r.string("edit name")
	case dyndoc.OpInsertTree:
		e.Parent = r.int("edit parent")
		e.Pos = r.int("edit pos")
		e.Fragment = r.node(0)
	case dyndoc.OpDeleteSubtree:
		e.Node = r.int("edit node")
	default:
		r.fail("edit op out of range")
	}
	return e
}

func appendResult(b []byte, res dyndoc.EditResult) []byte {
	b = appendUvarint(b, uint64(len(res.IDs)))
	for _, id := range res.IDs {
		b = appendInt(b, id)
	}
	b = appendInt(b, res.Relabeled)
	b = appendInt(b, res.Removed)
	return b
}

func (r *reader) result() dyndoc.EditResult {
	var res dyndoc.EditResult
	n := r.count("result id count")
	for i := 0; i < n && r.err == nil; i++ {
		res.IDs = append(res.IDs, r.int("result id"))
	}
	res.Relabeled = r.int("result relabeled")
	res.Removed = r.int("result removed")
	return res
}

// wholeFragment reports whether a fragment tree is encodable: no nil
// node anywhere. ApplyBatch rejects such edits before they can reach
// the journal, but EncodeBatch is exported and must not panic on one.
func wholeFragment(n *xmltree.Node) bool {
	if n == nil {
		return false
	}
	for _, c := range n.Children {
		if !wholeFragment(c) {
			return false
		}
	}
	return true
}

// EncodeBatch serializes one committed batch — the edits as issued
// and the results the issuing session observed. Results travel with
// the edits because replay re-executes the batch against a freshly
// numbered document and needs the original ids to extend its id
// translation map. An insert-tree edit whose fragment is nil (or
// contains a nil node) is unencodable and reported as ErrCodec.
func EncodeBatch(edits []dyndoc.Edit, results []dyndoc.EditResult) ([]byte, error) {
	for i, e := range edits {
		if e.Op == dyndoc.OpInsertTree && !wholeFragment(e.Fragment) {
			return nil, fmt.Errorf("%w: edit %d: insert-tree with nil fragment node", ErrCodec, i)
		}
	}
	b := appendUvarint(nil, uint64(len(edits)))
	for _, e := range edits {
		b = appendEdit(b, e)
	}
	b = appendUvarint(b, uint64(len(results)))
	for _, res := range results {
		b = appendResult(b, res)
	}
	return b, nil
}

// DecodeBatch parses a record payload written by EncodeBatch. Any
// framing violation — including trailing bytes — is an ErrCodec.
func DecodeBatch(payload []byte) ([]dyndoc.Edit, []dyndoc.EditResult, error) {
	r := &reader{b: payload}
	ne := r.count("edit count")
	var edits []dyndoc.Edit
	for i := 0; i < ne && r.err == nil; i++ {
		edits = append(edits, r.edit())
	}
	nr := r.count("result count")
	var results []dyndoc.EditResult
	for i := 0; i < nr && r.err == nil; i++ {
		results = append(results, r.result())
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	if len(r.b) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(r.b))
	}
	return edits, results, nil
}

// checkpointMeta is the first record of a checkpoint segment: enough
// to rebuild the document (scheme + XML), translate old node ids to
// the rebuilt numbering (preorder id list), and anchor the log tail
// (base sequence).
type checkpointMeta struct {
	Scheme   string
	XML      string
	PreOrder []int
	BaseSeq  uint64
}

func encodeMeta(m checkpointMeta) []byte {
	b := appendString(nil, m.Scheme)
	b = appendString(b, m.XML)
	b = appendUvarint(b, m.BaseSeq)
	b = appendUvarint(b, uint64(len(m.PreOrder)))
	for _, id := range m.PreOrder {
		b = appendInt(b, id)
	}
	return b
}

func decodeMeta(payload []byte) (checkpointMeta, error) {
	r := &reader{b: payload}
	var m checkpointMeta
	m.Scheme = r.string("meta scheme")
	m.XML = r.string("meta xml")
	m.BaseSeq = r.uvarint("meta base seq")
	n := r.count("meta preorder count")
	for i := 0; i < n && r.err == nil; i++ {
		m.PreOrder = append(m.PreOrder, r.int("meta preorder id"))
	}
	if r.err != nil {
		return checkpointMeta{}, r.err
	}
	if len(r.b) != 0 {
		return checkpointMeta{}, fmt.Errorf("%w: %d trailing bytes in meta", ErrCodec, len(r.b))
	}
	return m, nil
}

// checkpointEnd is the trailer record proving the checkpoint segment
// is complete: the label count it should contain and the base
// sequence again, cross-checked on replay.
type checkpointEnd struct {
	Labels  int
	BaseSeq uint64
}

func encodeEnd(e checkpointEnd) []byte {
	b := appendUvarint(nil, uint64(e.Labels))
	return appendUvarint(b, e.BaseSeq)
}

func decodeEnd(payload []byte) (checkpointEnd, error) {
	r := &reader{b: payload}
	var e checkpointEnd
	e.Labels = r.count("end label count")
	e.BaseSeq = r.uvarint("end base seq")
	if r.err != nil {
		return checkpointEnd{}, r.err
	}
	if len(r.b) != 0 {
		return checkpointEnd{}, fmt.Errorf("%w: %d trailing bytes in end", ErrCodec, len(r.b))
	}
	return e, nil
}
