package dyndoc

import "slices"

// Clone returns a document that answers as d does now and can be
// edited independently of it: no write on either side is ever
// observable on the other, so one side can be edited while the other
// is read. It does not write to d. The write-once columns and the
// symbol table are shared (package cow); the labeling and the index
// backend copy what they mutate in place, flat or on first touch, and
// the per-name edit tokens are copied whole, σ × 16 B, hashing nothing.
// The query cache is shared too: the two sides' edit tokens keep their
// answers apart.
func (d *Document) Clone() (*Document, error) {
	out := *d
	out.lab = d.lab.CloneLabeling()
	out.versions = slices.Clone(d.versions)
	// The index backend clones through its own interface (slice copies
	// its array of per-name list headers and shares the lists; paged
	// shares pages copy-on-write) and rebinds to the clone.
	var err error
	if out.idx, err = d.idx.Clone(out.binding()); err != nil {
		return nil, err
	}
	out.bind()
	return &out, nil
}
