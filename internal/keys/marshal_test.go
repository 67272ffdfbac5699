package keys

import (
	"bytes"
	"testing"
)

// TestKeyMarshalRoundTrip serialises every codec's initial keys with
// Arena.AppendKey and parses them back with the reference's DecodeKey,
// checking order and equality survive.
func TestKeyMarshalRoundTrip(t *testing.T) {
	for _, c := range allCodecs() {
		m := box(c)
		a, err := NewArena(c)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := a.Encode(50)
		if err != nil {
			t.Fatal(err)
		}
		// Concatenate all keys into one buffer, then parse them back
		// in sequence — the storage scenario.
		var buf, boxedBuf []byte
		for _, r := range refs {
			buf = a.AppendKey(buf, r)
			boxedBuf, err = m.AppendKey(boxedBuf, a.Key(r))
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
		}
		if !bytes.Equal(buf, boxedBuf) {
			t.Fatalf("%s: the arena serialises %x, the reference %x", c.Name(), buf, boxedBuf)
		}
		pos := 0
		for i, r := range refs {
			got, used, err := m.DecodeKey(buf[pos:])
			if err != nil {
				t.Fatalf("%s key %d: %v", c.Name(), i, err)
			}
			if used <= 0 {
				t.Fatalf("%s key %d: used %d", c.Name(), i, used)
			}
			pos += used
			if want := a.Key(r); box(c).Compare(got, want) != 0 {
				t.Fatalf("%s key %d: decoded %v, want %v", c.Name(), i, got, want)
			}
		}
		if pos != len(buf) {
			t.Fatalf("%s: %d trailing bytes", c.Name(), len(buf)-pos)
		}
	}
}

func TestKeyMarshalErrors(t *testing.T) {
	for _, c := range allCodecs() {
		m := box(c)
		if _, err := m.AppendKey(nil, "wrong type"); err == nil {
			t.Errorf("%s: wrong key type accepted", c.Name())
		}
		if _, _, err := m.DecodeKey(nil); err == nil {
			t.Errorf("%s: empty buffer accepted", c.Name())
		}
	}
}

// TestNBetweenOrderAllCodecs drives the bulk-subdivision path of every
// codec.
func TestNBetweenOrderAllCodecs(t *testing.T) {
	for _, c := range allCodecs() {
		ks, err := box(c).Encode(10)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 7, 40} {
			mids, err := box(c).NBetween(ks[4], ks[5], n)
			if err != nil {
				if !c.Dynamic() {
					continue // static codecs may legitimately lack room
				}
				t.Fatalf("%s: NBetween(%d): %v", c.Name(), n, err)
			}
			prev := ks[4]
			for i, mk := range mids {
				if box(c).Compare(prev, mk) >= 0 {
					t.Fatalf("%s: NBetween(%d)[%d] out of order", c.Name(), n, i)
				}
				prev = mk
			}
			if box(c).Compare(prev, ks[5]) >= 0 {
				t.Fatalf("%s: NBetween(%d) exceeded right bound", c.Name(), n)
			}
		}
		// Open ends.
		if mids, err := box(c).NBetween(ks[9], nil, 3); err != nil || len(mids) != 3 {
			t.Fatalf("%s: open-right NBetween: %v", c.Name(), err)
		}
		if _, err := box(c).NBetween(ks[0], ks[1], -1); err == nil {
			t.Fatalf("%s: negative count accepted", c.Name())
		}
	}
	// Static integer codec: a wide man-made gap has room for a few.
	c := VBinary()
	ks, _ := box(c).Encode(1000)
	mids, err := box(c).NBetween(ks[0], ks[999], 50)
	if err != nil || len(mids) != 50 {
		t.Fatalf("V-Binary NBetween over wide gap: %v", err)
	}
	// But a tight gap correctly reports no room.
	if _, err := box(c).NBetween(ks[0], ks[1], 1); err == nil {
		t.Fatal("V-Binary NBetween in unit gap succeeded")
	}
}
