package keys

import (
	"testing"
)

// TestKeyMarshalRoundTrip serialises every codec's initial keys and
// parses them back, checking order and equality survive.
func TestKeyMarshalRoundTrip(t *testing.T) {
	for _, c := range allCodecs() {
		m, ok := c.(Marshaler)
		if !ok {
			t.Fatalf("%s does not implement Marshaler", c.Name())
		}
		ks, err := c.Encode(50)
		if err != nil {
			t.Fatal(err)
		}
		// Concatenate all keys into one buffer, then parse them back
		// in sequence — the storage scenario.
		var buf []byte
		for _, k := range ks {
			buf, err = m.AppendKey(buf, k)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
		}
		pos := 0
		for i, want := range ks {
			got, used, err := m.DecodeKey(buf[pos:])
			if err != nil {
				t.Fatalf("%s key %d: %v", c.Name(), i, err)
			}
			if used <= 0 {
				t.Fatalf("%s key %d: used %d", c.Name(), i, used)
			}
			pos += used
			if c.Compare(got, want) != 0 {
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
		m := c.(Marshaler)
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
		ks, err := c.Encode(10)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 7, 40} {
			mids, err := c.NBetween(ks[4], ks[5], n)
			if err != nil {
				if !c.Dynamic() {
					continue // static codecs may legitimately lack room
				}
				t.Fatalf("%s: NBetween(%d): %v", c.Name(), n, err)
			}
			prev := ks[4]
			for i, mk := range mids {
				if c.Compare(prev, mk) >= 0 {
					t.Fatalf("%s: NBetween(%d)[%d] out of order", c.Name(), n, i)
				}
				prev = mk
			}
			if c.Compare(prev, ks[5]) >= 0 {
				t.Fatalf("%s: NBetween(%d) exceeded right bound", c.Name(), n)
			}
		}
		// Open ends.
		if mids, err := c.NBetween(ks[9], nil, 3); err != nil || len(mids) != 3 {
			t.Fatalf("%s: open-right NBetween: %v", c.Name(), err)
		}
		if _, err := c.NBetween(ks[0], ks[1], -1); err == nil {
			t.Fatalf("%s: negative count accepted", c.Name())
		}
	}
	// Static integer codec: a wide man-made gap has room for a few.
	c := VBinary()
	ks, _ := c.Encode(1000)
	mids, err := c.NBetween(ks[0], ks[999], 50)
	if err != nil || len(mids) != 50 {
		t.Fatalf("V-Binary NBetween over wide gap: %v", err)
	}
	// But a tight gap correctly reports no room.
	if _, err := c.NBetween(ks[0], ks[1], 1); err == nil {
		t.Fatal("V-Binary NBetween in unit gap succeeded")
	}
}
