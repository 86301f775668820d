package frame

import (
	"bytes"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var p []byte
	p = AppendField(p, 1, 300)
	p = AppendField(p, 2, 0) // omitted
	p = AppendString(p, 3, "event")
	p = AppendBytes(p, 4, []byte{9, 8})
	p = AppendField(p, 5, Zigzag(-7))
	buf := Append([]byte("prefix"), 6, p)[len("prefix"):]

	kind, payload, n, err := Decode(append(buf, 0xFF)) // trailing bytes are the next frame's
	if err != nil || kind != 6 || n != len(buf) || !bytes.Equal(payload, p) {
		t.Fatalf("Decode = kind %d, %d bytes, %v; want 6, %d, nil", kind, n, err, len(buf))
	}
	type field struct {
		key, v uint64
		b      string
	}
	var got []field
	for len(payload) > 0 {
		key, v, b, rest, ok := Next(payload)
		if !ok {
			t.Fatalf("Next failed with %d bytes left", len(payload))
		}
		got, payload = append(got, field{key, v, string(b)}), rest
	}
	want := []field{{Varint(1), 300, ""}, {Bytes(3), 0, "event"}, {Bytes(4), 0, "\x09\x08"}, {Varint(5), Zigzag(-7), ""}}
	if len(got) != len(want) {
		t.Fatalf("fields %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("field %d = %v, want %v", i, got[i], want[i])
		}
	}
	if Unzigzag(Zigzag(-7)) != -7 || Unzigzag(Zigzag(1<<62)) != 1<<62 {
		t.Error("zigzag does not round-trip")
	}
}

// A payload can pass the CRC and still be malformed (a writer bug): Next
// must refuse a key with no value, an unterminated varint, and a byte
// string longer than what is left, instead of slicing past the end.
func TestNextRejectsMalformedFields(t *testing.T) {
	for name, p := range map[string][]byte{
		"key only":          {byte(Varint(1))},
		"unterminated key":  {0x80},
		"unterminated int":  {byte(Varint(1)), 0x80},
		"string too long":   {byte(Bytes(1)), 5, 'a', 'b'},
		"length overflows":  {byte(Bytes(1)), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		"length not a uint": {byte(Bytes(1)), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	} {
		if _, _, _, _, ok := Next(p); ok {
			t.Errorf("%s: Next(%x) succeeded", name, p)
		}
	}
}

func TestDecodeTruncatedAndCorrupt(t *testing.T) {
	buf := Append(nil, 1, []byte("payload"))
	for cut := 0; cut < len(buf); cut++ {
		if _, _, _, err := Decode(buf[:cut]); err != ErrTruncated {
			t.Errorf("Decode(first %d bytes) = %v, want ErrTruncated", cut, err)
		}
	}
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		if _, _, _, err := Decode(bad); err == nil {
			t.Errorf("Decode accepted a flip of byte %d", i)
		}
	}
}
