package remote

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

func fullRaise() Message {
	return Message{
		Kind:       MsgRaise,
		Sender:     "machine-a",
		Token:      0xDEADBEEFCAFE,
		Event:      "Svc.Work",
		DeadlineNS: 5_000_000,
		Args: []any{
			uint64(42), int64(-7), 3, "payload", []byte{1, 2, 3},
			true, false, nil,
		},
	}
}

func TestWireRoundTrip(t *testing.T) {
	cases := []Message{
		fullRaise(),
		{Kind: MsgAck, Token: 9, Status: StatusApplied, Fired: 3},
		{Kind: MsgAck, Token: 10, Status: StatusDup},
		{Kind: MsgHeartbeat, Token: 77},
		{Kind: MsgHeartbeatAck, Token: 77},
		{Kind: MsgRaise, Event: "E.Zero"}, // near-empty payload
	}
	for _, want := range cases {
		frame, err := appendMessage(nil, &want)
		if err != nil {
			t.Fatalf("AppendMessage(%s): %v", want.Kind, err)
		}
		got, n, err := decodeMessage(frame)
		if err != nil {
			t.Fatalf("DecodeMessage(%s): %v", want.Kind, err)
		}
		if n != len(frame) {
			t.Fatalf("consumed %d of %d bytes", n, len(frame))
		}
		if got.Kind != want.Kind || got.Sender != want.Sender ||
			got.Token != want.Token || got.Event != want.Event ||
			got.DeadlineNS != want.DeadlineNS || got.Status != want.Status ||
			got.Fired != want.Fired {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
		// The arg train must survive with types intact; int normalizes to
		// int64 (the wire has one signed integer width).
		wantArgs := want.Args
		if wantArgs != nil {
			norm := make([]any, len(wantArgs))
			for i, a := range wantArgs {
				if v, ok := a.(int); ok {
					norm[i] = int64(v)
				} else {
					norm[i] = a
				}
			}
			wantArgs = norm
		}
		if !reflect.DeepEqual(got.Args, wantArgs) {
			t.Fatalf("args mismatch:\n got %#v\nwant %#v", got.Args, wantArgs)
		}
	}
}

// TestWireGolden pins the encoded bytes of one message with every field
// and every argument tag: testdata/message.golden was written by the
// encoder as it stood before the framing moved to internal/frame, and two
// machines on different builds must still understand each other.
func TestWireGolden(t *testing.T) {
	msg := Message{Kind: MsgRaise, Sender: "machine-a", Token: 1<<33 + 5,
		Event: "Remote.Ping", DeadlineNS: -30000000, Status: StatusApplied, Fired: 3,
		Args: []any{nil, uint64(9), int64(-4), 12, true, false, "str", []byte{1, 2, 3}}}
	golden, err := os.ReadFile("testdata/message.golden")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(golden)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendMessage(nil, &msg)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("encoded message moved (err %v):\n got %x\nwant %x", err, got, want)
	}
	dec, n, err := decodeMessage(want)
	if err != nil || n != len(want) {
		t.Fatalf("DecodeMessage(golden) = %d bytes, %v; want %d, nil", n, err, len(want))
	}
	if dec.Sender != msg.Sender || dec.Token != msg.Token || dec.DeadlineNS != msg.DeadlineNS ||
		dec.Fired != msg.Fired || len(dec.Args) != len(msg.Args) {
		t.Fatalf("golden decodes to %+v, want %+v", dec, msg)
	}
}

func TestWireArgsByteSliceIsCopied(t *testing.T) {
	src := []byte{1, 2, 3}
	m := Message{Kind: MsgRaise, Event: "E", Args: []any{src}}
	frame, _ := appendMessage(nil, &m)
	got, _, err := decodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-6] ^= 0xFF // scribble on the frame buffer
	if !bytes.Equal(got.Args[0].([]byte), src) {
		t.Fatal("decoded []byte aliases the frame buffer")
	}
}

func TestWireRejectsUnencodableArg(t *testing.T) {
	m := Message{Kind: MsgRaise, Event: "E", Args: []any{struct{}{}}}
	if _, err := appendMessage(nil, &m); !errors.Is(err, ErrBadArg) {
		t.Fatalf("err = %v", err)
	}
}

func TestWireStreamDecodesBackToBackFrames(t *testing.T) {
	// The TCP reader sees a byte stream: frames must decode one after
	// another from a single buffer, and a trailing partial frame must
	// report ErrTruncated (wait for more), not corruption.
	var buf []byte
	msgs := []Message{fullRaise(), {Kind: MsgAck, Token: 1, Status: StatusApplied, Fired: 1}, {Kind: MsgHeartbeat, Token: 2}}
	for i := range msgs {
		var err error
		buf, err = appendMessage(buf, &msgs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	whole := len(buf)
	buf = append(buf, 0x01, 0x7F) // start of a fourth frame, cut off
	for i := range msgs {
		got, n, err := decodeMessage(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != msgs[i].Kind || got.Token != msgs[i].Token {
			t.Fatalf("frame %d decoded as %+v", i, got)
		}
		buf = buf[n:]
	}
	if _, _, err := decodeMessage(buf); !errors.Is(err, ErrTruncated) {
		t.Fatalf("partial tail: err = %v", err)
	}
	_ = whole
}

// Every single-byte flip anywhere in a frame must be detected — decoded
// never as a clean message. Mirrors the journal's tamper sweep.
func TestWireDetectsEveryByteFlip(t *testing.T) {
	m := fullRaise()
	frame, err := appendMessage(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x5a
		if _, _, err := decodeMessage(mut); err == nil {
			t.Fatalf("flip at byte %d decoded cleanly", i)
		}
	}
}

// Exhaustive variant: all eight single-bit flips of every byte.
func TestWireDetectsEveryBitFlip(t *testing.T) {
	m := fullRaise()
	frame, err := appendMessage(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << bit
			if _, _, err := decodeMessage(mut); err == nil {
				t.Fatalf("bit %d of byte %d flipped, decoded cleanly", bit, i)
			}
		}
	}
}

func TestWireTruncationDetected(t *testing.T) {
	m := fullRaise()
	frame, err := appendMessage(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(frame); n++ {
		if _, _, err := decodeMessage(frame[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", n, len(frame))
		}
	}
}

func TestWireBadKindRejected(t *testing.T) {
	if _, _, err := decodeMessage([]byte{0x00, 0x00}); !errors.Is(err, ErrBadKind) {
		t.Fatalf("kind 0: err = %v", err)
	}
	if _, _, err := decodeMessage([]byte{0x7F, 0x00}); !errors.Is(err, ErrBadKind) {
		t.Fatalf("kind 127: err = %v", err)
	}
}
