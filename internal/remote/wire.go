// Package remote carries event raises across the simulated wire: a Raise
// on machine A fires handlers on machine B over the repo's own netstack
// TCP and the calibrated 10 Mb/s Ethernet. The paper's dynamic binding
// model stops at the machine boundary; this package extends it with the
// failure-domain semantics a lossy wire demands — per-raise deadlines,
// idempotent retry with receiver-side deduplication (at-most-once
// effects), per-peer circuit breaking charged to the fault ledger, and
// degradation to local fallbacks under partition (DESIGN.md decision 18).
package remote

import (
	"encoding/binary"
	"fmt"

	"spin/internal/frame"
)

// Wire messages are framed exactly as journal records are (internal/frame:
// kind, length, tagged-field payload, CRC-32C), so one flipped byte
// anywhere in a frame is detected before it can reach the dispatcher (the
// corruption sweep in wire_test.go proves every single-byte flip is caught
// or yields a clean truncation).

// MsgKind discriminates wire messages.
type MsgKind uint8

const (
	// MsgRaise asks the receiver to fire an event. It carries the sender's
	// identity, an idempotency token, the event name, the remaining
	// deadline budget, and the serialized argument train.
	MsgRaise MsgKind = iota + 1
	// MsgAck reports the outcome of a raise back to the sender.
	MsgAck
	// MsgHeartbeat probes peer health; Token is a nonce echoed in the ack.
	MsgHeartbeat
	// MsgHeartbeatAck answers a heartbeat.
	MsgHeartbeatAck
)

//spinvet:pure
func (k MsgKind) String() string {
	switch k {
	case MsgRaise:
		return "raise"
	case MsgAck:
		return "ack"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgHeartbeatAck:
		return "heartbeat-ack"
	}
	return "msg(?)"
}

// Status is the receiver's verdict on a raise, carried in MsgAck.
type Status uint8

const (
	// StatusApplied: the raise was dispatched; Fired carries the handler
	// count.
	StatusApplied Status = iota + 1
	// StatusNoHandler: the event exists but dispatch found no handler and
	// no default.
	StatusNoHandler
	// StatusAmbiguous: a synchronous raise fired multiple result-bearing
	// handlers; the result is unusable but the effects happened.
	StatusAmbiguous
	// StatusRejected: the receiver refused the raise (admission shed).
	StatusRejected
	// StatusDup: the token was already applied; the effects are NOT
	// repeated. The sender treats this as success (the earlier attempt
	// landed).
	StatusDup
	// StatusUnknown: the event name is not defined on the receiver.
	StatusUnknown
)

//spinvet:pure
func (s Status) String() string {
	switch s {
	case StatusApplied:
		return "applied"
	case StatusNoHandler:
		return "no-handler"
	case StatusAmbiguous:
		return "ambiguous"
	case StatusRejected:
		return "rejected"
	case StatusDup:
		return "dup"
	case StatusUnknown:
		return "unknown-event"
	}
	return "status(?)"
}

// Message is one wire message; the field set is the superset across kinds.
type Message struct {
	Kind MsgKind
	// Sender identifies the sending peer. Dedup windows are keyed by it,
	// not by connection, so at-most-once survives redials.
	Sender string
	// Token is the raise's idempotency token (or the heartbeat nonce).
	Token uint64
	// Event is the target event name (MsgRaise).
	Event string
	// DeadlineNS is the sender's remaining per-raise budget in
	// nanoseconds, advisory for receiver-side shedding.
	DeadlineNS int64
	// Status and Fired report the outcome (MsgAck).
	Status Status
	Fired  int64
	// Args is the argument train. Only wire-encodable values survive the
	// trip: nil, uint64, int64, int, bool, string, []byte.
	Args []any
}

// Payload field identifiers.
const (
	fieldSender   = 1 // string
	fieldToken    = 2 // uvarint
	fieldEvent    = 3 // string
	fieldDeadline = 4 // zigzag uvarint
	fieldStatus   = 5 // uvarint
	fieldFired    = 6 // zigzag uvarint
	fieldArgs     = 7 // bytes (nested arg train)
)

// Argument tags inside the nested train.
const (
	argNil   = 0
	argWord  = 1 // uint64, uvarint
	argInt   = 2 // int64/int, zigzag uvarint
	argStr   = 3
	argBytes = 4
	argFalse = 5
	argTrue  = 6
)

// Errors.
var (
	// ErrTruncated reports a frame cut off by the end of input — for a
	// stream decoder this means "wait for more bytes".
	ErrTruncated = fmt.Errorf("remote: truncated frame")
	// ErrCorrupt reports a frame whose CRC does not match its bytes. A
	// stream decoder cannot resynchronize past it; the connection must be
	// torn down.
	ErrCorrupt = fmt.Errorf("remote: frame CRC mismatch")
	// ErrBadKind reports an out-of-range message kind byte.
	ErrBadKind = fmt.Errorf("remote: unknown message kind")
	// ErrBadArg reports an argument value that cannot cross the wire.
	ErrBadArg = fmt.Errorf("remote: argument type not wire-encodable")
)

// appendArgs encodes the argument train: count, then tag+value per arg.
func appendArgs(dst []byte, args []any) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(args)))
	for _, a := range args {
		switch v := a.(type) {
		case nil:
			dst = binary.AppendUvarint(dst, argNil)
		case uint64:
			dst = binary.AppendUvarint(dst, argWord)
			dst = binary.AppendUvarint(dst, v)
		case int64:
			dst = binary.AppendUvarint(dst, argInt)
			dst = binary.AppendUvarint(dst, frame.Zigzag(v))
		case int:
			dst = binary.AppendUvarint(dst, argInt)
			dst = binary.AppendUvarint(dst, frame.Zigzag(int64(v)))
		case bool:
			if v {
				dst = binary.AppendUvarint(dst, argTrue)
			} else {
				dst = binary.AppendUvarint(dst, argFalse)
			}
		case string:
			dst = binary.AppendUvarint(dst, argStr)
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		case []byte:
			dst = binary.AppendUvarint(dst, argBytes)
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		default:
			return nil, fmt.Errorf("%w: %T", ErrBadArg, a)
		}
	}
	return dst, nil
}

// decodeArgs decodes an argument train produced by appendArgs.
func decodeArgs(p []byte) ([]any, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)) {
		return nil, ErrCorrupt
	}
	p = p[n:]
	args := make([]any, 0, count)
	for i := uint64(0); i < count; i++ {
		tag, tn := binary.Uvarint(p)
		if tn <= 0 {
			return nil, ErrCorrupt
		}
		p = p[tn:]
		switch tag {
		case argNil:
			args = append(args, nil)
		case argFalse:
			args = append(args, false)
		case argTrue:
			args = append(args, true)
		case argWord, argInt:
			v, vn := binary.Uvarint(p)
			if vn <= 0 {
				return nil, ErrCorrupt
			}
			p = p[vn:]
			if tag == argWord {
				args = append(args, v)
			} else {
				args = append(args, frame.Unzigzag(v))
			}
		case argStr, argBytes:
			slen, sn := binary.Uvarint(p)
			if sn <= 0 || slen > uint64(len(p)-sn) {
				return nil, ErrCorrupt
			}
			val := p[sn : sn+int(slen)]
			p = p[sn+int(slen):]
			if tag == argStr {
				args = append(args, string(val))
			} else {
				args = append(args, append([]byte(nil), val...))
			}
		default:
			return nil, ErrCorrupt
		}
	}
	return args, nil
}

// appendMessage encodes m as one framed message onto dst. It fails only
// for non-encodable argument values.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	var payload [256]byte
	p := payload[:0]
	p = frame.AppendString(p, fieldSender, m.Sender)
	p = frame.AppendField(p, fieldToken, m.Token)
	p = frame.AppendString(p, fieldEvent, m.Event)
	p = frame.AppendField(p, fieldDeadline, frame.Zigzag(m.DeadlineNS))
	p = frame.AppendField(p, fieldStatus, uint64(m.Status))
	p = frame.AppendField(p, fieldFired, frame.Zigzag(m.Fired))
	if len(m.Args) > 0 {
		var train [192]byte
		tr, err := appendArgs(train[:0], m.Args)
		if err != nil {
			return nil, err
		}
		p = frame.AppendBytes(p, fieldArgs, tr)
	}
	return frame.Append(dst, byte(m.Kind), p), nil
}

// decodeMessage decodes one frame from the front of buf, returning the
// message and the number of bytes consumed. ErrTruncated means the buffer
// holds an incomplete frame (wait for more stream bytes); ErrCorrupt and
// ErrBadKind mean the stream is damaged beyond resynchronization.
func decodeMessage(buf []byte) (Message, int, error) {
	var m Message
	if len(buf) > 0 && (buf[0] == 0 || MsgKind(buf[0]) > MsgHeartbeatAck) {
		return m, 0, fmt.Errorf("%w: %d", ErrBadKind, buf[0])
	}
	kind, p, n, err := frame.Decode(buf)
	if err == frame.ErrTruncated {
		return m, 0, ErrTruncated
	} else if err != nil {
		return m, 0, ErrCorrupt
	}
	m.Kind = MsgKind(kind)
	for len(p) > 0 {
		key, v, b, rest, ok := frame.Next(p)
		if !ok {
			return m, 0, ErrCorrupt
		}
		p = rest
		switch key {
		case frame.Bytes(fieldSender):
			m.Sender = string(b)
		case frame.Varint(fieldToken):
			m.Token = v
		case frame.Bytes(fieldEvent):
			m.Event = string(b)
		case frame.Varint(fieldDeadline):
			m.DeadlineNS = frame.Unzigzag(v)
		case frame.Varint(fieldStatus):
			m.Status = Status(v)
		case frame.Varint(fieldFired):
			m.Fired = frame.Unzigzag(v)
		case frame.Bytes(fieldArgs):
			if m.Args, err = decodeArgs(b); err != nil {
				return m, 0, err
			}
		}
	}
	return m, n, nil
}
