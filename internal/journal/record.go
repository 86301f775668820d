package journal

import (
	"fmt"

	"spin/internal/frame"
)

// Kind discriminates journal records. Every dispatcher lifecycle
// transition gets its own kind; KindRaise is the sampled data-plane
// record; KindSeal terminates a batch and carries the chained Merkle
// root.
type Kind uint8

const (
	// KindInstall records a handler installation (including the
	// intrinsic binding created at event definition, marked
	// FlagIntrinsic, and default handlers, marked FlagDefault).
	KindInstall Kind = iota + 1
	// KindUninstall records a handler removal.
	KindUninstall
	// KindSetOrder records a dynamic ordering-constraint change.
	KindSetOrder
	// KindQuarantine records a binding compiled out of its event's plan
	// (fault budget exhausted, or an operator/replay forcing).
	KindQuarantine
	// KindProbation records a quarantined binding re-admitted on
	// probation.
	KindProbation
	// KindRestore records a probation binding restored to full health.
	KindRestore
	// KindModuleQuarantine records a module denied installations with
	// all its bindings compiled out.
	KindModuleQuarantine
	// KindModuleReadmit records a module quarantine lifted.
	KindModuleReadmit
	// KindDegrade records a degradation-level transition (A = from,
	// B = to, Event = level name).
	KindDegrade
	// KindQuota records a runtime change to the installation quotas
	// (A = per-module, B = global; zero means unlimited).
	KindQuota
	// KindRaise is a 1-in-N sampled raise record (A = handlers fired).
	KindRaise
	// KindSeal terminates a batch: A = batch index, B = record count,
	// Root = the chained Merkle root sealing every record since the
	// previous seal.
	KindSeal
	// kindShardMove is reserved: online resharding wrote it as an audit
	// marker (Event, A = source shard, B = destination shard). Journals
	// that carry it still decode and verify; Replay skips it, and the
	// number is never reused.
	kindShardMove
)

// maxKind bounds the decoder's kind validation; appended kinds must extend
// it so older journals (whose kinds are a prefix) stay readable forever.
const maxKind = kindShardMove

//spinvet:pure
func (k Kind) String() string {
	switch k {
	case KindInstall:
		return "install"
	case KindUninstall:
		return "uninstall"
	case KindSetOrder:
		return "set-order"
	case KindQuarantine:
		return "quarantine"
	case KindProbation:
		return "probation"
	case KindRestore:
		return "restore"
	case KindModuleQuarantine:
		return "module-quarantine"
	case KindModuleReadmit:
		return "module-readmit"
	case KindDegrade:
		return "degrade"
	case KindQuota:
		return "quota"
	case KindRaise:
		return "raise"
	case KindSeal:
		return "seal"
	case kindShardMove:
		return "shard-move"
	}
	return "kind(?)"
}

// Binding-shape flags carried on KindInstall records (low byte); the
// ordering-constraint kind occupies bits 8..11.
const (
	FlagAsync     uint32 = 1 << 0
	FlagEphemeral uint32 = 1 << 1
	FlagFilter    uint32 = 1 << 2
	FlagIntrinsic uint32 = 1 << 3
	FlagDefault   uint32 = 1 << 4

	// OrderShift positions the ordering kind inside Flags: 0 unordered,
	// 1 first, 2 last, 3 before, 4 after (dispatch.OrderKind values).
	OrderShift = 8
	orderMask  = 0xF
)

// OrderKind extracts the ordering-constraint kind from install flags.
//
//spinvet:pure
func OrderKind(flags uint32) int { return int(flags>>OrderShift) & orderMask }

// Record is one journal entry. The field set is the superset across
// kinds; the per-kind meaning of the generic fields is documented on the
// Kind constants and in Schema.
type Record struct {
	Kind Kind
	// Seq is the journal-assigned monotonic sequence number.
	Seq uint64
	// ID identifies the binding a lifecycle record concerns; install
	// records define it, later records reference it.
	ID uint64
	// RefID carries the ordering-constraint reference binding for
	// Before/After installs and SetOrder records.
	RefID uint64
	// Event is the event name (or a kind-specific label: the level name
	// on KindDegrade records).
	Event string
	// Module is the installing module's name.
	Module string
	// Handler is the handler procedure's qualified name.
	Handler string
	// Flags carries the binding shape and ordering kind (install,
	// set-order).
	Flags uint32
	// Priority is the binding's degradation priority class.
	Priority int32
	// A and B are kind-specific integers: the EPHEMERAL/async deadline
	// in nanoseconds (install), from/to levels (degrade), per-module and
	// global limits (quota), handlers fired (raise), batch index and
	// record count (seal).
	A, B int64
	// Root is the chained Merkle root on KindSeal records, empty
	// otherwise.
	Root []byte
}

// Field identifiers for the payload encoding (internal/frame): uvarint
// fields are wire 0, strings and bytes wire 1.
const (
	fieldSeq      = 1 // uvarint
	fieldID       = 2 // uvarint
	fieldRefID    = 3 // uvarint
	fieldEvent    = 4 // string
	fieldModule   = 5 // string
	fieldHandler  = 6 // string
	fieldFlags    = 7 // uvarint
	fieldPriority = 8 // uvarint (non-negative by construction)
	fieldA        = 9 // zigzag uvarint
	fieldB        = 10
	fieldRoot     = 11 // bytes
)

// appendFrame encodes rec as one framed record onto dst and returns the
// extended slice. Frame layout:
//
//	kind:1 | payloadLen:uvarint | payload | crc32c:4 (little-endian)
//
// The CRC covers kind, length, and payload, so a single corrupted byte
// anywhere in the frame is detected at decode.
func appendFrame(dst []byte, rec *Record) []byte {
	var payload [192]byte
	p := payload[:0]
	p = frame.AppendField(p, fieldSeq, rec.Seq)
	p = frame.AppendField(p, fieldID, rec.ID)
	p = frame.AppendField(p, fieldRefID, rec.RefID)
	p = frame.AppendString(p, fieldEvent, rec.Event)
	p = frame.AppendString(p, fieldModule, rec.Module)
	p = frame.AppendString(p, fieldHandler, rec.Handler)
	p = frame.AppendField(p, fieldFlags, uint64(rec.Flags))
	p = frame.AppendField(p, fieldPriority, uint64(rec.Priority))
	p = frame.AppendField(p, fieldA, frame.Zigzag(rec.A))
	p = frame.AppendField(p, fieldB, frame.Zigzag(rec.B))
	p = frame.AppendBytes(p, fieldRoot, rec.Root)
	return frame.Append(dst, byte(rec.Kind), p)
}

// Framing errors.
var (
	// ErrTruncated reports a frame cut off by the end of input — the
	// signature of a crash mid-append, recoverable to the sealed prefix.
	ErrTruncated = fmt.Errorf("journal: truncated frame")
	// ErrCorrupt reports a frame whose CRC does not match its bytes — an
	// in-place edit or bit rot.
	ErrCorrupt = fmt.Errorf("journal: frame CRC mismatch")
	// ErrBadKind reports an out-of-range record kind byte.
	ErrBadKind = fmt.Errorf("journal: unknown record kind")
)

// decodeFrame decodes one frame from the front of buf, returning the
// record and the number of bytes consumed. Unknown payload fields are
// skipped, so newer writers stay readable.
func decodeFrame(buf []byte) (Record, int, error) {
	var rec Record
	if len(buf) > 0 && (buf[0] == 0 || Kind(buf[0]) > maxKind) {
		return rec, 0, fmt.Errorf("%w: %d", ErrBadKind, buf[0])
	}
	kind, p, n, err := frame.Decode(buf)
	if err == frame.ErrTruncated {
		return rec, 0, ErrTruncated
	} else if err != nil {
		return rec, 0, ErrCorrupt
	}
	rec.Kind = Kind(kind)
	for len(p) > 0 {
		key, v, b, rest, ok := frame.Next(p)
		if !ok {
			return rec, 0, ErrCorrupt
		}
		p = rest
		switch key {
		case frame.Varint(fieldSeq):
			rec.Seq = v
		case frame.Varint(fieldID):
			rec.ID = v
		case frame.Varint(fieldRefID):
			rec.RefID = v
		case frame.Bytes(fieldEvent):
			rec.Event = string(b)
		case frame.Bytes(fieldModule):
			rec.Module = string(b)
		case frame.Bytes(fieldHandler):
			rec.Handler = string(b)
		case frame.Varint(fieldFlags):
			rec.Flags = uint32(v)
		case frame.Varint(fieldPriority):
			rec.Priority = int32(v)
		case frame.Varint(fieldA):
			rec.A = frame.Unzigzag(v)
		case frame.Varint(fieldB):
			rec.B = frame.Unzigzag(v)
		case frame.Bytes(fieldRoot):
			rec.Root = append([]byte(nil), b...)
		}
	}
	return rec, n, nil
}
