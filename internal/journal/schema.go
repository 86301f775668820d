package journal

import (
	"fmt"
	"strings"
)

// KindDoc documents one record kind for the generated schema docs.
type KindDoc struct {
	Kind   Kind
	Name   string
	Fields string // per-kind meaning of the generic fields
}

// SchemaKinds enumerates every record kind with its field semantics, in
// wire order. `spin doc -schema journal` renders this table so the on-disk format is
// documented from the same source of truth the encoder uses.
//
//spinvet:pure
func SchemaKinds() []KindDoc {
	return []KindDoc{
		{KindInstall, KindInstall.String(), "ID=binding, RefID=order ref, Event, Module, Handler, Flags=shape|order<<8, Priority, A=deadline ns"},
		{KindUninstall, KindUninstall.String(), "ID=binding, Event"},
		{KindSetOrder, KindSetOrder.String(), "ID=binding, RefID=order ref, Flags=order<<8"},
		{KindQuarantine, KindQuarantine.String(), "ID=binding, Event, Handler, A=quarantine level"},
		{KindProbation, KindProbation.String(), "ID=binding, Event, Handler"},
		{KindRestore, KindRestore.String(), "ID=binding, Event, Handler"},
		{KindModuleQuarantine, KindModuleQuarantine.String(), "Module, A=quarantine level"},
		{KindModuleReadmit, KindModuleReadmit.String(), "Module"},
		{KindDegrade, KindDegrade.String(), "Event=level name, A=from, B=to"},
		{KindQuota, KindQuota.String(), "A=per-module limit, B=global limit (0 = unlimited)"},
		{KindRaise, KindRaise.String(), "Event, A=handlers fired (1-in-N sampled)"},
		{KindSeal, KindSeal.String(), "A=batch index, B=record count, Root=chained Merkle root"},
	}
}

// SchemaDoc renders the journal's on-disk format: the frame layout, the
// self-describing field encoding, the seal chaining, and the per-kind
// field semantics. It is generated from the same tables the encoder
// uses, so it cannot drift from the wire format.
func SchemaDoc() string {
	var sb strings.Builder
	sb.WriteString(`journal record schema (spin-journal/v1)

frame    kind:1 | payloadLen:uvarint | payload | crc32c:4 (LE)
         the CRC covers kind, length, and payload
payload  sequence of fields: key:uvarint (fieldID<<1 | wire), then
         wire 0: value uvarint        wire 1: len uvarint + bytes
         zero/empty fields are omitted; unknown fields are skipped
fields   1 seq  2 id  3 refid  4 event*  5 module*  6 handler*
         7 flags  8 priority  9 a(zigzag)  10 b(zigzag)  11 root*
         (* = wire 1)
flags    bit0 async, bit1 ephemeral, bit2 filter, bit3 intrinsic,
         bit4 default; bits 8..11 ordering kind (0 unordered, 1 first,
         2 last, 3 before, 4 after)
sealing  each batch ends with a seal record carrying
         chain(i) = sha256(0x02 | chain(i-1) | merkle(frames) | i)
         over sha256(0x00|frame) leaves and sha256(0x01|l|r) nodes;
         chain(-1) is 32 zero bytes. The sink fsyncs at each seal.
verify   journal.Verify rejects any in-place edit, mid-file truncation,
         or unsealed tail; journal.Scan recovers the sealed prefix
         after a crash; journal.VerifyAgainst pins the head root.

record kinds:
`)
	for _, k := range SchemaKinds() {
		fmt.Fprintf(&sb, "  %2d %-18s %s\n", k.Kind, k.Name, k.Fields)
	}
	sb.WriteString(`
pure API (//spinvet:pure, safe inside FUNCTIONAL guards):
  Kind.String, OrderKind, SchemaKinds
`)
	return sb.String()
}
