package journal

import (
	"bytes"
	"fmt"
)

// Batch is one sealed group commit read back from a journal.
type Batch struct {
	// Records are the batch's records in append order (seal excluded).
	Records []Record
	// Seal is the batch's seal record.
	Seal Record
	// Root is the chained Merkle root the seal carries.
	Root [HashSize]byte
	// Offset is the batch's first byte offset in the journal.
	Offset int
}

// ScanResult is what Scan recovers from a journal byte stream.
type ScanResult struct {
	// Batches are the sealed batches, in order, up to the first damage.
	Batches []Batch
	// Tail is the valid unsealed records following the last seal — work
	// the batcher had appended but not yet committed when the journal
	// ended (the crash window).
	Tail []Record
	// TailOffset is the byte offset where the tail (or damage) begins.
	TailOffset int
	// Damaged is set when the stream ends in something other than a
	// clean seal boundary or a cleanly truncated tail: a CRC mismatch,
	// an impossible frame, or a seal whose root does not verify.
	Damaged bool
	// Err describes the damage (nil when Damaged is false).
	Err error
}

// SealedRecords flattens the sealed batches' records.
func (s *ScanResult) SealedRecords() []Record {
	var out []Record
	for i := range s.Batches {
		out = append(out, s.Batches[i].Records...)
	}
	return out
}

// Scan parses a journal byte stream into sealed batches and a
// recoverable tail. Scan is the lenient reader replay builds on: it
// never fails, it reports. Each record frame's CRC is checked as it is
// parsed; each seal's Merkle root is recomputed over the batch frames
// and chained to the previous seal. Parsing stops at the first
// inconsistency; everything before the last valid seal is trustworthy,
// everything after is tail or damage.
func Scan(data []byte) *ScanResult {
	res := &ScanResult{}
	var (
		prev       [HashSize]byte
		leaves     [][HashSize]byte
		recs       []Record
		batchStart int
		off        int
	)
	fail := func(err error) *ScanResult {
		res.Damaged = true
		res.Err = err
		res.Tail = nil
		res.TailOffset = batchStart
		return res
	}
	for off < len(data) {
		rec, n, err := decodeFrame(data[off:])
		if err != nil {
			// A frame cut off by end-of-input with no later parseable
			// frame is the crash signature: report the valid tail records
			// and stop. Anything else — a CRC mismatch, or damage with
			// more intact frames beyond it — is tampering or corruption
			// inside the journal body.
			if err == ErrTruncated && !frameAfter(data[off+1:]) {
				res.Tail = recs
				res.TailOffset = batchStart
				return res
			}
			return fail(fmt.Errorf("journal: damage at offset %d: %w", off, err))
		}
		frame := data[off : off+n]
		if rec.Kind == KindSeal {
			if len(rec.Root) != HashSize {
				return fail(fmt.Errorf("journal: seal at offset %d has malformed root", off))
			}
			root := chainRoot(prev, merkleRoot(leaves), uint64(len(res.Batches)))
			if !bytes.Equal(root[:], rec.Root) {
				return fail(fmt.Errorf("journal: seal at offset %d root mismatch (batch %d)", off, len(res.Batches)))
			}
			if int64(len(recs)) != rec.B {
				return fail(fmt.Errorf("journal: seal at offset %d counts %d records, batch has %d", off, rec.B, len(recs)))
			}
			b := Batch{Records: recs, Seal: rec, Offset: batchStart}
			copy(b.Root[:], rec.Root)
			res.Batches = append(res.Batches, b)
			prev = b.Root
			leaves = nil
			recs = nil
			batchStart = off + n
		} else {
			leaves = append(leaves, leafHash(frame))
			recs = append(recs, rec)
		}
		off += n
	}
	res.Tail = recs
	res.TailOffset = batchStart
	return res
}

// frameAfter reports whether any byte offset in data starts a valid
// frame. The CRC makes a frame a strong self-synchronization mark: a
// truncated tail is followed by nothing parseable, while an in-place
// edit mid-journal leaves later intact frames that this scan finds.
func frameAfter(data []byte) bool {
	for off := 0; off < len(data); off++ {
		if _, _, err := decodeFrame(data[off:]); err == nil {
			return true
		}
	}
	return false
}

// VerifyReport summarizes a verification pass.
type VerifyReport struct {
	// Batches is the number of sealed, chain-verified batches.
	Batches int
	// Records is the number of records inside sealed batches.
	Records int
	// Head is the final chained Merkle root.
	Head [HashSize]byte
}

// Verify checks that data is exactly a well-formed sealed journal: every
// record frame's CRC holds, every batch's Merkle root recomputes and
// chains to its predecessor, and the stream ends on a seal boundary.
// Any single-byte edit, any mid-file truncation, and any unsealed tail
// (a crash not yet recovered) fail with a descriptive error. Use Scan
// for crash recovery; Verify is the auditor's strict check.
func Verify(data []byte) (VerifyReport, error) {
	res := Scan(data)
	var rep VerifyReport
	if res.Damaged {
		return rep, res.Err
	}
	if len(res.Tail) > 0 || res.TailOffset != len(data) {
		return rep, fmt.Errorf("journal: %d unsealed tail record(s) after offset %d (crash tail or truncated seal)",
			len(res.Tail), res.TailOffset)
	}
	for i := range res.Batches {
		rep.Records += len(res.Batches[i].Records)
	}
	rep.Batches = len(res.Batches)
	if rep.Batches > 0 {
		rep.Head = res.Batches[rep.Batches-1].Root
	}
	return rep, nil
}

// VerifyAgainst is Verify plus a trust anchor: the final chained root
// must equal head. This closes the one gap chaining alone leaves open —
// silently removing whole sealed batches from the tail — at the cost of
// storing one 32-byte root out of band (Journal.Head after each flush).
func VerifyAgainst(data []byte, head [HashSize]byte) (VerifyReport, error) {
	rep, err := Verify(data)
	if err != nil {
		return rep, err
	}
	if rep.Head != head {
		return rep, fmt.Errorf("journal: head root mismatch: journal ends at %x, trusted head is %x",
			rep.Head[:8], head[:8])
	}
	return rep, nil
}
