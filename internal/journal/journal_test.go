package journal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// fullRecord exercises every payload field at once.
func fullRecord() Record {
	return Record{
		Kind:     KindInstall,
		Seq:      12345,
		ID:       42,
		RefID:    7,
		Event:    "Net.PacketArrived",
		Module:   "TCP",
		Handler:  "TCP.Input",
		Flags:    FlagAsync | FlagFilter | 3<<OrderShift,
		Priority: 9,
		A:        -1500000000, // negative exercises zigzag
		B:        1 << 40,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []Record{
		fullRecord(),
		{Kind: KindRaise, Event: "E", A: 3},
		{Kind: KindQuota},                        // all-zero payload
		{Kind: KindSeal, Root: make([]byte, 32)}, // zero root still carried
	}
	for _, want := range cases {
		frame := appendFrame(nil, &want)
		got, n, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("DecodeFrame(%s): %v", want.Kind, err)
		}
		if n != len(frame) {
			t.Fatalf("DecodeFrame(%s) consumed %d of %d bytes", want.Kind, n, len(frame))
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || got.ID != want.ID ||
			got.RefID != want.RefID || got.Event != want.Event ||
			got.Module != want.Module || got.Handler != want.Handler ||
			got.Flags != want.Flags || got.Priority != want.Priority ||
			got.A != want.A || got.B != want.B || !bytes.Equal(got.Root, want.Root) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestFrameGolden pins the encoded bytes of one record with every field
// set: testdata/record.golden was written by the encoder as it stood before
// the framing moved to internal/frame, and journals on disk outlive the
// code that wrote them.
func TestFrameGolden(t *testing.T) {
	rec := Record{Kind: KindInstall, Seq: 300, ID: 7, RefID: 3,
		Event: "Udp.PacketArrived", Module: "Monitor", Handler: "Monitor.Privileged",
		Flags: FlagEphemeral | 3<<OrderShift, Priority: 2,
		A: -1500000000, B: 1 << 40, Root: []byte{0xde, 0xad, 0xbe, 0xef}}
	golden, err := os.ReadFile("testdata/record.golden")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(golden)))
	if err != nil {
		t.Fatal(err)
	}
	if got := appendFrame(nil, &rec); !bytes.Equal(got, want) {
		t.Fatalf("encoded record moved:\n got %x\nwant %x", got, want)
	}
	got, n, err := decodeFrame(want)
	if err != nil || n != len(want) {
		t.Fatalf("DecodeFrame(golden) = %d bytes, %v; want %d, nil", n, err, len(want))
	}
	if got.Seq != rec.Seq || got.Handler != rec.Handler || got.A != rec.A || !bytes.Equal(got.Root, rec.Root) {
		t.Fatalf("golden decodes to %+v, want %+v", got, rec)
	}
}

// The group-commit worker encodes every record through appendFrame into a
// reused batch buffer; its stack payload buffer must not escape into the
// shared framing helpers.
func TestAppendFrameDoesNotAllocate(t *testing.T) {
	rec := fullRecord()
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = appendFrame(buf[:0], &rec) }); n != 0 {
		t.Fatalf("AppendFrame allocates %v times per record, want 0", n)
	}
}

// Every single-byte flip anywhere in a frame must be detected: the CRC
// covers kind, length, and payload.
func TestFrameDetectsEveryByteFlip(t *testing.T) {
	rec := fullRecord()
	frame := appendFrame(nil, &rec)
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x5a
		if _, _, err := decodeFrame(mut); err == nil {
			t.Fatalf("flip at byte %d decoded cleanly", i)
		}
	}
}

func TestFrameTruncationDetected(t *testing.T) {
	rec := fullRecord()
	frame := appendFrame(nil, &rec)
	for n := 0; n < len(frame); n++ {
		if _, _, err := decodeFrame(frame[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", n, len(frame))
		}
	}
}

// buildJournal runs records through a real Journal over a MemSink with
// size-triggered seals only, returning the sealed bytes and the sink.
func buildJournal(t *testing.T, batchRecords int, recs []Record) ([]byte, *MemSink) {
	t.Helper()
	sink := NewMemSink()
	j := New(Config{Sink: sink, BatchRecords: batchRecords, FlushInterval: -1})
	for _, r := range recs {
		j.Record(r)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return sink.Bytes(), sink
}

func nRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Kind: KindInstall, ID: uint64(i + 1), Event: "E", Handler: "H"}
	}
	return recs
}

func TestGroupCommitRecordCountTrigger(t *testing.T) {
	data, sink := buildJournal(t, 4, nRecords(8))
	if got := sink.Seals(); got != 2 {
		t.Fatalf("8 records at batch=4 sealed %d times, want 2", got)
	}
	res := Scan(data)
	if res.Damaged || len(res.Batches) != 2 || len(res.Tail) != 0 {
		t.Fatalf("scan: damaged=%v batches=%d tail=%d", res.Damaged, len(res.Batches), len(res.Tail))
	}
	for i, b := range res.Batches {
		if len(b.Records) != 4 {
			t.Fatalf("batch %d has %d records, want 4", i, len(b.Records))
		}
	}
}

func TestGroupCommitByteSizeTrigger(t *testing.T) {
	sink := NewMemSink()
	// Each frame here is ~15 bytes; a 64-byte budget seals every few
	// records even though the record-count trigger is unreachable.
	j := New(Config{Sink: sink, BatchRecords: 1 << 20, BatchBytes: 64, FlushInterval: -1})
	for _, r := range nRecords(32) {
		j.Record(r)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := sink.Seals(); got < 4 {
		t.Fatalf("byte trigger sealed only %d times", got)
	}
	if _, err := Verify(sink.Bytes()); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestGroupCommitIntervalTrigger(t *testing.T) {
	sink := NewMemSink()
	j := New(Config{Sink: sink, FlushInterval: 2 * time.Millisecond})
	defer j.Close()
	j.Record(Record{Kind: KindQuota, A: 1})
	deadline := time.Now().Add(2 * time.Second)
	for sink.Seals() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval trigger never sealed the pending record")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFlushSealsPending(t *testing.T) {
	sink := NewMemSink()
	j := New(Config{Sink: sink, FlushInterval: -1})
	defer j.Close()
	j.Record(Record{Kind: KindQuota, A: 1})
	j.Flush()
	if sink.Seals() != 1 {
		t.Fatalf("flush sealed %d batches, want 1", sink.Seals())
	}
	// A flush with nothing pending must not seal an empty batch.
	j.Flush()
	if sink.Seals() != 1 {
		t.Fatalf("empty flush sealed a batch (%d seals)", sink.Seals())
	}
}

func TestVerifyDetectsEveryByteFlip(t *testing.T) {
	data, _ := buildJournal(t, 4, nRecords(11))
	if _, err := Verify(data); err != nil {
		t.Fatalf("Verify of pristine journal: %v", err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if _, err := Verify(mut); err == nil {
			t.Fatalf("Verify accepted a flipped byte at offset %d", i)
		}
	}
}

func TestVerifyRejectsEveryTruncation(t *testing.T) {
	data, sink := buildJournal(t, 4, nRecords(8))
	boundary := map[int]bool{0: true} // the empty journal is trivially valid
	for _, off := range sink.SealOffsets() {
		// A cut at exactly a seal boundary leaves a well-formed shorter
		// journal — the one truncation chaining alone cannot fault. That
		// case is the head anchor's job (see
		// TestVerifyAgainstDetectsWholeBatchTruncation).
		boundary[off] = true
	}
	for n := 0; n < len(data); n++ {
		if boundary[n] {
			continue
		}
		if _, err := Verify(data[:n]); err == nil {
			t.Fatalf("Verify accepted truncation to %d/%d bytes", n, len(data))
		}
	}
}

func TestVerifyAgainstDetectsWholeBatchTruncation(t *testing.T) {
	data, sink := buildJournal(t, 4, nRecords(8))
	offsets := sink.SealOffsets()
	if len(offsets) != 2 {
		t.Fatalf("want 2 seal offsets, got %v", offsets)
	}
	var head [HashSize]byte
	rep, err := Verify(data)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	head = rep.Head
	// Dropping the trailing sealed batch leaves a journal Verify alone
	// cannot fault — chaining only binds each batch to its past. The
	// out-of-band head anchor closes that gap.
	pruned := data[:offsets[0]]
	if _, err := Verify(pruned); err != nil {
		t.Fatalf("Verify of pruned journal should pass (prefix is intact): %v", err)
	}
	if _, err := VerifyAgainst(pruned, head); err == nil {
		t.Fatal("VerifyAgainst accepted a journal missing its last sealed batch")
	}
	if _, err := VerifyAgainst(data, head); err != nil {
		t.Fatalf("VerifyAgainst of full journal: %v", err)
	}
}

func TestHeadMatchesFinalSeal(t *testing.T) {
	sink := NewMemSink()
	j := New(Config{Sink: sink, BatchRecords: 4, FlushInterval: -1})
	for _, r := range nRecords(8) {
		j.Record(r)
	}
	j.Flush()
	head := j.Head()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res := Scan(sink.Bytes())
	if len(res.Batches) == 0 {
		t.Fatal("no sealed batches")
	}
	if res.Batches[len(res.Batches)-1].Root != head {
		t.Fatal("Journal.Head does not match the final seal's chained root")
	}
}

// The crash-consistency sweep: a journal that ends in an unsealed tail,
// cut at every byte boundary, must always scan back to exactly the
// sealed prefix without panicking — the tail is reported, never trusted.
func TestCrashTruncationSweep(t *testing.T) {
	sealed, _ := buildJournal(t, 4, nRecords(4)) // one sealed batch
	// Append an unsealed tail the way a crashed batcher would have left
	// it: frames written through the sink with no seal record.
	data := append([]byte(nil), sealed...)
	for i := 0; i < 3; i++ {
		rec := Record{Kind: KindUninstall, Seq: uint64(100 + i), ID: uint64(i + 1), Event: "E"}
		data = appendFrame(data, &rec)
	}
	for cut := len(sealed); cut <= len(data); cut++ {
		res := Scan(data[:cut])
		if res.Damaged {
			t.Fatalf("cut at %d (sealed prefix %d): scan reported damage: %v", cut, len(sealed), res.Err)
		}
		if len(res.Batches) != 1 || len(res.Batches[0].Records) != 4 {
			t.Fatalf("cut at %d: recovered %d batches, want the 1 sealed batch intact", cut, len(res.Batches))
		}
		if len(res.Tail) > 3 {
			t.Fatalf("cut at %d: impossible tail of %d records", cut, len(res.Tail))
		}
		// Replay of the cut journal must reproduce exactly the sealed
		// prefix.
		st := NewState()
		sum, err := Replay(data[:cut], st)
		if err != nil {
			t.Fatalf("cut at %d: replay: %v", cut, err)
		}
		if sum.Records != 4 || sum.Batches != 1 {
			t.Fatalf("cut at %d: replayed %d records in %d batches, want 4 in 1", cut, sum.Records, sum.Batches)
		}
		if got := len(st.Bindings("E")); got != 4 {
			t.Fatalf("cut at %d: state has %d bindings, want 4 (tail uninstalls must not apply)", cut, got)
		}
	}
	// Cutting inside the sealed region must never yield MORE state: the
	// scan either degrades to a shorter sealed prefix (here: none) or
	// reports damage. It must not panic.
	for cut := 0; cut < len(sealed); cut++ {
		res := Scan(data[:cut])
		if len(res.Batches) != 0 {
			t.Fatalf("cut at %d inside the only batch produced %d sealed batches", cut, len(res.Batches))
		}
	}
}

// An in-place edit mid-journal is distinguishable from a crash: intact
// frames follow the damage, so Scan reports Damaged instead of a tail.
func TestScanDistinguishesTamperFromCrash(t *testing.T) {
	data, sink := buildJournal(t, 4, nRecords(8))
	off := sink.SealOffsets()[0]
	mut := append([]byte(nil), data...)
	mut[off+2] ^= 0xff // inside the second batch's first record
	res := Scan(mut)
	if !res.Damaged {
		t.Fatal("mid-journal edit scanned as a clean crash tail")
	}
	if len(res.Batches) != 1 {
		t.Fatalf("sealed prefix before the damage should survive: got %d batches", len(res.Batches))
	}
}

func TestFileSinkRoundTrip(t *testing.T) {
	path := t.TempDir() + "/j.sj"
	sink, err := OpenFileSink(path)
	if err != nil {
		t.Fatalf("OpenFileSink: %v", err)
	}
	j := New(Config{Sink: sink, BatchRecords: 4, FlushInterval: -1})
	for _, r := range nRecords(8) {
		j.Record(r)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	rep, err := Verify(data)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Records != 8 {
		t.Fatalf("file journal carries %d records, want 8", rep.Records)
	}
}

func TestReplayStateReconstructs(t *testing.T) {
	recs := []Record{
		{Kind: KindInstall, ID: 1, Event: "E", Module: "M", Handler: "M.A"},
		{Kind: KindInstall, ID: 2, Event: "E", Module: "M", Handler: "M.B", Flags: 1 << OrderShift},           // first
		{Kind: KindInstall, ID: 3, Event: "E", Module: "N", Handler: "N.C", RefID: 1, Flags: 3 << OrderShift}, // before #1
		{Kind: KindQuarantine, ID: 3, Event: "E"},
		{Kind: KindQuota, A: 8, B: 64},
		{Kind: KindDegrade, Event: "shed-optional", A: 0, B: 1},
		{Kind: KindModuleQuarantine, Module: "N"},
		{Kind: KindRaise, Event: "E", A: 2},
	}
	data, _ := buildJournal(t, len(recs), recs)
	st := NewState()
	if _, err := Replay(data, st); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got, want := st.Bindings("E"), []uint64{2, 3, 1}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
	if _, q, ok := st.Binding(3); !ok || !q {
		t.Fatalf("binding 3 quarantined=%v ok=%v, want quarantined", q, ok)
	}
	if pm, g := st.Quotas(); pm != 8 || g != 64 {
		t.Fatalf("quotas %d/%d, want 8/64", pm, g)
	}
	if st.Level() != 1 {
		t.Fatalf("level %d, want 1", st.Level())
	}
	if mods := st.QuarantinedModules(); len(mods) != 1 || mods[0] != "N" {
		t.Fatalf("quarantined modules %v, want [N]", mods)
	}
	if st.Raises() != 1 {
		t.Fatalf("raises %d, want 1", st.Raises())
	}
}

func TestSampleEveryRoundsToPowerOfTwo(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024},
	} {
		j := New(Config{Sink: NewMemSink(), SampleRaises: c.in, FlushInterval: -1})
		if got := j.SampleEvery(); got != c.want {
			t.Errorf("SampleRaises=%d: SampleEvery=%d, want %d", c.in, got, c.want)
		}
		j.Close()
	}
}

func TestSampleCountOffNeverSamples(t *testing.T) {
	j := New(Config{Sink: NewMemSink(), FlushInterval: -1})
	defer j.Close()
	for _, n := range []uint64{1, 2, 1024, 1 << 40} {
		if j.SampleCount(n) || j.SampleCountN(n, n) != 0 {
			t.Fatalf("sampling-off journal sampled at n=%d", n)
		}
	}
	on := New(Config{Sink: NewMemSink(), SampleRaises: 4, FlushInterval: -1})
	defer on.Close()
	hits := 0
	for n := uint64(1); n <= 64; n++ {
		if on.SampleCount(n) {
			hits++
		}
	}
	if hits != 16 {
		t.Fatalf("1-in-4 sampling hit %d of 64, want 16", hits)
	}
	// A counter advanced in uneven steps wins exactly the draws the
	// unit steps it spans would have won.
	hits = 0
	n := uint64(0)
	for _, m := range []uint64{1, 2, 3, 5, 8, 13, 32} {
		n += m
		hits += on.SampleCountN(n, m)
	}
	if n != 64 || hits != 16 {
		t.Fatalf("1-in-4 batched sampling hit %d of %d, want 16 of 64", hits, n)
	}
}

func TestSchemaDocCoversAllKinds(t *testing.T) {
	doc := SchemaDoc()
	for k := KindInstall; k <= KindSeal; k++ {
		if !strings.Contains(doc, k.String()) {
			t.Errorf("SchemaDoc does not mention kind %q", k)
		}
	}
}

func TestRecordAfterCloseDropped(t *testing.T) {
	sink := NewMemSink()
	j := New(Config{Sink: sink, FlushInterval: -1})
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j.Record(Record{Kind: KindQuota, A: 1}) // must not block or panic
	j.SampleHit("E", 1)
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if len(sink.Bytes()) != 0 {
		t.Fatal("records accepted after Close")
	}
}

func TestDecodeRejectsBadKind(t *testing.T) {
	rec := Record{Kind: KindQuota, A: 1}
	frame := appendFrame(nil, &rec)
	frame[0] = byte(KindSeal) + 7
	if _, _, err := decodeFrame(frame); !errors.Is(err, ErrBadKind) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad kind byte decoded with err=%v", err)
	}
}

// QuarantinedModules returns the reconstructed module-quarantine set.
func (s *State) QuarantinedModules() []string {
	mods := make([]string, 0, len(s.qModules))
	for m := range s.qModules {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	return mods
}

// Seals returns how many group commits have sealed.
func (s *MemSink) Seals() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seals
}

// SealOffsets returns the durable byte lengths at each seal.
func (s *MemSink) SealOffsets() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.sealOffsets...)
}
