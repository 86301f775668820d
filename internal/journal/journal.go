// Package journal is the dispatcher's durable, tamper-evident lifecycle
// journal. The paper treats the binding set as ephemeral: every install,
// quarantine, and quota decision lives only in dispatcher memory, so a
// restart forgets who bound what, under which attributes, and why an
// extension was locked out. This package makes that history an
// append-only record: lifecycle transitions (install, uninstall,
// quarantine, probation, readmission, degradation, quota changes) plus
// 1-in-N sampled raises are collected off the hot path through a bounded
// channel — the same shed-don't-block shape internal/admit gives
// asynchronous work — encoded into a compact self-describing binary
// framing with a CRC per record, flushed by a size- or interval-
// triggered group commit, and sealed with a per-batch Merkle root
// chained to the previous batch. Verify detects any in-place edit or
// mid-file truncation; Replay re-drives the sealed records through the
// dispatcher's install path to reconstruct the full binding, quarantine,
// quota, and degradation state at boot.
//
// The package is mechanism-free in the same sense internal/admit and
// internal/fault are: it knows nothing about events, bindings, or plans.
// The dispatcher compiles the journal reference into each event's
// dispatch plan the way tracers and admission queues are compiled in, so
// a journal-off dispatcher executes plans with no journal field set and
// the raise path is untouched (TestJournalOffZeroAlloc enforces the
// measurable half of that contract).
package journal

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for the group-commit batcher.
const (
	// DefaultBatchRecords seals a batch when this many records are
	// pending.
	DefaultBatchRecords = 64
	// DefaultBatchBytes seals a batch when the pending encoded bytes
	// reach this size.
	DefaultBatchBytes = 32 << 10
	// DefaultFlushInterval seals a non-empty batch at least this often,
	// bounding how long a record stays unsealed (the durability window).
	DefaultFlushInterval = 10 * time.Millisecond
	// DefaultQueueDepth bounds the ingress channel between emitters and
	// the batcher worker.
	DefaultQueueDepth = 1024
)

// sampleOff marks raise sampling disabled; the hot path sees one
// comparison and returns.
const sampleOff = ^uint64(0)

// Config configures a Journal.
type Config struct {
	// Sink receives the encoded journal. Required.
	Sink Sink
	// SampleRaises records 1 in SampleRaises raises (rounded up to a
	// power of two so the hot-path draw is a mask). Zero disables raise
	// records — the journal then carries lifecycle records only. One
	// records every raise.
	SampleRaises int
	// BatchRecords seals a batch at this many pending records; zero
	// selects DefaultBatchRecords.
	BatchRecords int
	// BatchBytes seals a batch at this many pending encoded bytes; zero
	// selects DefaultBatchBytes.
	BatchBytes int
	// FlushInterval seals a non-empty batch at least this often; zero
	// selects DefaultFlushInterval, negative disables the timer (size
	// triggers and Close only — for deterministic tests).
	FlushInterval time.Duration
	// QueueDepth bounds the ingress channel; zero selects
	// DefaultQueueDepth.
	QueueDepth int
}

// Stats is a snapshot of the journal's accounting.
type Stats struct {
	// Submitted counts records accepted into the ingress queue.
	Submitted int64
	// DroppedRaises counts sampled raise records shed because the
	// ingress queue was full. Lifecycle records are never shed; their
	// emitters block (the control plane can afford it; the worker never
	// takes dispatcher locks, so the wait is bounded by drain rate).
	DroppedRaises int64
	// Batches counts sealed group commits.
	Batches int64
	// Records counts records sealed into batches.
	Records int64
	// Bytes counts encoded bytes handed to the sink, seals included.
	Bytes int64
}

// Journal collects lifecycle and sampled raise records, group-commits
// them into sealed batches, and tracks the Merkle chain head.
type Journal struct {
	sink Sink
	cfg  Config

	sampleMask uint64

	ch      chan Record
	flushCh chan chan struct{}
	done    chan struct{}
	closed  atomic.Bool
	wg      sync.WaitGroup

	submitted atomic.Int64
	dropped   atomic.Int64

	mu      sync.Mutex
	head    [HashSize]byte
	batches int64
	records int64
	bytes   int64
}

// New starts a journal over cfg.Sink. The caller owns the sink's
// lifetime beyond Close.
func New(cfg Config) *Journal {
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = DefaultBatchRecords
	}
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = DefaultBatchBytes
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = DefaultFlushInterval
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	j := &Journal{
		sink:       cfg.Sink,
		cfg:        cfg,
		sampleMask: sampleOff,
		ch:         make(chan Record, cfg.QueueDepth),
		flushCh:    make(chan chan struct{}),
		done:       make(chan struct{}),
	}
	if cfg.SampleRaises > 0 {
		// Round up to a power of two so the sampling draw reduces to a
		// mask, the same trick the admission controller's load sampler
		// uses.
		n := uint64(1)
		for n < uint64(cfg.SampleRaises) {
			n <<= 1
		}
		j.sampleMask = n - 1
	}
	j.wg.Add(1)
	go j.run()
	return j
}

// SampleEvery returns the effective 1-in-N raise sampling rate (0 when
// raise records are disabled).
func (j *Journal) SampleEvery() int {
	if j.sampleMask == sampleOff {
		return 0
	}
	return int(j.sampleMask + 1)
}

// Record submits one lifecycle record. It blocks if the ingress queue is
// full: lifecycle transitions are control-plane rare and must not be
// lost, and the batcher worker never takes dispatcher locks, so the wait
// is bounded by drain rate. Records submitted after Close are dropped.
func (j *Journal) Record(rec Record) {
	if j.closed.Load() {
		return
	}
	j.submitted.Add(1)
	select {
	case j.ch <- rec:
	case <-j.done:
	}
}

// SampleCount is the dispatcher's zero-extra-cost sampling draw: n is a
// count the caller already advances once per raise (the raise count of
// the raise's frame cell, which the claim or add that counts the raise
// returns), so the draw reuses an atomic RMW that is paid regardless of
// journaling and reduces to a single mask test here. n must be
// nonzero — which a post-increment value always is — because the
// sampling-off encoding relies on it: an all-ones mask can only see
// n&mask == 0 for n == 0. The ≤5% raise-overhead budget at 1/1024
// sampling does not survive a second LOCK RMW per raise, let alone a
// call: this compiles to two instructions at the raise tail.
func (j *Journal) SampleCount(n uint64) bool {
	return n&j.sampleMask == 0
}

// SampleCountN is SampleCount for a batched raise, which advances the
// caller's counter by m in one step to n: it returns how many of the m
// raises won the draw — the multiples of the sampling interval in
// (n-m, n] — so a batch samples exactly as a loop of m single raises on
// the same shard would.
func (j *Journal) SampleCountN(n, m uint64) int {
	if j.sampleMask == sampleOff {
		return 0
	}
	shift := bits.Len64(j.sampleMask) // the interval is mask+1, a power of two
	return int(n>>shift - (n-m)>>shift)
}

// SampleHit enqueues the sampled raise record a winning SampleCount draw
// earned, shedding it if the ingress queue is full.
func (j *Journal) SampleHit(event string, fired int) {
	if j.closed.Load() {
		return
	}
	select {
	case j.ch <- Record{Kind: KindRaise, Event: event, A: int64(fired)}:
		j.submitted.Add(1)
	default:
		j.dropped.Add(1)
	}
}

// Flush forces a group commit of everything submitted so far and waits
// for it to seal. A flush with nothing pending still returns promptly
// without sealing an empty batch.
func (j *Journal) Flush() {
	if j.closed.Load() {
		return
	}
	ack := make(chan struct{})
	select {
	case j.flushCh <- ack:
		<-ack
	case <-j.done:
	}
}

// Close drains the ingress queue, seals a final batch, and closes the
// sink. Safe to call once.
func (j *Journal) Close() error {
	if j.closed.Swap(true) {
		return nil
	}
	close(j.done)
	j.wg.Wait()
	return j.sink.Close()
}

// Head returns the current chained Merkle root — the trust anchor to
// store out of band if whole-batch tail truncation must be detectable
// (see VerifyAgainst).
func (j *Journal) Head() [HashSize]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.head
}

// Stats returns a snapshot of the journal's accounting.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Submitted:     j.submitted.Load(),
		DroppedRaises: j.dropped.Load(),
		Batches:       j.batches,
		Records:       j.records,
		Bytes:         j.bytes,
	}
}

// run is the batcher worker: it drains the bounded channel, encodes
// records as they arrive (appending each frame to the sink immediately,
// so a crash leaves a recoverable unsealed tail rather than losing the
// batch), and seals on any of the three group-commit triggers — pending
// record count, pending byte size, or the flush interval.
func (j *Journal) run() {
	defer j.wg.Done()

	var (
		seq     uint64
		pending [][HashSize]byte // leaf hashes since the last seal
		pbytes  int
		frame   []byte
		timer   *time.Timer
		timerC  <-chan time.Time
	)
	if j.cfg.FlushInterval > 0 {
		timer = time.NewTimer(j.cfg.FlushInterval)
		timer.Stop()
		defer timer.Stop()
		timerC = timer.C
	}

	armed := false
	arm := func() {
		if timer != nil && !armed {
			timer.Reset(j.cfg.FlushInterval)
			armed = true
		}
	}
	disarm := func() {
		if timer != nil && armed {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			armed = false
		}
	}

	appendRec := func(rec Record) {
		seq++
		rec.Seq = seq
		frame = appendFrame(frame[:0], &rec)
		if err := j.sink.Append(frame); err != nil {
			return // sink failure: the record is lost; seal will surface it
		}
		pending = append(pending, leafHash(frame))
		pbytes += len(frame)
		j.mu.Lock()
		j.bytes += int64(len(frame))
		j.mu.Unlock()
		if len(pending) == 1 {
			arm()
		}
	}

	seal := func() {
		if len(pending) == 0 {
			return
		}
		disarm()
		j.mu.Lock()
		prev := j.head
		batchIdx := uint64(j.batches)
		j.mu.Unlock()
		root := chainRoot(prev, merkleRoot(pending), batchIdx)
		seq++
		sealRec := Record{
			Kind: KindSeal,
			Seq:  seq,
			A:    int64(batchIdx),
			B:    int64(len(pending)),
			Root: root[:],
		}
		frame = appendFrame(frame[:0], &sealRec)
		if err := j.sink.Append(frame); err == nil {
			_ = j.sink.Seal()
		}
		j.mu.Lock()
		j.head = root
		j.batches++
		j.records += int64(len(pending))
		j.bytes += int64(len(frame))
		j.mu.Unlock()
		pending = pending[:0]
		pbytes = 0
	}

	for {
		select {
		case rec := <-j.ch:
			appendRec(rec)
			if len(pending) >= j.cfg.BatchRecords || pbytes >= j.cfg.BatchBytes {
				seal()
			}
		case <-timerC:
			armed = false
			seal()
		case ack := <-j.flushCh:
			// Drain whatever was already queued before acknowledging, so
			// Flush callers see everything they submitted sealed. The size
			// triggers still apply — a drain that outruns the scheduler
			// must seal the same batches an incremental worker would.
		drain:
			for {
				select {
				case rec := <-j.ch:
					appendRec(rec)
					if len(pending) >= j.cfg.BatchRecords || pbytes >= j.cfg.BatchBytes {
						seal()
					}
				default:
					break drain
				}
			}
			seal()
			close(ack)
		case <-j.done:
			for {
				select {
				case rec := <-j.ch:
					appendRec(rec)
					if len(pending) >= j.cfg.BatchRecords || pbytes >= j.cfg.BatchBytes {
						seal()
					}
				default:
					seal()
					return
				}
			}
		}
	}
}
