// Package trace is the per-raise observability layer of the SPIN event
// dispatcher reproduction. The paper evaluates the dispatcher by measuring
// where cycles go inside a raise — guard evaluation, handler invocation,
// result merging (§3, Table 1) — but only in aggregate. This package
// reconstructs the causal structure of *one* raise: a sampled raise emits a
// span for each guard evaluation (with outcome), each handler invocation
// (sync, async, ephemeral, filter or default, with its virtual-time cost),
// and each result-merge step, plus control-plane spans for quota and
// authorization rejections.
//
// Recording is built for the dispatcher's concurrency model: spans land in
// a fixed-size ring of pre-allocated slots, written lock-free (an atomic
// ticket claims a slot; every slot word is atomic, so concurrent raises on
// many cores never serialize and the race detector stays quiet). Readers
// (Snapshot, the exporters) validate each slot's sequence word before and
// after copying and discard torn reads; under wrap pressure a span is lost,
// never corrupted into undefined behavior. The ring is pre-allocated at
// tracer construction, so recording a span allocates nothing.
//
// Tracing is compiled *into* the dispatch plan by internal/codegen — an
// event with tracing disabled executes a plan with no trace steps at all,
// so the PR 1 zero-allocation fast path is untouched when tracing is off
// (enforced by TestTracingOffZeroAlloc, not by promise). See DESIGN.md
// decision 11.
package trace

import (
	"sync"
	"sync/atomic"

	"spin/internal/vtime"
)

// Kind discriminates span records.
type Kind uint8

const (
	// KindRaiseBegin opens a raise: one per sampled raise.
	KindRaiseBegin Kind = iota + 1
	// KindGuard is one guard evaluation; Pass carries the outcome.
	KindGuard
	// KindHandler is one handler invocation (see Mode).
	KindHandler
	// KindMerge is one result-handler application.
	KindMerge
	// KindRaiseEnd closes a raise; Detail carries the fired count.
	KindRaiseEnd
	// KindReject is a control-plane rejection (quota or authorizer).
	KindReject
	// KindFault is a captured handler/guard fault (panic, deadline
	// overrun); Detail carries the fault class.
	KindFault
	// KindQuarantine marks a binding compiled out of its event's dispatch
	// plan; Detail carries the quarantine generation.
	KindQuarantine
	// KindProbation marks a quarantined binding re-admitted under a
	// tightened budget, or restored to full health (Pass set).
	KindProbation
	// KindShed marks an asynchronous submission shed by an admission
	// queue; Detail packs the queue depth and the policy mode.
	KindShed
	// KindDegrade marks a degradation-level transition; Detail packs the
	// from and to levels, Pass marks an escalation.
	KindDegrade
	// KindBreaker marks a remote peer's circuit-breaker transition; Detail
	// packs the from and to states, Pass marks a trip (any transition into
	// the open state).
	KindBreaker
)

func (k Kind) String() string {
	switch k {
	case KindRaiseBegin:
		return "raise-begin"
	case KindGuard:
		return "guard"
	case KindHandler:
		return "handler"
	case KindMerge:
		return "merge"
	case KindRaiseEnd:
		return "raise-end"
	case KindReject:
		return "reject"
	case KindFault:
		return "fault"
	case KindQuarantine:
		return "quarantine"
	case KindProbation:
		return "probation"
	case KindShed:
		return "shed"
	case KindDegrade:
		return "degrade"
	case KindBreaker:
		return "breaker"
	}
	return "kind(?)"
}

// Mode is a handler invocation's execution mode.
type Mode uint8

const (
	// ModeSync is a synchronous in-line handler call.
	ModeSync Mode = iota
	// ModeAsync is a handler spawned on a separate thread of control.
	ModeAsync
	// ModeEphemeral is a handler run under termination supervision.
	ModeEphemeral
	// ModeFilter is an argument-rewriting filter invocation.
	ModeFilter
	// ModeDirect is the single-binding bypass (dispatcher skipped).
	ModeDirect
	// ModeDefault is the default handler, fired when nothing else did.
	ModeDefault
)

func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeAsync:
		return "async"
	case ModeEphemeral:
		return "ephemeral"
	case ModeFilter:
		return "filter"
	case ModeDirect:
		return "direct"
	case ModeDefault:
		return "default"
	}
	return "mode(?)"
}

// RejectReason labels a KindReject span.
type RejectReason uint8

const (
	// RejectQuota is a handler-quota denial at installation (§2.6).
	RejectQuota RejectReason = iota
	// RejectAuth is an authorizer denial (§2.5).
	RejectAuth
	// RejectFault is an installation denied because the installing module
	// is quarantined by the fault controller.
	RejectFault
)

func (r RejectReason) String() string {
	switch r {
	case RejectQuota:
		return "quota"
	case RejectAuth:
		return "auth"
	case RejectFault:
		return "fault"
	}
	return "reject(?)"
}

// Span is one decoded trace record.
type Span struct {
	// Seq is the global publication sequence; snapshots sort by it.
	Seq uint64
	// Raise identifies the raise this span belongs to (0 for control-
	// plane spans).
	Raise uint64
	// Event is the event's qualified name.
	Event string
	// Kind discriminates the record.
	Kind Kind
	// Step is the dispatch-plan step index the span refers to (KindGuard,
	// KindHandler), the merge index (KindMerge), or -1 when inapplicable.
	Step int
	// Guard is the guard's index within its step's guard list (KindGuard).
	Guard int
	// Name is the handler name the span refers to, the rejected installer
	// module (KindReject), or "" for raise-level spans.
	Name string
	// Mode is the handler execution mode (KindHandler).
	Mode Mode
	// Pass reports a guard's outcome, or an ephemeral handler's
	// completion (false = terminated).
	Pass bool
	// Inline reports whether a guard was evaluated inline.
	Inline bool
	// Start is the span's start instant in virtual time. On an unmetered
	// dispatcher it is a synthetic monotonic stamp that orders spans but
	// measures nothing.
	Start vtime.Time
	// Cost is the span's virtual-time cost (zero when unmetered).
	Cost vtime.Duration
	// Detail carries per-kind extras: the fired count (KindRaiseEnd), the
	// first raise argument word (KindRaiseBegin), the rejection reason
	// (KindReject).
	Detail uint64
	// Ambiguous and UsedDefault mirror the raise outcome (KindRaiseEnd).
	Ambiguous   bool
	UsedDefault bool
}

// Packed slot layout. Every word is atomic so concurrent writers and the
// snapshot reader never perform an unsynchronized access; the seq word is
// the publication flag (seqlock protocol, torn reads discarded).
type slot struct {
	seq    atomic.Uint64 // 0 = empty, ^0 = being written, else ticket
	raise  atomic.Uint64
	packed atomic.Uint64 // prog(32) | step(16) | guard(8) | kind(4) | mode(4)... see pack
	start  atomic.Int64
	cost   atomic.Int64
	detail atomic.Uint64
}

const slotWriting = ^uint64(0)

// packed word layout (low to high): kind(4) mode(4) flags(8) guard(8)
// step(16) prog(24).
const (
	flagPass uint64 = 1 << iota
	flagInline
	flagAmbiguous
	flagUsedDefault
)

const stepNone = 0xFFFF // Step == -1 sentinel

func pack(prog uint32, st, guard int, k Kind, m Mode, flags uint64) uint64 {
	step := uint64(stepNone)
	if st >= 0 && st < stepNone {
		step = uint64(st)
	}
	return uint64(k)&0xF |
		(uint64(m)&0xF)<<4 |
		(flags&0xFF)<<8 |
		(uint64(guard)&0xFF)<<16 |
		step<<24 |
		(uint64(prog)&0xFFFFFF)<<40
}

func unpack(w uint64) (prog uint32, st, guard int, k Kind, m Mode, flags uint64) {
	k = Kind(w & 0xF)
	m = Mode(w >> 4 & 0xF)
	flags = w >> 8 & 0xFF
	guard = int(w >> 16 & 0xFF)
	st = int(w >> 24 & 0xFFFF)
	if st == stepNone {
		st = -1
	}
	prog = uint32(w >> 40 & 0xFFFFFF)
	return
}

// StepMeta names one dispatch-plan step for span resolution.
type StepMeta struct {
	// Name is the handler's qualified procedure name.
	Name string
	// Mode is the step's execution mode.
	Mode Mode
}

// EventMeta is the metadata registered for one traced plan: the event name
// and the handler behind each step index. A program's metadata is kept
// while a span in the ring may name it, so spans recorded against a
// superseded plan (swapped out by an install) still resolve (Retire).
type EventMeta struct {
	Event string
	Steps []StepMeta
	// Default names the default handler, if one is compiled in.
	Default string
}

// Config configures a Tracer.
type Config struct {
	// Capacity is the ring size in spans, rounded up to a power of two;
	// zero selects 4096. Old spans are overwritten when the ring wraps.
	Capacity int
	// Sample records 1-in-Sample raises; values below 2 record every
	// raise. Unsampled raises execute the untraced fast path.
	Sample int
}

// Tracer owns the span ring and the traced-plan metadata registry. One
// tracer may serve many events on many dispatchers; recording is safe from
// any goroutine.
type Tracer struct {
	mask   uint64
	slots  []slot
	head   atomic.Uint64 // next publication ticket (1-based)
	raises atomic.Uint64 // raise counter, drives sampling and raise IDs
	ticks  atomic.Int64  // synthetic time source for unmetered spans
	sample uint64

	// The program registry: the layout of every program a span in the ring
	// may name, by id (0 is reserved for "unknown"). retired lists the
	// superseded programs, which sweep drops once no span in the ring
	// names them; sweepAt is the retired count that triggers the next
	// sweep. lastID is the id last issued: ids go round the 24 bits a
	// packed span holds, skipping those still registered, so an id is
	// issued again only after its program left the registry.
	mu      sync.Mutex
	progs   map[uint32]EventMeta
	retired []uint32
	sweepAt int
	lastID  uint32
}

// maxProgID is the largest program id a packed span holds.
const maxProgID = 1<<24 - 1

// New creates a tracer. The span ring is fully allocated here; recording
// never allocates.
func New(cfg Config) *Tracer {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 4096
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	sample := uint64(cfg.Sample)
	if sample < 1 {
		sample = 1
	}
	return &Tracer{mask: uint64(n - 1), slots: make([]slot, n), sample: sample,
		progs: map[uint32]EventMeta{}, sweepAt: n}
}

// Program registers the metadata for one compiled traced plan and returns
// the recording handle the generated dispatch routine embeds.
func (t *Tracer) Program(meta EventMeta) *Program {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.register(meta)
}

// register issues the next free id to meta. Caller holds t.mu.
func (t *Tracer) register(meta EventMeta) *Program {
	id := t.lastID
	for {
		if id = (id + 1) & maxProgID; id == 0 {
			continue
		}
		if _, used := t.progs[id]; !used {
			break
		}
	}
	t.lastID, t.progs[id] = id, meta
	return &Program{t: t, id: id}
}

// Retire marks the program superseded: no plan compiled from now on
// records through it. The registry keeps its layout while a span in the
// ring names it, so the spans it recorded resolve to the names they had,
// and drops it after that. A raise still running on a superseded plan may
// record a span after its program was dropped; that span resolves to no
// names.
func (p *Program) Retire() {
	t := p.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if p.retired {
		return
	}
	p.retired = true
	t.retired = append(t.retired, p.id)
	if len(t.retired) >= t.sweepAt {
		t.sweep()
	}
}

// sweep drops the retired programs no span in the ring names, and puts the
// next sweep as many retirements behind as the ring has slots, so sweeping
// costs O(1) amortised per retirement and the registry holds at most the
// live programs, the ones the ring names, and a ring's worth more. Caller
// holds t.mu.
func (t *Tracer) sweep() {
	named := map[uint32]bool{}
	for i := range t.slots {
		if s := &t.slots[i]; s.seq.Load() != 0 {
			prog, _, _, _, _, _ := unpack(s.packed.Load())
			named[prog] = true
		}
	}
	kept := t.retired[:0]
	for _, id := range t.retired {
		if named[id] {
			kept = append(kept, id)
		} else {
			delete(t.progs, id)
		}
	}
	t.retired = kept
	t.sweepAt = len(kept) + len(t.slots)
}

// lookup resolves a program id to its metadata. The zero id and ids no
// longer registered resolve to an empty meta.
func (t *Tracer) lookup(id uint32) EventMeta {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.progs[id]
}

// Programs returns the number of programs registered: the live ones, and
// the retired ones a span in the ring may still name or no sweep has
// dropped yet.
func (t *Tracer) Programs() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.progs)
}

// Sample returns the configured 1-in-N sampling rate.
func (t *Tracer) Sample() int { return int(t.sample) }

// Capacity returns the ring capacity in spans.
func (t *Tracer) Capacity() int { return len(t.slots) }

// Dropped returns the number of recorded spans no longer in the ring.
func (t *Tracer) Dropped() uint64 {
	if h := t.head.Load(); h > uint64(len(t.slots)) {
		return h - uint64(len(t.slots))
	}
	return 0
}

// emit claims the next slot and publishes one encoded span.
func (t *Tracer) emit(raise, packed uint64, start int64, cost int64, detail uint64) {
	ticket := t.head.Add(1)
	s := &t.slots[(ticket-1)&t.mask]
	s.seq.Store(slotWriting)
	s.raise.Store(raise)
	s.packed.Store(packed)
	s.start.Store(start)
	s.cost.Store(cost)
	s.detail.Store(detail)
	s.seq.Store(ticket)
}

// now is the synthetic time source for unmetered recording: a monotonic
// stamp that orders spans without measuring anything.
func (t *Tracer) now() int64 { return t.ticks.Add(1) }

// Stamp returns the current instant for span timing: virtual time when the
// CPU meter has a clock, the tracer's synthetic ordering stamp otherwise.
func (t *Tracer) Stamp(cpu *vtime.CPU) int64 {
	if cpu.Clock() != nil {
		return int64(cpu.Now())
	}
	return t.now()
}

// Metered reports whether cpu provides real virtual time (versus the
// synthetic stamp), so callers can record zero cost for synthetic spans.
func (t *Tracer) Metered(cpu *vtime.CPU) bool { return cpu.Clock() != nil }

// instant records a control-plane span that names one thing (a module, a
// handler, a peer) through a program of its own, which it retires at once:
// the registry keeps its name while the ring holds the span.
func (t *Tracer) instant(event, name string, k Kind, flags, detail uint64) {
	p := t.Program(EventMeta{Event: event, Steps: []StepMeta{{Name: name}}})
	t.emit(0, pack(p.id, 0, 0, k, ModeSync, flags), t.now(), 0, detail)
	p.Retire()
}

// Reject records a control-plane rejection span: a handler installation
// denied by quota accounting or by the event's authorizer.
func (t *Tracer) Reject(event string, reason RejectReason, module string) {
	t.instant(event, module, KindReject, 0, uint64(reason))
}

// Fault records a control-plane fault span: a handler or guard misbehaved
// (panicked, or overran a deadline). detail is the
// fault subsystem's kind code, recorded opaquely.
func (t *Tracer) Fault(event, handler string, detail uint64) {
	t.instant(event, handler, KindFault, 0, detail)
}

// Quarantine records a binding (or whole module) being compiled out of the
// dispatch plan; level is the quarantine generation driving the backoff.
func (t *Tracer) Quarantine(event, handler string, level int) {
	t.instant(event, handler, KindQuarantine, 0, uint64(level))
}

// Degrade records a degradation-level transition: the overload controller
// moved from level `from` to level `to` (named by name). Transitions are
// rare, so the per-call metadata registration is acceptable here; per-shed
// spans use the cached Program.Shed path instead.
func (t *Tracer) Degrade(from, to int, name string) {
	var flags uint64
	if to > from {
		flags |= flagPass // escalation
	}
	t.instant("*", name, KindDegrade, flags, (uint64(from)&0xFF)<<8|uint64(to)&0xFF)
}

// Breaker records a remote peer's circuit-breaker transition, the
// quarantine-style span for a failure domain that is a machine rather
// than a handler: the peer name keys the span, Detail packs the from and
// to states, and a transition into the open state is flagged Pass (the
// trip, the span operators alert on).
func (t *Tracer) Breaker(peer string, from, to int) {
	var flags uint64
	if to == 1 { // remote.BreakerOpen
		flags |= flagPass
	}
	t.instant("*", peer, KindBreaker, flags, (uint64(from)&0xFF)<<8|uint64(to)&0xFF)
}

// Probation records a quarantined binding's re-admission under a tightened
// budget; restored marks the later return to full health.
func (t *Tracer) Probation(event, handler string, restored bool) {
	var flags uint64
	if restored {
		flags |= flagPass
	}
	t.instant(event, handler, KindProbation, flags, 0)
}

// Snapshot decodes the ring's currently published spans in recording
// order. Slots being concurrently rewritten are skipped, not torn.
func (t *Tracer) Snapshot() []Span {
	spans := make([]Span, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		seq := s.seq.Load()
		if seq == 0 || seq == slotWriting {
			continue
		}
		raise := s.raise.Load()
		packed := s.packed.Load()
		start := s.start.Load()
		cost := s.cost.Load()
		detail := s.detail.Load()
		if s.seq.Load() != seq {
			continue // torn: a writer claimed the slot mid-copy
		}
		prog, step, guard, kind, mode, flags := unpack(packed)
		meta := t.lookup(prog)
		sp := Span{
			Seq:         seq,
			Raise:       raise,
			Event:       meta.Event,
			Kind:        kind,
			Step:        step,
			Guard:       guard,
			Mode:        mode,
			Pass:        flags&flagPass != 0,
			Inline:      flags&flagInline != 0,
			Ambiguous:   flags&flagAmbiguous != 0,
			UsedDefault: flags&flagUsedDefault != 0,
			Start:       vtime.Time(start),
			Cost:        vtime.Duration(cost),
			Detail:      detail,
		}
		switch kind {
		case KindGuard, KindHandler:
			if step >= 0 && step < len(meta.Steps) {
				sp.Name = meta.Steps[step].Name
			} else if mode == ModeDefault {
				sp.Name = meta.Default
			}
		case KindReject, KindFault, KindQuarantine, KindProbation, KindDegrade, KindBreaker:
			if len(meta.Steps) > 0 {
				sp.Name = meta.Steps[0].Name
			}
		}
		spans = append(spans, sp)
	}
	sortSpans(spans)
	return spans
}

// sortSpans orders by publication sequence (insertion sort is fine: the
// ring is read mostly in order already).
func sortSpans(spans []Span) {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j-1].Seq > spans[j].Seq; j-- {
			spans[j-1], spans[j] = spans[j], spans[j-1]
		}
	}
}

// Reset clears the ring (the metadata registry is retained).
func (t *Tracer) Reset() {
	for i := range t.slots {
		t.slots[i].seq.Store(0)
	}
	t.head.Store(0)
}

// Program is the per-plan recording handle compiled into a traced dispatch
// routine. All methods are safe for concurrent use and allocation-free.
type Program struct {
	t       *Tracer
	id      uint32
	retired bool // guarded by t.mu
}

// Tracer returns the owning tracer.
func (p *Program) Tracer() *Tracer { return p.t }

// Begin draws the sampling decision for one raise. When sampled it returns
// a unique raise id; otherwise the caller runs the untraced routine.
func (p *Program) Begin() (raise uint64, sampled bool) {
	n := p.t.raises.Add(1)
	if p.t.sample > 1 && n%p.t.sample != 0 {
		return 0, false
	}
	return n, true
}

// RaiseBegin opens a sampled raise. arg0 is the first raise argument as a
// word (0 when absent or non-word), recorded for discrimination debugging.
func (p *Program) RaiseBegin(raise uint64, start int64, arg0 uint64) {
	p.t.emit(raise, pack(p.id, -1, 0, KindRaiseBegin, ModeSync, 0), start, 0, arg0)
}

// Guard records one guard evaluation.
func (p *Program) Guard(raise uint64, step, guard int, inline, pass bool, start, cost int64) {
	var flags uint64
	if pass {
		flags |= flagPass
	}
	if inline {
		flags |= flagInline
	}
	p.t.emit(raise, pack(p.id, step, guard, KindGuard, ModeSync, flags), start, cost, 0)
}

// Handler records one handler invocation. completed is false only for a
// terminated EPHEMERAL invocation.
func (p *Program) Handler(raise uint64, step int, mode Mode, completed bool, start, cost int64) {
	var flags uint64
	if completed {
		flags |= flagPass
	}
	p.t.emit(raise, pack(p.id, step, 0, KindHandler, mode, flags), start, cost, 0)
}

// Merge records one result-handler application.
func (p *Program) Merge(raise uint64, index int, start, cost int64) {
	p.t.emit(raise, pack(p.id, index, 0, KindMerge, ModeSync, 0), start, cost, 0)
}

// RaiseEnd closes a sampled raise with its outcome.
func (p *Program) RaiseEnd(raise uint64, start, cost int64, fired int, ambiguous, usedDefault bool) {
	var flags uint64
	if ambiguous {
		flags |= flagAmbiguous
	}
	if usedDefault {
		flags |= flagUsedDefault
	}
	p.t.emit(raise, pack(p.id, -1, 0, KindRaiseEnd, ModeSync, flags), start, cost, uint64(fired))
}

// Shed records one shed submission against the program's event. Unlike the
// Tracer's control-plane helpers this reuses the program's registered
// metadata, so shedding under sustained overload — the one time shed spans
// fire in volume — allocates nothing. depth is the queue depth at the shed;
// mode the admission policy's mode code.
func (p *Program) Shed(depth int, mode uint8) {
	p.t.emit(0, pack(p.id, -1, 0, KindShed, ModeSync, 0), p.t.now(), 0,
		(uint64(depth)&0xFFFFFF)<<8|uint64(mode))
}

// Stamp returns the current instant (see Tracer.Stamp).
func (p *Program) Stamp(cpu *vtime.CPU) int64 { return p.t.Stamp(cpu) }

// Metered reports whether cpu provides real virtual time.
func (p *Program) Metered(cpu *vtime.CPU) bool { return p.t.Metered(cpu) }
