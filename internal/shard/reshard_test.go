package shard

import (
	"fmt"
	"testing"
	"time"

	"spin/internal/dispatch"
	"spin/internal/fault"
	"spin/internal/journal"
	"spin/internal/rtti"
)

// TestReshardMovesOnlyCapturedEvents: growth migrates exactly the events
// the new shards' virtual nodes capture — surviving shards keep their
// populations — and every handle still raises correctly afterwards.
func TestReshardMovesOnlyCapturedEvents(t *testing.T) {
	r := mustRouter(t, 2)
	var log []string
	owners := make(map[string]int)
	for i := 0; i < 48; i++ {
		name := fmt.Sprintf("Grow.%03d", i)
		e := mustDefine(t, r, name)
		if _, err := e.Install(rec(name, &log)); err != nil {
			t.Fatal(err)
		}
		owners[name] = e.Shard().ID()
	}
	moved, err := r.Reshard(4)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("growth to 4 shards moved nothing")
	}
	if r.Moves() != int64(moved) {
		t.Fatalf("Moves() = %d, want %d", r.Moves(), moved)
	}
	for _, e := range r.Events() {
		was, is := owners[e.Name()], e.Shard().ID()
		if was != is && is < 2 {
			t.Fatalf("%s moved %d -> %d: between surviving shards", e.Name(), was, is)
		}
		if is != r.Owner(e.Name()) {
			t.Fatalf("%s pinned to %d, ring says %d", e.Name(), is, r.Owner(e.Name()))
		}
		if _, err := e.Raise1(uintptr(1)); err != nil {
			t.Fatalf("%s post-move raise: %v", e.Name(), err)
		}
	}
	if len(log) != 48 {
		t.Fatalf("post-move raises fired %d handlers, want 48", len(log))
	}
}

// reshardScript drives one deterministic install/raise/uninstall workload
// against any event provider, recording handler firings (with event, name,
// and argument) and raise results. Running it against the router with
// reshards interleaved and against one plain dispatcher must produce
// identical traces — the differential oracle for move fidelity.
type scriptEvent interface {
	Install(dispatch.Handler, ...dispatch.InstallOption) (interface{ Fired() int64 }, error)
	SetDefaultHandler(dispatch.Handler) error
	Raise1(any) (any, error)
}

type routedScriptEvent struct{ e *Event }

func (r routedScriptEvent) Install(h dispatch.Handler, opts ...dispatch.InstallOption) (interface{ Fired() int64 }, error) {
	return r.e.Install(h, opts...)
}
func (r routedScriptEvent) SetDefaultHandler(h dispatch.Handler) error {
	return r.e.SetDefaultHandler(h)
}
func (r routedScriptEvent) Raise1(a any) (any, error) { return r.e.Raise1(a) }

type plainScriptEvent struct{ e *dispatch.Event }

func (p plainScriptEvent) Install(h dispatch.Handler, opts ...dispatch.InstallOption) (interface{ Fired() int64 }, error) {
	return p.e.Install(h, opts...)
}
func (p plainScriptEvent) SetDefaultHandler(h dispatch.Handler) error {
	return p.e.SetDefaultHandler(h)
}
func (p plainScriptEvent) Raise1(a any) (any, error) { return p.e.Raise1(a) }

func runReshardScript(t *testing.T, define func(name string) scriptEvent, checkpoint func(batch int)) (trace []string, fired map[string]int64) {
	t.Helper()
	events := make(map[string]scriptEvent)
	handles := make(map[string]interface{ Fired() int64 })
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	handler := func(ev, name string, closured bool) dispatch.Handler {
		sig := rtti.Sig(nil, rtti.Word)
		if closured {
			// A closure travels as a declared leading reference parameter.
			sig = rtti.Signature{Args: []rtti.Type{rtti.RefAny, rtti.Word}}
		}
		p := &rtti.Proc{Name: name, Module: testModule, Sig: sig}
		return dispatch.Handler{Proc: p, Fn: func(clo any, args []any) any {
			logf("fire %s %s clo=%v arg=%v", ev, name, clo, args[0])
			return nil
		}}
	}
	guard := func(name string, pass func(uintptr) bool) dispatch.Guard {
		p := &rtti.Proc{Name: name, Module: testModule, Functional: true, Sig: rtti.Sig(rtti.Bool, rtti.Word)}
		return dispatch.Guard{Proc: p, Fn: func(clo any, args []any) bool { return pass(args[0].(uintptr)) }}
	}

	for batch := 0; batch < 4; batch++ {
		// Define a fresh cohort and extend older events.
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("Diff.%d.%02d", batch, i)
			e := define(name)
			events[name] = e
			hn := name + ".h0"
			h, err := e.Install(handler(name, hn, false))
			if err != nil {
				t.Fatalf("%s install: %v", name, err)
			}
			handles[hn] = h
			if i%3 == 0 {
				if err := e.SetDefaultHandler(handler(name, name+".dflt", false)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Layer guarded, prioritized, and closured handlers on batch 0's
		// events so later moves carry every installation shape.
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("Diff.0.%02d", i)
			hn := fmt.Sprintf("%s.b%d", name, batch)
			h, err := events[name].Install(handler(name, hn, true),
				dispatch.WithGuard(guard(hn+".g", func(a uintptr) bool { return a%2 == 0 })),
				dispatch.WithPriority(batch%3),
				dispatch.WithClosure(fmt.Sprintf("clo-%d", batch)))
			if err != nil {
				t.Fatalf("%s install: %v", name, err)
			}
			handles[hn] = h
		}
		// Raise everything defined so far with both guard-passing and
		// guard-failing arguments.
		for b := 0; b <= batch; b++ {
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("Diff.%d.%02d", b, i)
				for _, arg := range []uintptr{uintptr(2 * batch), uintptr(2*batch + 1)} {
					res, err := events[name].Raise1(arg)
					logf("raise %s arg=%d res=%v err=%v", name, arg, res, err)
				}
			}
		}
		checkpoint(batch)
	}
	fired = make(map[string]int64, len(handles))
	for hn, h := range handles {
		fired[hn] = h.Fired()
	}
	return trace, fired
}

// TestReshardDifferentialVsSingleDispatcherOracle: the same scripted
// workload runs against (a) a routed plane resharded 1->3->5->2 between
// batches and (b) one plain dispatcher. Fire order within each raise,
// raise results, and cumulative per-binding fire counts must be identical
// — resharding is invisible to dispatch semantics.
func TestReshardDifferentialVsSingleDispatcherOracle(t *testing.T) {
	r := mustRouter(t, 1)
	routedTrace, routedFired := runReshardScript(t,
		func(name string) scriptEvent {
			e, err := r.DefineEvent(name, rtti.Sig(nil, rtti.Word))
			if err != nil {
				t.Fatal(err)
			}
			return routedScriptEvent{e}
		},
		func(batch int) {
			if _, err := r.Reshard([]int{3, 5, 2, 4}[batch]); err != nil {
				t.Fatalf("reshard after batch %d: %v", batch, err)
			}
		})

	d := dispatch.New()
	oracleTrace, oracleFired := runReshardScript(t,
		func(name string) scriptEvent {
			e, err := d.DefineEvent(name, rtti.Sig(nil, rtti.Word))
			if err != nil {
				t.Fatal(err)
			}
			return plainScriptEvent{e}
		},
		func(int) {})

	if len(routedTrace) != len(oracleTrace) {
		t.Fatalf("trace lengths differ: routed %d, oracle %d", len(routedTrace), len(oracleTrace))
	}
	for i := range routedTrace {
		if routedTrace[i] != oracleTrace[i] {
			t.Fatalf("trace diverges at %d:\n  routed: %s\n  oracle: %s", i, routedTrace[i], oracleTrace[i])
		}
	}
	for hn, n := range oracleFired {
		if routedFired[hn] != n {
			t.Fatalf("%s fired %d routed vs %d oracle", hn, routedFired[hn], n)
		}
	}
}

// TestReshardPreservesFaultState: a binding quarantined by fault
// enforcement stays quarantined across a move, and its transferred ledger
// entry keeps the exhausted budget — resharding cannot launder faults.
func TestReshardPreservesFaultState(t *testing.T) {
	// A long backoff keeps quarantines from lifting mid-test.
	pol := fault.Policy{Budget: 2, Backoff: time.Hour}
	r, err := NewRouter(Config{Shards: 1, NewShard: func(int) *dispatch.Dispatcher {
		return dispatch.New(dispatch.WithFaultPolicy(pol))
	}})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 24; i++ {
		names = append(names, fmt.Sprintf("Fault.%02d", i))
	}
	var log []string
	events := make(map[string]*Event)
	bad := make(map[string]*Binding)
	for _, name := range names {
		e, err := r.DefineEvent(name, sig1())
		if err != nil {
			t.Fatal(err)
		}
		events[name] = e
		b, err := e.Install(dispatch.Handler{Proc: proc(name + ".bad"), Fn: func(any, []any) any {
			panic("injected")
		}})
		if err != nil {
			t.Fatal(err)
		}
		bad[name] = b
		if _, err := e.Install(rec(name+".good", &log)); err != nil {
			t.Fatal(err)
		}
	}
	// Exhaust each bad binding's panic budget: enforcement quarantines it.
	for _, name := range names {
		for i := 0; i < 2; i++ {
			_, _ = events[name].Raise1(uintptr(i))
		}
		if !bad[name].Quarantined() {
			t.Fatalf("%s not quarantined after budget exhaustion", name)
		}
	}
	if _, err := r.Reshard(4); err != nil {
		t.Fatal(err)
	}
	if r.Moves() == 0 {
		t.Fatal("reshard moved nothing; test proves nothing")
	}
	log = log[:0]
	for _, name := range names {
		if !bad[name].Quarantined() {
			t.Fatalf("%s quarantine lost across move", name)
		}
		if _, err := events[name].Raise1(uintptr(9)); err != nil {
			t.Fatalf("%s post-move raise: %v", name, err)
		}
	}
	if len(log) != len(names) {
		t.Fatalf("post-move raises fired %d good handlers, want %d", len(log), len(names))
	}
	// The transferred ledger entries live on the destination shards now:
	// each bad binding's fault level survived the move.
	for _, name := range names {
		led := events[name].Shard().Dispatcher().FaultLedger()
		if led.State(bad[name].Raw()) != fault.Quarantined {
			t.Fatalf("%s: destination ledger lost the quarantine entry", name)
		}
	}
}

// TestReshardJournalMarkers: with a journal stream per shard, a move
// brackets its uninstalls and re-installs with KindShardMove markers on
// both journals, each journal stays independently replayable through the
// symbolic oracle, and the oracle counts the moves.
func TestReshardJournalMarkers(t *testing.T) {
	sinks := make(map[int]*journal.MemSink)
	jrnls := make(map[int]*journal.Journal)
	mk := func(id int) *dispatch.Dispatcher {
		sink := journal.NewMemSink()
		j := journal.New(journal.Config{Sink: sink, FlushInterval: -1})
		sinks[id] = sink
		jrnls[id] = j
		return dispatch.New(dispatch.WithJournal(j))
	}
	r, err := NewRouter(Config{Shards: 1, NewShard: mk})
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("Jrnl.%02d", i)
		e := mustDefine(t, r, name)
		if _, err := e.Install(rec(name, &log)); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := r.Reshard(3)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("reshard moved nothing")
	}
	for id, j := range jrnls {
		if err := j.Close(); err != nil {
			t.Fatalf("journal %d close: %v", id, err)
		}
	}
	totalMoves := 0
	for id, sink := range sinks {
		st := journal.NewState()
		if _, err := journal.Replay(sink.Bytes(), st); err != nil {
			t.Fatalf("journal %d replay: %v", id, err)
		}
		totalMoves += st.Moves()
	}
	// Each move marks both the source and destination journal.
	if totalMoves != 2*moved {
		t.Fatalf("journals record %d move markers, want %d (2 per move)", totalMoves, 2*moved)
	}
	// Shard 0's journal must replay into a live dispatcher without
	// stumbling on the markers (ReplayApplier treats them as annotations).
	twin := dispatch.New()
	resolve := func(module, handler string) (dispatch.Handler, []dispatch.InstallOption, bool) {
		return dispatch.Handler{Proc: &rtti.Proc{Name: handler, Module: testModule, Sig: sig1()},
			Fn: func(any, []any) any { return nil }}, nil, true
	}
	for _, e := range r.Events() {
		if _, err := twin.DefineEvent(e.Name(), sig1()); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := twin.ReplayJournal(sinks[0].Bytes(), resolve); err != nil {
		t.Fatalf("replay with shard-move markers: %v", err)
	}
}

// TestReshardShrink: shrinking the plane drains the departing shards'
// whole population back onto the survivors and drops the empty slots.
func TestReshardShrink(t *testing.T) {
	r := mustRouter(t, 4)
	var log []string
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("Shrink.%03d", i)
		e := mustDefine(t, r, name)
		if _, err := e.Install(rec(name, &log)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Reshard(2); err != nil {
		t.Fatal(err)
	}
	if r.Shards() != 2 {
		t.Fatalf("Shards() = %d after shrink, want 2", r.Shards())
	}
	for _, e := range r.Events() {
		if id := e.Shard().ID(); id > 1 {
			t.Fatalf("%s still on departed shard %d", e.Name(), id)
		}
		if _, err := e.Raise1(uintptr(1)); err != nil {
			t.Fatal(err)
		}
	}
	if len(log) != 32 {
		t.Fatalf("post-shrink raises fired %d, want 32", len(log))
	}
}

// TestReshardIntrinsicRoundTripReplays: intrinsic events that leave shard
// 0 and come back (1 → 3 → 1 shards) must leave shard 0's journal
// replayable into a twin that boots the same events with their intrinsic
// handlers. The departure retires the intrinsic and the re-definition
// installs a fresh one; replay must reproduce both, so the live shard, the
// twin and the journal's State oracle agree on every event's dispatch
// order.
func TestReshardIntrinsicRoundTripReplays(t *testing.T) {
	var sink0 *journal.MemSink
	var j0 *journal.Journal
	r, err := NewRouter(Config{Shards: 1, NewShard: func(id int) *dispatch.Dispatcher {
		sink := journal.NewMemSink()
		j := journal.New(journal.Config{Sink: sink, FlushInterval: -1})
		t.Cleanup(func() { j.Close() })
		if id == 0 {
			sink0, j0 = sink, j
		}
		return dispatch.New(dispatch.WithJournal(j))
	}})
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	var names []string
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("RT.%02d", i)
		names = append(names, name)
		e := mustDefine(t, r, name, dispatch.WithIntrinsic(rec(name+".intr", &log)))
		if _, err := e.Install(rec(name+".first", &log), dispatch.First()); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Install(rec(name+".last", &log)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{3, 1} {
		if moved, err := r.Reshard(n); err != nil || moved == 0 {
			t.Fatalf("Reshard(%d) moved %d: %v", n, moved, err)
		}
	}
	j0.Flush()
	data := sink0.Bytes()

	st := journal.NewState()
	if _, err := journal.Replay(data, st); err != nil {
		t.Fatalf("State replay: %v", err)
	}
	twin := dispatch.New()
	for _, name := range names {
		if _, err := twin.DefineEvent(name, sig1(), dispatch.WithIntrinsic(rec(name+".intr", &log))); err != nil {
			t.Fatal(err)
		}
	}
	resolve := func(module, handler string) (dispatch.Handler, []dispatch.InstallOption, bool) {
		return rec(handler, &log), nil, true
	}
	if _, _, err := twin.ReplayJournal(data, resolve); err != nil {
		t.Fatalf("shard 0 journal does not replay: %v", err)
	}

	liveOrder := func(d *dispatch.Dispatcher, name string) []uint64 {
		e, ok := d.Lookup(name)
		if !ok {
			t.Fatalf("%s not defined", name)
		}
		var ids []uint64
		for _, b := range e.Bindings() {
			ids = append(ids, b.JournalID())
		}
		return ids
	}
	shard0 := r.shards[0].Dispatcher()
	for _, name := range names {
		live, replayed, oracle := liveOrder(shard0, name), liveOrder(twin, name), st.Bindings(name)
		if fmt.Sprint(live) != fmt.Sprint(replayed) || fmt.Sprint(replayed) != fmt.Sprint(oracle) {
			t.Errorf("%s order diverged: live %v, twin %v, oracle %v", name, live, replayed, oracle)
		}
	}
}
