package dispatch

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spin/internal/admit"
	"spin/internal/codegen"
	"spin/internal/fault"
	"spin/internal/journal"
	"spin/internal/rtti"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// Differential tests for the lifecycle journal: the zero-cost-off
// contract, the lifecycle-only sampling-off raise path, and boot-time
// replay checked three ways against each other — the live source
// dispatcher, a fresh dispatcher reconstructed by ReplayJournal, and the
// journal package's symbolic State oracle.

// TestJournalOffZeroAlloc pins the zero-cost-off contract: a dispatcher
// constructed without WithJournal has no journal to sample, and the raise
// path allocates nothing. This is the fourth standing
// 0-alloc invariant (alongside tracing-off, fault-policy-on, and
// admission-no-policy) gated by `make alloccheck`.
func TestJournalOffZeroAlloc(t *testing.T) {
	d := New()
	if d.Journal() != nil {
		t.Fatal("journal-off dispatcher has a journal")
	}
	direct := mustDefine(t, d, "J.Off", rtti.Sig(nil, rtti.Word),
		WithIntrinsic(handler(voidProc("D", rtti.Word), func(any, []any) any { return nil })))
	multi := mustDefine(t, d, "J.OffMulti", rtti.Sig(nil, rtti.Word))
	for _, name := range []string{"H1", "H2"} {
		if _, err := multi.Install(handler(voidProc(name, rtti.Word), func(any, []any) any { return nil })); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		e    *Event
	}{{"direct", direct}, {"multi", multi}} {
		if allocs := testing.AllocsPerRun(1000, func() { _, _ = tc.e.Raise1(uint64(7)) }); allocs != 0 {
			t.Errorf("%s: journal-off raise allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
}

// TestJournalLifecycleOnlyRaiseDoesNotAllocate: attaching a journal with
// raise sampling disabled (SampleRaises: 0, lifecycle records only) must
// leave the raise path allocation-free — the sampling draw is one nil
// check plus a mask test that never passes. The 1-in-1024 sampling rate
// runs in the benchmark's ctl_churn workload (the journal worker goroutine
// makes AllocsPerRun nondeterministic, so the alloc gate pins only the
// sampling-off shapes).
func TestJournalLifecycleOnlyRaiseDoesNotAllocate(t *testing.T) {
	sink := journal.NewMemSink()
	j := journal.New(journal.Config{Sink: sink, FlushInterval: -1})
	defer j.Close()
	d := New(WithJournal(j))
	e := mustDefine(t, d, "J.On", rtti.Sig(nil, rtti.Word),
		WithIntrinsic(handler(voidProc("D", rtti.Word), func(any, []any) any { return nil })))
	if d.Journal() != j {
		t.Fatal("journaled dispatcher does not report its journal")
	}
	if allocs := testing.AllocsPerRun(1000, func() { _, _ = e.Raise1(uint64(7)) }); allocs != 0 {
		t.Errorf("lifecycle-only journaled raise allocates %.1f/op, want 0", allocs)
	}
}

// TestRaiseBatchDrawsJournalSample: a batch is observably a loop of raises
// (DESIGN.md decision 16), and the journal's 1-in-N raise sample is
// observable. Every batched entry point must therefore leave the KindRaise
// records a loop of single raises leaves: one per N raises on a shard, each
// carrying the frame's fired count. All raises come from this goroutine, so
// they share a stripe shard unless the stack moves mid-test; each shard
// rounds down on its own, which bounds the count from below.
func TestRaiseBatchDrawsJournalSample(t *testing.T) {
	const raises, every, shards = 256, 4, 8
	for _, tc := range []struct {
		name  string
		drive func(e *Event)
	}{
		{"loop", func(e *Event) {
			for i := 0; i < raises; i++ {
				_, _ = e.Raise1(uint64(i))
			}
		}},
		{"RaiseBatch", func(e *Event) {
			// Fixed 64-frame trains through one reused buffer, as a
			// steady-state producer holds it.
			flat := make([]any, 64)
			for done := 0; done < raises; done += len(flat) {
				for i := range flat {
					flat[i] = uint64(done + i)
				}
				e.RaiseBatch1(flat)
			}
		}},
		{"RaiseBatch1", func(e *Event) {
			flat := make([]any, raises)
			for i := range flat {
				flat[i] = uint64(i)
			}
			e.RaiseBatch1(flat)
		}},
		{"uneven trains", func(e *Event) {
			// Trains that straddle, hit and miss the sampling interval.
			for done, k := 0, 1; done < raises; k = k%7 + 1 {
				if k > raises-done {
					k = raises - done
				}
				flat := make([]any, k)
				for i := range flat {
					flat[i] = uint64(done + i)
				}
				e.RaiseBatch1(flat)
				done += k
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := journal.NewMemSink()
			j := journal.New(journal.Config{Sink: sink, SampleRaises: every, FlushInterval: -1})
			d := New(WithJournal(j))
			e := mustDefine(t, d, "J.Sample", rtti.Sig(nil, rtti.Word))
			for _, name := range []string{"H1", "H2"} {
				if _, err := e.Install(handler(voidProc(name, rtti.Word), func(any, []any) any { return nil })); err != nil {
					t.Fatal(err)
				}
			}
			tc.drive(e)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			res := journal.Scan(sink.Bytes())
			sampled := 0
			for _, r := range append(res.SealedRecords(), res.Tail...) {
				if r.Kind != journal.KindRaise {
					continue
				}
				sampled++
				if r.Event != "J.Sample" || r.A != 2 {
					t.Fatalf("raise record %+v, want event J.Sample with 2 fired", r)
				}
			}
			if sampled > raises/every || sampled <= raises/every-shards {
				t.Fatalf("%d raises at 1-in-%d left %d KindRaise records, want %d (at most %d fewer)",
					raises, every, sampled, raises/every, shards-1)
			}
		})
	}
}

// liveOrder returns an event's installed bindings' journal IDs in
// dispatch order, the sequence the State oracle's Bindings must match.
func liveOrder(e *Event) []uint64 {
	var ids []uint64
	for _, b := range e.Bindings() {
		ids = append(ids, b.JournalID())
	}
	return ids
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestJournalReplayRoundTrip drives a journaled dispatcher through every
// replayable lifecycle shape — intrinsic, ordered installs (first,
// before), priorities, uninstall, operator quarantine, dynamic
// reordering, default handler, quota change — then replays the sealed
// journal into a fresh dispatcher and requires the twin to agree with
// the source on dispatch order (by firing both), quarantine state, and
// quotas, and both to agree with the symbolic State oracle.
func TestJournalReplayRoundTrip(t *testing.T) {
	sink := journal.NewMemSink()
	jA := journal.New(journal.Config{Sink: sink, FlushInterval: -1})
	dA := New(WithJournal(jA))

	var logA []string
	recA := func(name string) Handler {
		return handler(voidProc(name, rtti.Word), func(any, []any) any {
			logA = append(logA, name)
			return nil
		})
	}

	intrA := mustDefine(t, dA, "J.Intr", rtti.Sig(nil, rtti.Word), WithIntrinsic(recA("I")))
	hookA := mustDefine(t, dA, "J.Hook", rtti.Sig(nil, rtti.Word))
	defA := mustDefine(t, dA, "J.Def", rtti.Sig(nil, rtti.Word))

	b1, err := hookA.Install(recA("H1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hookA.Install(recA("H2"), First()); err != nil {
		t.Fatal(err)
	}
	b3, err := hookA.Install(recA("H3"), Before(b1), WithPriority(2))
	if err != nil {
		t.Fatal(err)
	}
	b4, err := hookA.Install(recA("H4"))
	if err != nil {
		t.Fatal(err)
	}
	b5, err := hookA.Install(recA("H5"))
	if err != nil {
		t.Fatal(err)
	}

	dA.SetQuotas(8, 64)
	if err := hookA.Uninstall(b4); err != nil {
		t.Fatal(err)
	}
	if !dA.quarantineBinding(b5) {
		t.Fatal("QuarantineBinding(b5) = false")
	}
	if err := hookA.SetOrder(b1, Order{Kind: OrderLast}); err != nil {
		t.Fatal(err)
	}
	if err := defA.SetDefaultHandler(recA("D")); err != nil {
		t.Fatal(err)
	}

	jA.Flush()
	data := sink.Bytes()
	if _, err := journal.Verify(data); err != nil {
		t.Fatalf("source journal does not verify: %v", err)
	}

	// Symbolic oracle.
	st := journal.NewState()
	if _, err := journal.Replay(data, st); err != nil {
		t.Fatalf("State replay: %v", err)
	}

	// Live twin.
	dB := New()
	var logB []string
	recB := func(name string) Handler {
		return handler(voidProc(name, rtti.Word), func(any, []any) any {
			logB = append(logB, name)
			return nil
		})
	}
	intrB := mustDefine(t, dB, "J.Intr", rtti.Sig(nil, rtti.Word), WithIntrinsic(recB("I")))
	hookB := mustDefine(t, dB, "J.Hook", rtti.Sig(nil, rtti.Word))
	defB := mustDefine(t, dB, "J.Def", rtti.Sig(nil, rtti.Word))
	resolve := func(module, hname string) (Handler, []InstallOption, bool) {
		if module != testModule.Name() {
			return Handler{}, nil, false
		}
		return recB(hname), nil, true
	}
	ra, sum, err := dB.ReplayJournal(data, resolve)
	if err != nil {
		t.Fatalf("ReplayJournal: %v (summary %+v)", err, sum)
	}
	if sum.Tail != 0 || sum.Damaged {
		t.Fatalf("flushed journal replayed with tail=%d damaged=%v", sum.Tail, sum.Damaged)
	}

	// Dispatch order: journal IDs must agree live-A == live-B == oracle.
	idsA, idsB, idsO := liveOrder(hookA), liveOrder(hookB), st.Bindings("J.Hook")
	if !equalIDs(idsA, idsB) || !equalIDs(idsB, idsO) {
		t.Fatalf("binding order diverged: live A %v, replayed B %v, oracle %v", idsA, idsB, idsO)
	}

	// Fired-handler sequence: raise every event on both dispatchers.
	logA, logB = nil, nil
	for _, e := range []*Event{hookA, intrA, defA} {
		if _, err := e.Raise1(uint64(1)); err != nil {
			t.Fatalf("raise %s on A: %v", e.Name(), err)
		}
	}
	for _, e := range []*Event{hookB, intrB, defB} {
		if _, err := e.Raise1(uint64(1)); err != nil {
			t.Fatalf("raise %s on B: %v", e.Name(), err)
		}
	}
	if fmt.Sprint(logA) != fmt.Sprint(logB) {
		t.Fatalf("fired sequence diverged: live A %v, replayed B %v", logA, logB)
	}

	// Quotas, quarantine, uninstall, and identity mapping.
	if pm, g := dB.Quotas(); pm != 8 || g != 64 {
		t.Fatalf("replayed quotas = (%d,%d), want (8,64)", pm, g)
	}
	if pm, g := st.Quotas(); pm != 8 || g != 64 {
		t.Fatalf("oracle quotas = (%d,%d), want (8,64)", pm, g)
	}
	q5 := ra.Binding(b5.JournalID())
	if q5 == nil || !q5.Quarantined() {
		t.Fatal("replayed twin lost b5's quarantine")
	}
	if _, oq, ok := st.Binding(b5.JournalID()); !ok || !oq {
		t.Fatal("oracle lost b5's quarantine")
	}
	if ra.Binding(b4.JournalID()) != nil {
		t.Fatal("uninstalled b4 survived replay")
	}
	if got := ra.Binding(intrA.IntrinsicBinding().JournalID()); got != intrB.IntrinsicBinding() {
		t.Fatal("intrinsic install did not map to B's intrinsic binding")
	}
	if p3 := ra.Binding(b3.JournalID()); p3 == nil || p3.Priority() != 2 {
		t.Fatal("replayed twin lost b3's priority class")
	}
}

// TestJournalKind13StillReplays: kind 13 was online resharding's shard-move
// marker. A journal that carries one between installs still verifies, and
// both the symbolic State and a live dispatcher replay it to the bindings
// the source holds.
func TestJournalKind13StillReplays(t *testing.T) {
	sink := journal.NewMemSink()
	j := journal.New(journal.Config{Sink: sink, FlushInterval: -1})
	dA := New(WithJournal(j))
	nop := func(name string) Handler {
		return handler(voidProc(name, rtti.Word), func(any, []any) any { return nil })
	}
	eA := mustDefine(t, dA, "J.Moved", rtti.Sig(nil, rtti.Word), WithIntrinsic(nop("I")))
	b1, err := eA.Install(nop("H1"))
	if err != nil {
		t.Fatal(err)
	}
	j.Record(journal.Record{Kind: journal.Kind(13), Event: "J.Moved", A: 0, B: 1})
	if _, err := eA.Install(nop("H2"), First()); err != nil {
		t.Fatal(err)
	}
	if _, err := eA.Install(nop("H3"), Before(b1)); err != nil {
		t.Fatal(err)
	}
	j.Flush()
	data := sink.Bytes()

	if _, err := journal.Verify(data); err != nil {
		t.Fatalf("journal with a kind-13 record does not verify: %v", err)
	}
	recs := journal.Scan(data).SealedRecords()
	kinds := make([]journal.Kind, len(recs))
	for i, r := range recs {
		kinds[i] = r.Kind
	}
	want := []journal.Kind{journal.KindInstall, journal.KindInstall, 13, journal.KindInstall, journal.KindInstall}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("sealed kinds %v, want %v", kinds, want)
	}

	st := journal.NewState()
	if _, err := journal.Replay(data, st); err != nil {
		t.Fatalf("State replay: %v", err)
	}
	if err := st.Apply(recs[2]); err != nil {
		t.Fatalf("State.Apply(kind 13): %v", err)
	}
	dB := New()
	eB := mustDefine(t, dB, "J.Moved", rtti.Sig(nil, rtti.Word), WithIntrinsic(nop("I")))
	_, sum, err := dB.ReplayJournal(data, func(_, hname string) (Handler, []InstallOption, bool) { return nop(hname), nil, true })
	if err != nil {
		t.Fatalf("ReplayJournal: %v", err)
	}
	if sum.Records != len(recs) {
		t.Fatalf("replayed %d records, want %d", sum.Records, len(recs))
	}
	idsA, idsB, idsO := liveOrder(eA), liveOrder(eB), st.Bindings("J.Moved")
	if len(idsA) != 4 || !equalIDs(idsA, idsB) || !equalIDs(idsA, idsO) {
		t.Fatalf("bindings diverged: live %v, replayed %v, state %v", idsA, idsB, idsO)
	}
}

// fuzzJournalOps is the number of lifecycle ops FuzzJournalReplay decodes
// from its input bytes (op byte % fuzzJournalOps selects the op).
const fuzzJournalOps = 11

// FuzzJournalReplay drives a journaled dispatcher through a fuzzer-chosen
// lifecycle op sequence — installs of two modules' handlers in every
// ordering shape, uninstalls, operator quarantine and readmission, quota
// changes, SetOrder against live bindings, default handler set, replace
// and clear, module quarantine and readmission, forced degradation levels
// on a two-level ladder, and PR 15's handler that uninstalls itself and
// then panics under a Budget: 1 fault policy — replays the sealed journal
// into a fresh dispatcher, and requires live source, replayed twin, and
// symbolic oracle to agree on binding order, per-binding quarantine
// state, the default handler, the degradation level, and quotas. It then
// flips one fuzzer-chosen byte of the sealed journal and requires Verify
// to reject it (every byte is covered by a record CRC or the seal's
// Merkle root). Wired into `make fuzz-smoke`.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x41, 0x82, 0xc3})
	f.Add([]byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef})
	// One seed per op, after five installs (plain, ext module, First,
	// Last, priority 2) so it has bindings to act on, each op repeated with
	// three other high-bit patterns.
	for op := byte(0); op < fuzzJournalOps; op++ {
		f.Add([]byte{0, 11, 66, 132, 198, op, op + 88, op + 176, op + 231})
	}
	ladder := AdmissionConfig{Levels: []admit.Level{{Name: "brownout", MinPriority: 2}, {Name: "shed", MinPriority: 1}}}
	ext := rtti.NewModule("FuzzExt")
	nop := func(any, []any) any { return nil }
	proc := func(module, name string) *rtti.Proc {
		if module == ext.Name() {
			return &rtti.Proc{Name: name, Module: ext, Sig: rtti.Sig(nil, rtti.Word)}
		}
		return voidProc(name, rtti.Word)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		sink := journal.NewMemSink()
		jA := journal.New(journal.Config{Sink: sink, BatchRecords: 4, FlushInterval: -1})
		sim := vtime.NewSimulator(&vtime.Clock{})
		dA := New(WithJournal(jA), WithSimulator(sim), WithAdmission(ladder),
			WithFaultPolicy(fault.Policy{Budget: 1, Backoff: time.Millisecond, Probation: time.Millisecond}))
		eA := mustDefine(t, dA, "J.Fuzz", rtti.Sig(nil, rtti.Word), WithOwner(ext))

		for _, op := range ops {
			live := eA.Bindings()
			pick := func(sel byte) *Binding { return live[int(sel)%len(live)] }
			module := testModule.Name()
			if op&0x08 != 0 {
				module = ext.Name()
			}
			switch op % fuzzJournalOps {
			case 0, 1: // install, with a fuzzer-chosen shape
				var opts []InstallOption
				switch op >> 6 {
				case 1:
					opts = append(opts, First())
				case 2:
					opts = append(opts, Last())
				case 3:
					opts = append(opts, WithPriority(int(op&3)))
				}
				_, _ = eA.Install(Handler{Proc: proc(module, fmt.Sprintf("H%d", int(op>>4)&3)), Fn: nop}, opts...)
			case 2:
				if len(live) > 0 {
					_ = eA.Uninstall(pick(op >> 3))
				}
			case 3:
				if len(live) > 0 {
					dA.quarantineBinding(pick(op >> 3))
				}
			case 4:
				if len(live) > 0 {
					dA.readmitBinding(pick(op >> 3))
				}
			case 5:
				dA.SetQuotas(int(op&15), int(op))
			case 6: // SetOrder, Before/After a live binding (possibly itself)
				if len(live) > 0 {
					o := Order{Kind: []OrderKind{OrderFirst, OrderLast, OrderBefore, OrderAfter}[op>>6]}
					if o.Kind == OrderBefore || o.Kind == OrderAfter {
						o.Ref = pick(op >> 1)
					}
					_ = eA.SetOrder(pick(op>>3), o)
				}
			case 7: // default handler: clear, or set/replace
				h := Handler{}
				if op&0x30 != 0 {
					h = Handler{Proc: proc(module, fmt.Sprintf("D%d", op>>4&3)), Fn: nop}
				}
				_ = eA.SetDefaultHandler(h)
			case 8:
				if op&0x10 != 0 {
					dA.QuarantineModule(ext)
				} else {
					dA.ReadmitModule(ext)
				}
			case 9:
				dA.forceDegradationLevel(int(op>>4) % 3)
			case 10: // PR 15: a Budget: 1 handler uninstalls itself, then panics
				var self *Binding
				self, err := eA.Install(handler(voidProc("Quitter", rtti.Word), func(any, []any) any {
					_ = eA.Uninstall(self)
					panic("after uninstall")
				}))
				if err == nil {
					_, _ = eA.Raise1(uint64(op))
					sim.Run(0)
				}
			}
		}
		jA.Flush()
		data := sink.Bytes()
		if _, err := journal.Verify(data); err != nil {
			t.Fatalf("flushed journal does not verify: %v", err)
		}

		st := journal.NewState()
		if _, err := journal.Replay(data, st); err != nil {
			t.Fatalf("State replay: %v", err)
		}

		dB := New(WithAdmission(ladder))
		eB := mustDefine(t, dB, "J.Fuzz", rtti.Sig(nil, rtti.Word), WithOwner(ext))
		resolve := func(module, hname string) (Handler, []InstallOption, bool) {
			return Handler{Proc: proc(module, hname), Fn: nop}, nil, true
		}
		ra, sum, err := dB.ReplayJournal(data, resolve)
		if err != nil {
			t.Fatalf("ReplayJournal: %v (summary %+v)", err, sum)
		}

		idsA, idsB, idsO := liveOrder(eA), liveOrder(eB), st.Bindings("J.Fuzz")
		if !equalIDs(idsA, idsB) || !equalIDs(idsB, idsO) {
			t.Fatalf("binding order diverged: live A %v, replayed B %v, oracle %v", idsA, idsB, idsO)
		}
		for _, b := range eA.Bindings() {
			id := b.JournalID()
			twin := ra.Binding(id)
			if twin == nil {
				t.Fatalf("binding %d missing from replayed twin", id)
			}
			if twin.Quarantined() != b.Quarantined() {
				t.Fatalf("binding %d quarantine: live %v, twin %v", id, b.Quarantined(), twin.Quarantined())
			}
			if _, oq, ok := st.Binding(id); !ok || oq != b.Quarantined() {
				t.Fatalf("binding %d quarantine: live %v, oracle %v (known %v)", id, b.Quarantined(), oq, ok)
			}
		}
		var defA, defB uint64
		if db := eA.defaultBinding(); db != nil {
			defA = db.JournalID()
		}
		if db := eB.defaultBinding(); db != nil {
			defB = db.JournalID()
		}
		if defA != defB {
			t.Fatalf("default handler: live %d, twin %d", defA, defB)
		}
		lA, _ := dA.AdmissionLevel()
		if lB, _ := dB.AdmissionLevel(); lA != lB || lA != st.Level() {
			t.Fatalf("degradation level: live %d, twin %d, oracle %d", lA, lB, st.Level())
		}
		apm, ag := dA.Quotas()
		if bpm, bg := dB.Quotas(); bpm != apm || bg != ag {
			t.Fatalf("quotas: live (%d,%d), twin (%d,%d)", apm, ag, bpm, bg)
		}
		if opm, og := st.Quotas(); opm != apm || og != ag {
			t.Fatalf("quotas: live (%d,%d), oracle (%d,%d)", apm, ag, opm, og)
		}
		jA.Close()

		// Tamper-evidence: any single-byte flip in the sealed journal must
		// fail verification.
		if len(data) > 0 {
			pos := 0
			if len(ops) > 0 {
				pos = int(ops[0]) % len(data)
			}
			mut := append([]byte(nil), data...)
			mut[pos] ^= 0x40
			if _, err := journal.Verify(mut); err == nil {
				t.Fatalf("flip of byte %d went undetected by Verify", pos)
			}
		}
	})
}

// replayIntoTwin replays data into a fresh dispatcher that defines event
// name and resolves every handler to a no-op.
func replayIntoTwin(t *testing.T, data []byte, name string) error {
	t.Helper()
	twin := New()
	mustDefine(t, twin, name, rtti.Sig(nil, rtti.Word))
	_, _, err := twin.ReplayJournal(data, func(module, hname string) (Handler, []InstallOption, bool) {
		return handler(voidProc(hname, rtti.Word), func(any, []any) any { return nil }), nil, true
	})
	return err
}

// TestFaultOnUninstalledBindingLeavesReplayableJournal: a handler that
// uninstalls itself and then panics exhausts its budget after it has left
// the event. The fault controller must not journal a quarantine for it —
// the record would follow the binding's uninstall, and a boot replaying
// "quarantine of unknown binding" cannot come up.
func TestFaultOnUninstalledBindingLeavesReplayableJournal(t *testing.T) {
	// leave removes the running handler's own binding from e; install puts
	// the handler on e and returns that binding.
	for _, tc := range []struct {
		name    string
		install func(e *Event, h Handler) (*Binding, error)
		leave   func(e *Event, self *Binding) error
	}{
		{"handler uninstalls itself",
			func(e *Event, h Handler) (*Binding, error) { return e.Install(h) },
			func(e *Event, self *Binding) error { return e.Uninstall(self) }},
		{"default handler clears itself",
			func(e *Event, h Handler) (*Binding, error) {
				if err := e.SetDefaultHandler(h); err != nil {
					return nil, err
				}
				return e.defaultBinding(), nil
			},
			func(e *Event, self *Binding) error { return e.SetDefaultHandler(Handler{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := journal.NewMemSink()
			j := journal.New(journal.Config{Sink: sink, FlushInterval: -1})
			sim := vtime.NewSimulator(&vtime.Clock{})
			d := New(WithJournal(j), WithSimulator(sim),
				WithFaultPolicy(fault.Policy{Budget: 1, Backoff: time.Millisecond, Probation: time.Millisecond}))
			e := mustDefine(t, d, "F.Gone", rtti.Sig(nil, rtti.Word))

			var self *Binding
			self, err := tc.install(e, handler(voidProc("Quitter", rtti.Word), func(any, []any) any {
				if err := tc.leave(e, self); err != nil {
					t.Errorf("leaving the event: %v", err)
				}
				panic("after uninstall")
			}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Raise1(uint64(1)); err != nil && !errors.Is(err, ErrNoHandler) {
				t.Fatalf("Raise1: %v", err)
			}
			sim.Run(0) // any backoff or probation timer the fault armed

			if self.Quarantined() || d.FaultLedger().State(self) != fault.Healthy {
				t.Errorf("departed binding left quarantined=%v, ledger state %v",
					self.Quarantined(), d.FaultLedger().State(self))
			}
			// The operator path is held to the same rule.
			if d.quarantineBinding(self) || d.readmitBinding(self) {
				t.Error("operator quarantine/readmit acted on a departed binding")
			}
			j.Flush()
			for _, rec := range journal.Scan(sink.Bytes()).SealedRecords() {
				if rec.Kind != journal.KindInstall && rec.Kind != journal.KindUninstall {
					t.Errorf("journal holds %v for binding %d after its uninstall", rec.Kind, rec.ID)
				}
			}
			if err := replayIntoTwin(t, sink.Bytes(), "F.Gone"); err != nil {
				t.Fatalf("journal does not replay: %v", err)
			}
		})
	}
}

// TestFaultRacingUninstallLeavesReplayableJournal is the same hazard with
// the uninstall on another goroutine: whichever of the panic's quarantine
// and the uninstall commits first, the journal must replay. Run under
// -race.
func TestFaultRacingUninstallLeavesReplayableJournal(t *testing.T) {
	for round := 0; round < 50; round++ {
		sink := journal.NewMemSink()
		j := journal.New(journal.Config{Sink: sink, FlushInterval: -1})
		sim := vtime.NewSimulator(&vtime.Clock{})
		d := New(WithJournal(j), WithSimulator(sim), WithFaultPolicy(fault.Policy{Budget: 1,
			Backoff: time.Millisecond, Probation: time.Millisecond}))
		e := mustDefine(t, d, "F.Race", rtti.Sig(nil, rtti.Word))
		b, err := e.Install(handler(voidProc("Bad", rtti.Word), func(any, []any) any {
			panic("boom")
		}))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = e.Raise1(uint64(1)) // ErrNoHandler when the uninstall wins
		}()
		go func() {
			defer wg.Done()
			if err := e.Uninstall(b); err != nil {
				t.Errorf("Uninstall: %v", err)
			}
		}()
		wg.Wait()
		sim.Run(0) // a late readmit or restore record would land here
		j.Flush()
		if err := replayIntoTwin(t, sink.Bytes(), "F.Race"); err != nil {
			t.Fatalf("round %d: journal does not replay: %v", round, err)
		}
	}
}

var updateControlGolden = flag.Bool("update", false, "rewrite testdata/control.golden from this run")

// TestControlPlaneJournalGolden pins the control plane's observable commit
// sequence: one deterministic script drives every control path — ordered
// installs, SetOrder, default handlers, operator and fault-driven
// quarantine, module quarantine, degradation, quotas, the authority
// operations, event removal — and prints, after each step, the sealed
// journal records and control-plane spans the step committed and the
// resulting handler lists. testdata/control.golden was generated before
// the control paths were folded into Event.commit; a refactor of that
// plumbing must leave the output byte-identical (-update rewrites it,
// only for a change meant to move a record or span).
func TestControlPlaneJournalGolden(t *testing.T) {
	sink := journal.NewMemSink()
	j := journal.New(journal.Config{Sink: sink, FlushInterval: -1})
	defer j.Close()
	sim := vtime.NewSimulator(&vtime.Clock{})
	tr := trace.New(trace.Config{})
	d := New(WithJournal(j), WithSimulator(sim), WithTracer(tr),
		WithFaultPolicy(fault.Policy{Budget: 1, Backoff: time.Millisecond, Probation: time.Millisecond}),
		WithAdmission(AdmissionConfig{Levels: []admit.Level{
			{Name: "brownout", MinPriority: 2}, {Name: "shed", MinPriority: 1}}}))
	nop := func(any, []any) any { return nil }
	h := func(name string) Handler { return handler(voidProc(name, rtti.Word), nop) }
	ext := rtti.NewModule("Ext")
	extH := func(name string) Handler {
		return Handler{Proc: &rtti.Proc{Name: name, Module: ext, Sig: rtti.Sig(nil, rtti.Word)}, Fn: nop}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	install := func(e *Event, hd Handler, opts ...InstallOption) *Binding {
		t.Helper()
		b, err := e.Install(hd, opts...)
		must(err)
		return b
	}

	var out strings.Builder
	var events []*Event
	records, lastSpan := 0, uint64(0)
	step := func(label string, fn func()) {
		t.Helper()
		fn()
		j.Flush()
		fmt.Fprintf(&out, "== %s\n", label)
		recs := journal.Scan(sink.Bytes()).SealedRecords()
		for _, r := range recs[records:] {
			fmt.Fprintf(&out, "  rec %-16v seq=%d id=%d ref=%d ev=%q mod=%q h=%q flags=%#x pri=%d a=%d b=%d\n",
				r.Kind, r.Seq, r.ID, r.RefID, r.Event, r.Module, r.Handler, r.Flags, r.Priority, r.A, r.B)
		}
		records = len(recs)
		for _, sp := range tr.Snapshot() {
			if sp.Seq <= lastSpan {
				continue
			}
			lastSpan = sp.Seq
			if sp.Raise == 0 {
				fmt.Fprintf(&out, "  span %-11v ev=%q name=%q detail=%d pass=%v\n", sp.Kind, sp.Event, sp.Name, sp.Detail, sp.Pass)
			}
		}
		for _, e := range events {
			var list []string
			for _, b := range e.Bindings() {
				s := fmt.Sprintf("%s#%d", b.HandlerName(), b.JournalID())
				if b.Quarantined() {
					s += "(Q)"
				}
				if b.Degraded() {
					s += "(D)"
				}
				list = append(list, s)
			}
			def := "-"
			if db := e.defaultBinding(); db != nil {
				def = fmt.Sprintf("%s#%d", db.HandlerName(), db.JournalID())
			}
			fmt.Fprintf(&out, "  %s %v default=%s\n", e.Name(), list, def)
		}
	}

	var order, dflt, op, flt, mod, gone *Event
	var b1, b2, b3 *Binding
	step("define (intrinsic, owned, plain)", func() {
		order = mustDefine(t, d, "C.Order", rtti.Sig(nil, rtti.Word), WithIntrinsic(h("Intr")))
		dflt = mustDefine(t, d, "C.Default", rtti.Sig(nil, rtti.Word), WithOwner(testModule))
		op = mustDefine(t, d, "C.Op", rtti.Sig(nil, rtti.Word))
		flt = mustDefine(t, d, "C.Fault", rtti.Sig(nil, rtti.Word))
		mod = mustDefine(t, d, "C.Mod", rtti.Sig(nil, rtti.Word))
		gone = mustDefine(t, d, "C.Gone", rtti.Sig(nil, rtti.Word), WithIntrinsic(h("GoneIntr")))
		events = []*Event{order, dflt, op, flt, mod, gone}
	})
	step("ordered installs", func() {
		b1 = install(order, h("A"))
		b2 = install(order, h("B"), First())
		b3 = install(order, h("C"), Before(b1), WithPriority(2))
		install(order, h("D"), After(b2), WithPriority(1))
		install(order, h("E"), Last(), Async(), WithDeadline(5*time.Millisecond))
		eph := handler(&rtti.Proc{Name: "F", Module: testModule, Sig: rtti.Sig(nil, rtti.Word), Ephemeral: true}, nop)
		install(order, eph, Ephemeral(2*time.Millisecond))
	})
	step("SetOrder first, before, after, last", func() {
		must(order.SetOrder(b1, Order{Kind: OrderFirst}))
		must(order.SetOrder(b3, Order{Kind: OrderBefore, Ref: b2}))
		must(order.SetOrder(b2, Order{Kind: OrderAfter, Ref: b1}))
		must(order.SetOrder(b3, Order{Kind: OrderLast}))
		if order.SetOrder(b1, Order{Kind: OrderBefore, Ref: b1}) == nil {
			t.Fatal("self-ordering accepted")
		}
	})
	step("uninstall regular and intrinsic", func() {
		must(order.Uninstall(b2))
		must(order.Uninstall(order.IntrinsicBinding()))
		if order.Uninstall(b2) == nil {
			t.Fatal("double uninstall accepted")
		}
	})
	step("default handler set, replace, clear", func() {
		must(dflt.SetDefaultHandler(h("D1")))
		must(dflt.SetDefaultHandler(h("D2")))
		must(dflt.SetDefaultHandler(Handler{}))
		must(dflt.SetDefaultHandler(h("D3")))
	})
	step("authority: authorizer, result handler, imposed guards", func() {
		g := Guard{Pred: codegen.ArgEq(0, 1)}
		must(dflt.InstallAuthorizer(func(req *AuthRequest) bool {
			return req.Binding == nil || req.Binding.HandlerName() != "Denied"
		}, testModule))
		if _, err := dflt.Install(h("Denied")); !errors.Is(err, ErrDenied) {
			t.Fatalf("denied install: %v", err)
		}
		x := install(dflt, h("Guarded"))
		must(dflt.SetResultHandler(func(acc, r any, _ int) any { return r }))
		must(dflt.ImposeGuard(x, g, testModule))
		must(dflt.RemoveImposedGuards(x, testModule))
	})
	step("trace and admission toggles", func() {
		op.Trace(nil)
		op.Trace(tr)
		pol := admit.Policy{Depth: 4}
		op.SetAdmission(&pol)
		op.SetAdmission(nil)
	})
	var q *Binding
	step("operator quarantine and readmit", func() {
		q = install(op, h("Q1"))
		install(op, h("Q2"))
		if !d.quarantineBinding(q) || d.quarantineBinding(q) {
			t.Fatal("QuarantineBinding")
		}
		if !d.readmitBinding(q) || d.readmitBinding(q) {
			t.Fatal("ReadmitBinding")
		}
	})
	step("fault: handler panics", func() {
		install(flt, handler(voidProc("Bad", rtti.Word), func(any, []any) any { panic("boom") }))
		install(flt, h("Good"))
		_, _ = flt.Raise1(uint64(1))
	})
	step("fault: probation and restore", func() { sim.Run(0) })
	step("fault: handler uninstalls itself, then panics", func() {
		var self *Binding
		self = install(flt, handler(voidProc("Quitter", rtti.Word), func(any, []any) any {
			must(flt.Uninstall(self))
			panic("after uninstall")
		}))
		_, _ = flt.Raise1(uint64(1))
		sim.Run(0)
	})
	var x1 *Binding
	step("module quarantine", func() {
		x1 = install(mod, extH("X1"))
		install(mod, extH("X2"), WithPriority(1))
		install(mod, h("Mine"))
		d.quarantineBinding(x1)
		if n := d.QuarantineModule(ext); n != 1 {
			t.Fatalf("QuarantineModule flipped %d, want 1", n)
		}
		if _, err := mod.Install(extH("X3")); !errors.Is(err, ErrModuleQuarantined) {
			t.Fatalf("install by quarantined module: %v", err)
		}
	})
	step("module readmit", func() {
		if n := d.ReadmitModule(ext); n != 2 {
			t.Fatalf("ReadmitModule restored %d, want 2", n)
		}
	})
	for _, level := range []int{1, 2, 2, 0} {
		step(fmt.Sprintf("degrade to level %d", level), func() { d.forceDegradationLevel(level) })
	}
	step("quotas", func() {
		d.SetQuotas(1, 0)
		if _, err := mod.Install(h("OverQuota")); !errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("install over quota: %v", err)
		}
		d.SetQuotas(0, 0)
	})

	path := filepath.Join("testdata", "control.golden")
	if *updateControlGolden {
		must(os.MkdirAll("testdata", 0o755))
		must(os.WriteFile(path, []byte(out.String()), 0o644))
	}
	want, err := os.ReadFile(path)
	must(err)
	if got := out.String(); got != string(want) {
		t.Fatalf("control-plane commit sequence drifted from %s (-update rewrites it):\n%s", path, got)
	}
}
