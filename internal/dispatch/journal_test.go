package dispatch

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"spin/internal/fault"
	"spin/internal/journal"
	"spin/internal/rtti"
	"spin/internal/vtime"
)

// Differential tests for the lifecycle journal: the zero-cost-off
// contract, the lifecycle-only sampling-off raise path, and boot-time
// replay checked three ways against each other — the live source
// dispatcher, a fresh dispatcher reconstructed by ReplayJournal, and the
// journal package's symbolic State oracle.

// TestJournalOffZeroAlloc pins the zero-cost-off contract: a dispatcher
// constructed without WithJournal compiles no journal reference into any
// plan, and the raise path allocates nothing. This is the fourth standing
// 0-alloc invariant (alongside tracing-off, fault-policy-on, and
// admission-no-policy) gated by `make alloccheck`.
func TestJournalOffZeroAlloc(t *testing.T) {
	d := New()
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
		if tc.e.Plan().Journal() != nil {
			t.Fatalf("%s: journal-off dispatcher compiled a journal into the plan", tc.name)
		}
		if allocs := testing.AllocsPerRun(1000, func() { _, _ = tc.e.Raise1(uint64(7)) }); allocs != 0 {
			t.Errorf("%s: journal-off raise allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
}

// TestJournalLifecycleOnlyRaiseDoesNotAllocate: attaching a journal with
// raise sampling disabled (SampleRaises: 0, lifecycle records only) must
// leave the raise path allocation-free — the compiled-in hook is one nil
// check plus a mask test that never passes. Sampling-on rates are covered
// by `spinbench -table journal` (allocs/op stays 0 there too, but the
// worker goroutine makes AllocsPerRun nondeterministic, so the alloc gate
// pins only the sampling-off shapes).
func TestJournalLifecycleOnlyRaiseDoesNotAllocate(t *testing.T) {
	sink := journal.NewMemSink()
	j := journal.New(journal.Config{Sink: sink, FlushInterval: -1})
	defer j.Close()
	d := New(WithJournal(j))
	e := mustDefine(t, d, "J.On", rtti.Sig(nil, rtti.Word),
		WithIntrinsic(handler(voidProc("D", rtti.Word), func(any, []any) any { return nil })))
	if e.Plan().Journal() != j {
		t.Fatal("journaled dispatcher did not compile the journal into the plan")
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
			frames := make([]ArgFrame, raises)
			for i := range frames {
				frames[i] = ArgFrame{uint64(i)}
			}
			e.RaiseBatch(frames)
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
				frames := make([]ArgFrame, k)
				for i := range frames {
					frames[i] = ArgFrame{uint64(done + i)}
				}
				e.RaiseBatch(frames)
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
	if !dA.QuarantineBinding(b5) {
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

// FuzzJournalReplay drives a journaled dispatcher through a fuzzer-chosen
// lifecycle op sequence, replays the sealed journal into a fresh
// dispatcher, and requires live source, replayed twin, and symbolic
// oracle to agree on binding order, per-binding quarantine state, and
// quotas. It then flips one fuzzer-chosen byte of the sealed journal and
// requires Verify to reject it (every byte is covered by a record CRC or
// the seal's Merkle root). Wired into `make fuzz-smoke`.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x41, 0x82, 0xc3})
	f.Add([]byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef})
	f.Add([]byte{0x05, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04, 0x00, 0x05})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		sink := journal.NewMemSink()
		jA := journal.New(journal.Config{Sink: sink, BatchRecords: 4, FlushInterval: -1})
		dA := New(WithJournal(jA))
		nop := func(any, []any) any { return nil }
		eA := mustDefine(t, dA, "J.Fuzz", rtti.Sig(nil, rtti.Word))

		var installed []*Binding
		pick := func(op byte) *Binding { return installed[int(op>>3)%len(installed)] }
		for _, op := range ops {
			switch op % 6 {
			case 0, 1: // install, with a fuzzer-chosen shape
				name := fmt.Sprintf("H%d", int(op>>3)&7)
				var opts []InstallOption
				switch op >> 6 {
				case 1:
					opts = append(opts, First())
				case 2:
					opts = append(opts, Last())
				case 3:
					opts = append(opts, WithPriority(int(op&3)))
				}
				if b, err := eA.Install(handler(voidProc(name, rtti.Word), nop), opts...); err == nil {
					installed = append(installed, b)
				}
			case 2: // uninstall (keep `installed` to live bindings only, so
				// quarantine ops never reference a dead journal ID)
				if len(installed) > 0 {
					i := int(op>>3) % len(installed)
					if err := eA.Uninstall(installed[i]); err == nil {
						installed = append(installed[:i], installed[i+1:]...)
					}
				}
			case 3:
				if len(installed) > 0 {
					dA.QuarantineBinding(pick(op))
				}
			case 4:
				if len(installed) > 0 {
					dA.ReadmitBinding(pick(op))
				}
			case 5:
				dA.SetQuotas(int(op&15), int(op))
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

		dB := New()
		eB := mustDefine(t, dB, "J.Fuzz", rtti.Sig(nil, rtti.Word))
		resolve := func(module, hname string) (Handler, []InstallOption, bool) {
			if module != testModule.Name() {
				return Handler{}, nil, false
			}
			return handler(voidProc(hname, rtti.Word), nop), nil, true
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
				return e.DefaultBinding(), nil
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
			if d.QuarantineBinding(self) || d.ReadmitBinding(self) {
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
