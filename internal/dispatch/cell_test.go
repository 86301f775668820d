package dispatch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spin/internal/journal"
	"spin/internal/rtti"
)

// Tests for the per-stripe frame cells (frameCell): the raise count with
// the frame's busy bit folded in, and the argument frame Raise1..Raise5
// own through it.

// ownsCell reports whether args is the frame of a cell its raise owns.
func ownsCell(e *Event, args []any) bool {
	for i := range e.cells {
		c := &e.cells[i]
		if c.w.Load()&1 == 1 && len(args) > 0 && &args[0] == &c.frame[0] {
			return true
		}
	}
	return false
}

// busyCells counts the event's cells whose frame a raise owns.
func busyCells(e *Event) int {
	n := 0
	for i := range e.cells {
		n += int(e.cells[i].w.Load() & 1)
	}
	return n
}

// holdIdle claims every idle cell of e, as a raise in flight on each
// stripe would, so the next arity-specialized raise takes the pooled path
// whatever stripe its stack hashes to. unhold takes the claims back
// uncounted.
func holdIdle(e *Event) []*frameCell {
	var held []*frameCell
	for i := range e.cells {
		c := &e.cells[i]
		if v := c.w.Load(); v&1 == 0 && c.w.CompareAndSwap(v, v+1) {
			held = append(held, c)
		}
	}
	return held
}

func unhold(held []*frameCell) {
	for _, c := range held {
		c.w.Add(-1)
	}
}

// TestCellReleasedByPanickingHandler: a bare handler that panics out to its
// raiser still releases the frame cell (the release is deferred), so the
// next raise owns a cell again, and the panicking raise counts as raised
// and fired, as TestStatsCountEveryExecutor's bare-panic row has it.
func TestCellReleasedByPanickingHandler(t *testing.T) {
	d := New()
	var e *Event
	var owned []bool
	var raised []int64
	h := fastHandler(2)
	h.Fn = func(_ any, args []any) any {
		owned = append(owned, ownsCell(e, args))
		raised = append(raised, e.Stats().Raised) // an owner counts as raised in flight
		if args[0] == uint64(1) {
			panic("bare handler fault")
		}
		return nil
	}
	e = mustDefine(t, d, "Cell.Panic", fastSig(2), WithIntrinsic(h))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the handler's panic did not reach the raiser")
			}
		}()
		_, _ = e.Raise2(uint64(1), uint64(2))
	}()
	if n := busyCells(e); n != 0 {
		t.Fatalf("%d cells still busy after the panicking raise", n)
	}
	if _, err := e.Raise2(uint64(3), uint64(4)); err != nil {
		t.Fatal(err)
	}
	if len(owned) != 2 || !owned[0] || !owned[1] {
		t.Fatalf("raises owned a cell: %v, want [true true]", owned)
	}
	if len(raised) != 2 || raised[0] != 1 || raised[1] != 2 {
		t.Fatalf("Raised read from the handlers: %v, want [1 2]", raised)
	}
	if st := e.Stats(); st.Raised != 2 || st.Fired != 2 {
		t.Fatalf("stats = %+v, want Raised=2 Fired=2", st)
	}
}

// TestCellPinsNoArgument: after a raise returns, its cell holds no
// reference to the arguments it carried.
func TestCellPinsNoArgument(t *testing.T) {
	d := New()
	var e *Event
	owned := false
	h := fastHandler(2)
	h.Fn = func(_ any, args []any) any { owned = ownsCell(e, args); return nil }
	e = mustDefine(t, d, "Cell.Pin", fastSig(2), WithIntrinsic(h))
	defer runtime.KeepAlive(e) // a dead event's cells would pin nothing
	freed := make(chan struct{})
	func() {
		arg := new([64]byte)
		runtime.SetFinalizer(arg, func(*[64]byte) { close(freed) })
		if _, err := e.Raise2(arg, arg); err != nil {
			t.Fatal(err)
		}
	}()
	if !owned {
		t.Fatal("the raise did not own a cell")
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the argument is still reachable after the raise returned")
}

// TestReentrantRaiseTakesFallback: a raise of the same event from inside
// its own handler cannot take the frame the outer raise is running on. It
// raises on a pooled frame, both raises count, and the outer handler's
// arguments survive the inner raise.
func TestReentrantRaiseTakesFallback(t *testing.T) {
	for _, hold := range []bool{false, true} {
		d := New()
		var e *Event
		var innerOwned, outerIntact bool
		h := fastHandler(2)
		h.Fn = func(_ any, args []any) any {
			if args[0] != uint64(1) {
				innerOwned = ownsCell(e, args)
				return nil
			}
			var held []*frameCell
			if hold {
				held = holdIdle(e)
			}
			_, err := e.Raise2(uint64(2), uint64(3))
			unhold(held)
			if err != nil {
				t.Error(err)
			}
			outerIntact = args[0] == uint64(1) && args[1] == uint64(7)
			return nil
		}
		e = mustDefine(t, d, "Cell.Reentrant", fastSig(2), WithIntrinsic(h))
		if _, err := e.Raise2(uint64(1), uint64(7)); err != nil {
			t.Fatal(err)
		}
		if !outerIntact {
			t.Fatalf("hold=%v: the inner raise overwrote the outer raise's frame", hold)
		}
		if hold && innerOwned {
			t.Fatal("the inner raise owned a cell while every cell was busy")
		}
		if n := busyCells(e); n != 0 {
			t.Fatalf("hold=%v: %d cells still busy", hold, n)
		}
		if st := e.Stats(); st.Raised != 2 || st.Fired != 2 {
			t.Fatalf("hold=%v: stats = %+v, want Raised=2 Fired=2", hold, st)
		}
	}
}

// TestBatchTakeBackKeepsBusyBit: a batch counts its frames on a cell whose
// frame another raise owns, and a plan swap mid-batch makes it take back
// the frames it did not run. Neither add may touch the owner's busy bit,
// and the count comes out exact.
func TestBatchTakeBackKeepsBusyBit(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "Cell.Batch", rtti.Sig(nil, rtti.Word))
	var fired int64
	var victim *Binding
	if _, err := e.Install(handler(voidProc("Saboteur", rtti.Word), func(_ any, args []any) any {
		fired++
		if args[0] == uint64(7) && victim != nil {
			if err := e.Uninstall(victim); err != nil {
				t.Error(err)
			}
			victim = nil
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	var err error
	victim, err = e.Install(handler(voidProc("Victim", rtti.Word), func(any, []any) any { fired++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]any, 64)
	for i := range flat {
		flat[i] = uint64(i % 3)
	}
	flat[40] = uint64(7)
	held := holdIdle(e)
	if len(held) != len(e.cells) {
		t.Fatalf("held %d of %d cells", len(held), len(e.cells))
	}
	out := e.RaiseBatch1(flat)
	if n := busyCells(e); n != len(e.cells) {
		t.Fatalf("%d of %d held cells still busy after the batch", n, len(e.cells))
	}
	unhold(held)
	if out.Raised != len(flat) || out.Fired != fired {
		t.Fatalf("outcome %+v, want Raised=%d Fired=%d", out, len(flat), fired)
	}
	if st := e.Stats(); st.Raised != int64(len(flat)) || st.Fired != fired {
		t.Fatalf("stats = %+v, want Raised=%d Fired=%d", st, len(flat), fired)
	}
}

// TestCellsCountParallelRaises: two goroutines raise one event, through
// owned cells and, when their stripes collide or the raise is variadic,
// through pooled frames. Raised is exact, and so is the journal's sample:
// each cell's count 1, 2, 3, … is drawn once, so the raise records are
// the multiples of the sampling interval in each cell's final count.
func TestCellsCountParallelRaises(t *testing.T) {
	const workers, perWorker, every = 2, 20001, 4 // not a multiple of every, so an off-by-one draw shows
	sink := journal.NewMemSink()
	j := journal.New(journal.Config{Sink: sink, SampleRaises: every, FlushInterval: -1})
	d := New(WithJournal(j))
	var calls atomic.Int64
	h := fastHandler(2)
	h.Fn = func(any, []any) any { calls.Add(1); return nil }
	e := mustDefine(t, d, "Cell.Parallel", fastSig(2), WithIntrinsic(h))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var err error
				if i%5 == 0 {
					_, err = e.Raise(uint64(i), uint64(w))
				} else {
					_, err = e.Raise2(uint64(i), uint64(w))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const total = workers * perWorker
	if st := e.Stats(); st.Raised != total || st.Fired != total || calls.Load() != total {
		t.Fatalf("stats = %+v, handler calls %d, want %d each", st, calls.Load(), total)
	}
	checkSampled(t, e, j, sink, every)
}

// checkSampled closes j and checks that the raise records sampled from e,
// recorded or dropped at ingress, are exactly the multiples of every in
// each cell's final count: each cell's count 1, 2, 3, … is drawn once.
func checkSampled(t *testing.T, e *Event, j *journal.Journal, sink *journal.MemSink, every int64) {
	t.Helper()
	var want int64
	for i := range e.cells {
		want += (e.cells[i].w.Load() + 1) >> 1 / every
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	res := journal.Scan(sink.Bytes())
	got := j.Stats().DroppedRaises
	for _, r := range append(res.SealedRecords(), res.Tail...) {
		if r.Kind == journal.KindRaise {
			got++
		}
	}
	if got != want {
		t.Fatalf("%d raise records sampled or dropped, want %d", got, want)
	}
}

// TestOwnedRaiseDrawsItsCount: an owned raise's sampling draw is its own
// count on the cell, v/2+1 for the word v it claimed, as a pooled raise's
// is the count its add returns. Seven raises at 1-in-4 draw once, not at
// a count of 0 as well.
func TestOwnedRaiseDrawsItsCount(t *testing.T) {
	sink := journal.NewMemSink()
	j := journal.New(journal.Config{Sink: sink, SampleRaises: 4, FlushInterval: -1})
	d := New(WithJournal(j))
	var e *Event
	owned := 0
	h := fastHandler(2)
	h.Fn = func(_ any, args []any) any {
		if ownsCell(e, args) {
			owned++
		}
		return nil
	}
	e = mustDefine(t, d, "Cell.Draw", fastSig(2), WithIntrinsic(h))
	for i := 0; i < 7; i++ {
		if _, err := e.Raise2(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if owned != 7 {
		t.Fatalf("%d of 7 raises owned a cell", owned)
	}
	checkSampled(t, e, j, sink, 4)
}

// TestNestedRaiseZeroAlloc: the netstack's receive shape, Ether's handler
// raising Ip and Ip's raising Udp, each through Raise2, allocates nothing.
// Each layer owns its own event's cell.
func TestNestedRaiseZeroAlloc(t *testing.T) {
	d := New()
	var udp atomic.Int64
	layer := func(name string, next *Event) *Event {
		h := fastHandler(2)
		h.Fn = func(_ any, args []any) any {
			if next == nil {
				udp.Add(1)
				return nil
			}
			if _, err := next.Raise2(args[0], args[1]); err != nil {
				t.Error(err)
			}
			return nil
		}
		return mustDefine(t, d, name, fastSig(2), WithIntrinsic(h))
	}
	ether := layer("Cell.Ether", layer("Cell.Ip", layer("Cell.Udp", nil)))
	if n := testing.AllocsPerRun(1000, func() { _, _ = ether.Raise2(uint64(1), uint64(2)) }); n != 0 {
		t.Errorf("nested Raise2 chain allocates %v/op, want 0", n)
	}
	if udp.Load() == 0 {
		t.Fatal("the innermost handler never ran")
	}
}
