package fault

import (
	"sync"
	"testing"
	"time"
)

func TestLedgerRecordOnlyByDefault(t *testing.T) {
	l := NewLedger(Policy{}) // zero value: record-only
	key := new(int)
	for i := 0; i < 10; i++ {
		act := l.Observe(key, Record{Kind: KindPanic, Handler: "H"})
		if act.Quarantine {
			t.Fatalf("record-only ledger produced an action: %+v", act)
		}
	}
	if l.State(key) != Healthy {
		t.Fatalf("state = %v, want Healthy", l.State(key))
	}
	if l.Total() != 10 {
		t.Fatalf("total = %d, want 10", l.Total())
	}
}

func TestLedgerQuarantineProbationRelapse(t *testing.T) {
	p := Policy{Budget: 3, Backoff: 10 * time.Millisecond}
	l := NewLedger(p)
	key := new(int)

	r := Record{Kind: KindPanic, Handler: "H"}
	if act := l.Observe(key, r); act.Quarantine {
		t.Fatal("quarantined on first fault with budget 3")
	}
	if act := l.Observe(key, r); act.Quarantine {
		t.Fatal("quarantined on second fault with budget 3")
	}
	act := l.Observe(key, r)
	if !act.Quarantine || act.Level != 0 || act.Backoff != 10*time.Millisecond {
		t.Fatalf("third fault: act = %+v, want level-0 quarantine with 10ms backoff", act)
	}
	if l.State(key) != Quarantined {
		t.Fatalf("state = %v, want Quarantined", l.State(key))
	}

	// Faults while quarantined (stragglers) never re-trigger.
	if act := l.Observe(key, r); act.Quarantine {
		t.Fatal("straggler fault re-quarantined")
	}

	if !l.Readmit(key) {
		t.Fatal("Readmit failed on quarantined key")
	}
	if l.State(key) != Probation {
		t.Fatalf("state = %v, want Probation", l.State(key))
	}

	// Relapse: one fault on probation re-quarantines with doubled backoff.
	act = l.Observe(key, r)
	if !act.Quarantine || act.Level != 1 || act.Backoff != 20*time.Millisecond {
		t.Fatalf("relapse: act = %+v, want level-1 quarantine with 20ms backoff", act)
	}

	// Clean probation restores full health and resets the generation.
	l.Readmit(key)
	if !l.Restore(key) {
		t.Fatal("Restore failed on probation key")
	}
	if l.State(key) != Healthy || l.Level(key) != 0 {
		t.Fatalf("state = %v level = %d, want Healthy/0", l.State(key), l.Level(key))
	}
}

// TestLedgerBackoffCapped: each relapse doubles the backoff, up to the
// fixed cap of 100 × Backoff.
func TestLedgerBackoffCapped(t *testing.T) {
	l := NewLedger(Policy{Budget: 1, Backoff: 10 * time.Millisecond})
	key := new(int)
	r := Record{Kind: KindPanic}
	want := 10 * time.Millisecond
	for level := 0; level < 10; level++ {
		if level > 0 {
			l.Readmit(key)
		}
		act := l.Observe(key, r)
		if act.Level != level || act.Backoff != want {
			t.Fatalf("level %d: act = %+v, want backoff %v", level, act, want)
		}
		want = min(2*want, time.Second)
	}
}

func TestLedgerForget(t *testing.T) {
	l := NewLedger(Policy{Budget: 1})
	key := new(int)
	l.Observe(key, Record{Kind: KindPanic})
	if l.State(key) != Quarantined {
		t.Fatal("not quarantined")
	}
	l.Forget(key)
	if l.State(key) != Healthy {
		t.Fatal("Forget did not clear state")
	}
	if l.Readmit(key) {
		t.Fatal("Readmit succeeded on forgotten key")
	}
}

func TestLedgerRingRetention(t *testing.T) {
	l := NewLedger(Policy{})
	for i := 0; i < history+3; i++ {
		l.Note(Record{Kind: KindCompare, Handler: "H"})
	}
	recs := l.Records()
	if len(recs) != history {
		t.Fatalf("retained %d records, want %d", len(recs), history)
	}
	for i, r := range recs {
		if want := uint64(4 + i); r.Seq != want {
			t.Fatalf("record %d seq = %d, want %d (oldest-first)", i, r.Seq, want)
		}
	}
	if l.Total() != history+3 {
		t.Fatalf("total = %d, want %d", l.Total(), history+3)
	}
}

// TestLedgerRingGrowsWithFaults: a fresh ledger holds no ring, and returns
// its records oldest-first after 0, 3 and history+7 records, growing to its
// capacity of history and then wrapping.
func TestLedgerRingGrowsWithFaults(t *testing.T) {
	l := NewLedger(Policy{})
	if l.ring != nil {
		t.Fatalf("fresh ledger holds a ring of capacity %d", cap(l.ring))
	}
	noted := 0
	for _, upto := range []int{0, 3, history + 7} {
		for ; noted < upto; noted++ {
			l.Note(Record{Kind: KindCompare, Handler: "H"})
		}
		recs := l.Records()
		first := max(upto-history, 0) + 1 // the oldest retained seq
		if len(recs) != upto-first+1 {
			t.Fatalf("after %d records: retained %d, want %d", upto, len(recs), upto-first+1)
		}
		for i, r := range recs {
			if want := uint64(first + i); r.Seq != want {
				t.Fatalf("after %d records: record %d seq = %d, want %d (oldest-first)", upto, i, r.Seq, want)
			}
		}
	}
}

func TestInjectorDeterministicPanics(t *testing.T) {
	in := NewInjector().PanicEvery("H", 3, 0)
	calls, panics := 0, 0
	h := in.Handler("H", func(any, []any) any { calls++; return nil })
	for i := 1; i <= 9; i++ {
		func() {
			defer func() {
				if v := recover(); v != nil {
					ip, ok := v.(InjectedPanic)
					if !ok || ip.Target != "H" {
						t.Fatalf("unexpected panic value %v", v)
					}
					panics++
				}
			}()
			h(nil, nil)
		}()
	}
	if panics != 3 || calls != 6 {
		t.Fatalf("panics = %d calls = %d, want 3/6", panics, calls)
	}
	if in.Count("H") != 9 {
		t.Fatalf("count = %d, want 9", in.Count("H"))
	}
}

func TestInjectorOffsetAndBadResult(t *testing.T) {
	in := NewInjector().
		PanicEvery("A", 4, 1).
		BadResultEvery("B", 2, 0, "wrong")

	a := in.Handler("A", func(any, []any) any { return "ok" })
	gotPanic := func() (p bool) {
		defer func() { p = recover() != nil }()
		a(nil, nil)
		return false
	}
	// Offset 1: invocations 1, 5, 9 ... panic.
	want := []bool{true, false, false, false, true}
	for i, w := range want {
		if gotPanic() != w {
			t.Fatalf("invocation %d: panic = %v, want %v", i+1, !w, w)
		}
	}

	b := in.Handler("B", func(any, []any) any { return "real" })
	if r := b(nil, nil); r != "real" {
		t.Fatalf("invocation 1: %v", r)
	}
	if r := b(nil, nil); r != "wrong" {
		t.Fatalf("invocation 2: %v, want injected bad result", r)
	}
}

func TestInjectorGuardWrap(t *testing.T) {
	in := NewInjector().BadResultEvery("G", 2, 0, true)
	g := in.Guard("G", func(any, []any) bool { return false })
	if g(nil, nil) {
		t.Fatal("invocation 1 should pass through (false)")
	}
	if !g(nil, nil) {
		t.Fatal("invocation 2 should be forced true")
	}
}

func TestInjectorConcurrentTicks(t *testing.T) {
	in := NewInjector().PanicEvery("H", 1000000, 0) // effectively never
	h := in.Handler("H", func(any, []any) any { return nil })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h(nil, nil)
			}
		}()
	}
	wg.Wait()
	if in.Count("H") != 8000 {
		t.Fatalf("count = %d, want 8000", in.Count("H"))
	}
}
