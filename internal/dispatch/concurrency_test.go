package dispatch

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spin/internal/codegen"
	"spin/internal/rtti"
)

// TestConcurrentInstallRaise exercises the atomic plan swap: handler lists
// are updated "atomically with respect to event dispatch by using a single
// memory access to replace the old list with the new one" (§3). Raises run
// lock-free against installs; a raise must always observe a consistent
// plan — never a partially updated one.
func TestConcurrentInstallRaise(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil),
		WithIntrinsic(handler(voidProc("M.P"), func(any, []any) any { return nil })))

	var stop atomic.Bool
	var raises atomic.Int64
	var wg sync.WaitGroup

	// Raisers: every raise must succeed — the intrinsic handler is never
	// removed, so ErrNoHandler would mean a torn plan was observed.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := e.Raise(); err != nil {
					t.Errorf("raise during install: %v", err)
					return
				}
				raises.Add(1)
			}
		}()
	}

	// Installer: churns bindings.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			b, err := e.Install(handler(voidProc("H"), func(any, []any) any { return nil }))
			if err != nil {
				t.Errorf("install: %v", err)
				return
			}
			if err := e.Uninstall(b); err != nil {
				t.Errorf("uninstall: %v", err)
				return
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if raises.Load() == 0 {
		t.Fatal("no raises completed")
	}
}

// TestInstallDoesNotDisruptInFlightDispatch pins the paper's claim that a
// handler can be added or removed "dynamically and without disrupting
// on-going interactions": a dispatch that started before an uninstall
// completes with the plan it loaded.
func TestInstallDoesNotDisruptInFlightDispatch(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))

	entered := make(chan struct{})
	proceed := make(chan struct{})
	var secondRan atomic.Int64

	var once sync.Once
	_, _ = e.Install(handler(voidProc("Slow"), func(any, []any) any {
		// Block only on the first invocation; the verification raise at
		// the end of the test passes straight through.
		first := false
		once.Do(func() { first = true })
		if first {
			close(entered)
			<-proceed
		}
		return nil
	}))
	b2, _ := e.Install(handler(voidProc("Second"), func(any, []any) any {
		secondRan.Add(1)
		return nil
	}))

	done := make(chan error, 1)
	go func() {
		_, err := e.Raise()
		done <- err
	}()
	<-entered
	// Remove the second handler while the raise is between handlers.
	if err := e.Uninstall(b2); err != nil {
		t.Fatal(err)
	}
	close(proceed)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The in-flight dispatch ran against the plan current at raise time,
	// which still contained the second handler.
	if secondRan.Load() != 1 {
		t.Fatalf("in-flight dispatch lost a handler: ran=%d", secondRan.Load())
	}
	// A fresh raise uses the new plan.
	if _, err := e.Raise(); err != nil {
		t.Fatal(err)
	}
	if secondRan.Load() != 1 {
		t.Fatal("uninstalled handler fired on a fresh raise")
	}
}

// TestConcurrentDefines exercises the dispatcher-level registry lock.
func TestConcurrentDefines(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				name := string(rune('A'+i)) + "." + string(rune('a'+j))
				if _, err := d.DefineEvent(name, rtti.Sig(nil)); err != nil {
					errs <- err
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(d.Events()); got != 64 {
		t.Fatalf("events = %d, want 64", got)
	}
}

// TestConcurrentRaisesIndependentEvents verifies raises on distinct events
// share no dispatcher state that would serialize or corrupt them.
func TestConcurrentRaisesIndependentEvents(t *testing.T) {
	d := New()
	const n = 8
	events := make([]*Event, n)
	var counters [n]atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		events[i] = mustDefine(t, d, "E."+string(rune('a'+i)), rtti.Sig(nil))
		_, _ = events[i].Install(handler(voidProc("H"), func(any, []any) any {
			counters[i].Add(1)
			return nil
		}))
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if _, err := events[i].Raise(); err != nil {
					t.Errorf("raise: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if counters[i].Load() != 1000 {
			t.Fatalf("event %d fired %d times", i, counters[i].Load())
		}
	}
}

// TestStatsUnderConcurrency verifies counters are race-free and exact.
func TestStatsUnderConcurrency(t *testing.T) {
	d := New()
	e := mustDefine(t, d, "M.P", rtti.Sig(nil))
	_, _ = e.Install(handler(voidProc("H"), func(any, []any) any { return nil }))
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				_, _ = e.Raise()
			}
		}()
	}
	wg.Wait()
	s := e.Stats()
	if s.Raised != goroutines*per || s.Fired != goroutines*per {
		t.Fatalf("stats = %+v", s)
	}
}

// TestStatsExcessUnderConcurrency races Stats() readers against raisers
// whose raises fire 0 and 2 handlers, single and batched, so every raise
// writes the fired excess (-1 or +1) behind its raised add. A read may
// count a raise in flight as one firing, never a negative excess without
// its raise: it stays within [0, 2*Raised]. After quiescence both totals
// are exact.
func TestStatsExcessUnderConcurrency(t *testing.T) {
	e := mustDefine(t, New(), "M.P", rtti.Sig(nil, rtti.Word))
	for _, name := range []string{"A", "B"} {
		if _, err := e.Install(handler(voidProc(name, rtti.Word), func(any, []any) any { return nil }),
			WithGuard(Guard{Pred: codegen.ArgEq(0, 1)})); err != nil {
			t.Fatal(err)
		}
	}
	const raisers, per = 4, 400
	var stop atomic.Bool
	var raising, reading sync.WaitGroup
	for i := 0; i < 2; i++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for !stop.Load() {
				if s := e.Stats(); s.Fired < 0 || s.Fired > 2*s.Raised {
					t.Errorf("transient Stats %+v outside [0, 2*Raised]", s)
					return
				}
			}
		}()
	}
	for i := 0; i < raisers; i++ {
		raising.Add(1)
		go func(word uint64) {
			defer raising.Done()
			frames := []any{word, word, word, word}
			for j := 0; j < per; j++ {
				if j%2 == 0 {
					_, _ = e.Raise1(word)
				} else {
					e.RaiseBatch1(frames)
				}
			}
		}(uint64(i % 2))
	}
	raising.Wait()
	stop.Store(true)
	reading.Wait()
	// Each raiser makes per/2 single raises and per/2 batches of 4; the
	// raisers of word 1 fire 2 handlers per frame, those of word 0 none.
	frames := int64(raisers * (per/2 + per/2*4))
	if s := e.Stats(); s.Raised != frames || s.Fired != frames {
		t.Fatalf("after quiescence: Stats %+v, want raised %d fired %d", s, frames, frames)
	}
}

// TestShardConcurrentInstallRaiseReshard is the -race soak of install
// churn across many events of one dispatcher (the name is historical: it
// once soaked a sharded plane): raisers hammer 24 events while an
// installer churns bindings under them. Raises must never fail, and
// afterwards the counters are conserved — every raise fired its event's
// stable handler once.
func TestShardConcurrentInstallRaiseReshard(t *testing.T) {
	const (
		nEvents  = 24
		raisers  = 4
		perRaise = 400
	)
	d := New()
	sig := rtti.Sig(nil, rtti.Word)
	events := make([]*Event, nEvents)
	var stable [nEvents]atomic.Int64
	for i := range events {
		e := mustDefine(t, d, fmt.Sprintf("Soak.%02d", i), sig)
		i := i
		if _, err := e.Install(handler(voidProc("stable", rtti.Word), func(any, []any) any {
			stable[i].Add(1)
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		events[i] = e
	}

	var wg sync.WaitGroup
	var raised atomic.Int64
	for g := 0; g < raisers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perRaise; k++ {
				e := events[(g+k)%nEvents]
				if _, err := e.Raise1(uintptr(k)); err != nil {
					t.Errorf("raise %s: %v", e.Name(), err)
					return
				}
				raised.Add(1)
			}
		}(g)
	}
	// Churn installs/uninstalls concurrently with the raises above.
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			e := events[k%nEvents]
			b, err := e.Install(handler(voidProc("churn", rtti.Word), func(any, []any) any { return nil }))
			if err != nil {
				t.Errorf("churn install: %v", err)
				return
			}
			if err := e.Uninstall(b); err != nil && !errors.Is(err, ErrNotInstalled) {
				t.Errorf("churn uninstall: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-churnDone

	var fired, statRaised int64
	for i, e := range events {
		fired += stable[i].Load()
		statRaised += e.Stats().Raised
	}
	if fired != raised.Load() || statRaised != raised.Load() {
		t.Fatalf("stable handlers fired %d, stats count %d raises, want %d", fired, statRaised, raised.Load())
	}
}

// TestConcurrentDefineAndRaise: definitions on fresh names proceed while
// another event of the same dispatcher is being raised, and every raise
// is counted.
func TestConcurrentDefineAndRaise(t *testing.T) {
	d := New()
	sig := rtti.Sig(nil, rtti.Word)
	base := mustDefine(t, d, "Stable.Base", sig,
		WithIntrinsic(handler(voidProc("i", rtti.Word), func(any, []any) any { return nil })))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; k < 2000; k++ {
			if _, err := base.Raise1(uintptr(k)); err != nil {
				t.Errorf("raise: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; k < 200; k++ {
			if _, err := d.DefineEvent(fmt.Sprintf("Stable.New.%03d", k), sig); err != nil {
				t.Errorf("define: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := base.Stats().Raised; got != 2000 {
		t.Fatalf("raised %d, want 2000", got)
	}
}
