package admit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedPool returns a pool whose single worker is blocked until release is
// closed, so tests can fill queues deterministically.
func gatedPool(t *testing.T) (pool *Pool, release chan struct{}) {
	t.Helper()
	pool = NewPool(1)
	release = make(chan struct{})
	started := make(chan struct{})
	pool.Go(func() {
		close(started)
		<-release
	})
	<-started
	return pool, release
}

func waitStats(t *testing.T, q *Queue, pred func(QueueStats) bool) QueueStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := q.Stats()
		if pred(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for queue state; stats = %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShedPolicyRejectsNewest(t *testing.T) {
	pool, release := gatedPool(t)
	defer close(release)
	q := NewQueue("E", Policy{Mode: Shed, Depth: 2}, pool)
	var ran atomic.Int64
	work := func() { ran.Add(1) }
	if err := q.Submit(context.Background(), nil, work); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(context.Background(), nil, work); err != nil {
		t.Fatal(err)
	}
	err := q.Submit(context.Background(), nil, work)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Queue != "E" || oe.Mode != Shed {
		t.Fatalf("overload error = %+v", oe)
	}
	s := q.Stats()
	if s.Submitted != 3 || s.Shed != 1 || s.Depth != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestShedOldestDropsHead(t *testing.T) {
	pool, release := gatedPool(t)
	q := NewQueue("E", Policy{Mode: ShedOldest, Depth: 2}, pool)
	var got []int
	var mu sync.Mutex
	mk := func(i int) Work {
		return func() { mu.Lock(); got = append(got, i); mu.Unlock() }
	}
	for i := 1; i <= 4; i++ {
		if err := q.Submit(context.Background(), nil, mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	s := waitStats(t, q, func(s QueueStats) bool { return s.Completed == 2 && s.Depth == 0 })
	if s.Shed != 2 || s.Submitted != 4 {
		t.Fatalf("stats = %+v", s)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("ran %v, want the two newest [3 4]", got)
	}
}

func TestCoalesceMergesByKey(t *testing.T) {
	pool, release := gatedPool(t)
	q := NewQueue("E", Policy{Mode: Coalesce, Depth: 8}, pool)
	var ran atomic.Int64
	work := func() { ran.Add(1) }
	type key struct{ n int }
	k := &key{1}
	for i := 0; i < 5; i++ {
		if err := q.Submit(context.Background(), k, work); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Submit(context.Background(), &key{2}, work); err != nil {
		t.Fatal(err)
	}
	close(release)
	s := waitStats(t, q, func(s QueueStats) bool { return s.Depth == 0 && s.Completed == 2 })
	if s.Coalesced != 4 || s.Submitted != 6 {
		t.Fatalf("stats = %+v", s)
	}
	if ran.Load() != 2 {
		t.Fatalf("ran %d, want 2 (one per distinct key)", ran.Load())
	}
}

func TestBlockTimesOutAsShed(t *testing.T) {
	pool, release := gatedPool(t)
	defer close(release)
	q := NewQueue("E", Policy{Mode: Block, Depth: 1, BlockTimeout: 10 * time.Millisecond}, pool)
	work := func() {}
	if err := q.Submit(context.Background(), nil, work); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := q.Submit(context.Background(), nil, work)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload after timeout", err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("block returned before the timeout")
	}
	if s := q.Stats(); s.Shed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBlockAdmitsWhenSpaceFrees(t *testing.T) {
	pool := NewPool(1)
	q := NewQueue("E", Policy{Mode: Block, Depth: 1}, pool)
	gate := make(chan struct{})
	slow := func() { <-gate }
	if err := q.Submit(context.Background(), nil, slow); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to take the first item so the queue slot frees
	// only when the second submission is already blocked.
	waitStats(t, q, func(s QueueStats) bool { return s.Depth == 0 })
	if err := q.Submit(context.Background(), nil, slow); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- q.Submit(context.Background(), nil, func() {}) }()
	select {
	case err := <-done:
		t.Fatalf("blocked submit returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked submit failed after space freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked submit never admitted")
	}
	waitStats(t, q, func(s QueueStats) bool { return s.Completed == 3 })
}

func TestBlockHonorsContext(t *testing.T) {
	pool, release := gatedPool(t)
	defer close(release)
	q := NewQueue("E", Policy{Mode: Block, Depth: 1}, pool)
	if err := q.Submit(context.Background(), nil, func() {}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := q.Submit(ctx, nil, func() {}); !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload on context end", err)
	}
}

func TestPoolBoundsWorkers(t *testing.T) {
	pool := NewPool(3)
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 50; i++ {
		wg.Add(1)
		pool.Go(func() {
			defer wg.Done()
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			<-gate
			running.Add(-1)
		})
	}
	time.Sleep(20 * time.Millisecond)
	if s := pool.Stats(); s.Running > 3 {
		t.Fatalf("pool running %d workers, cap 3", s.Running)
	}
	close(gate)
	wg.Wait()
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d, cap 3", p)
	}
}

func TestPoolWorkersExitWhenIdle(t *testing.T) {
	pool := NewPool(4)
	pool.idleTimeout = 5 * time.Millisecond
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		pool.Go(func() { wg.Done() })
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := pool.Stats(); s.Running == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers lingered: %+v", pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAbandonReclaimRestoresCapacity(t *testing.T) {
	pool := NewPool(1)
	stuck := make(chan struct{})
	pool.Go(func() { <-stuck })
	time.Sleep(5 * time.Millisecond)
	// The only worker is stuck. A watchdog abandons it: capacity rises,
	// and a replacement can serve new work.
	pool.Abandon()
	done := make(chan struct{})
	pool.Go(func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("replacement worker never ran after Abandon")
	}
	if s := pool.Stats(); s.Abandoned != 1 || s.Extra != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The stuck invocation returns: Reclaim shrinks capacity back and the
	// surplus worker exits.
	close(stuck)
	pool.Reclaim()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := pool.Stats(); s.Running <= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("surplus worker never exited: %+v", pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDegraderTransitions(t *testing.T) {
	g := NewDegrader([]Level{
		{Name: "brownout", QueueDepth: 10, MinPriority: 2},
		{Name: "blackout", QueueDepth: 50, ShedRate: 0.5, MinPriority: 1},
	}, 2)

	if from, to, changed := g.Observe(5, 0); changed || from != 0 || to != 0 {
		t.Fatalf("calm observation transitioned: %d -> %d", from, to)
	}
	// Depth crosses the first rung.
	if from, to, changed := g.Observe(12, 0); !changed || from != 0 || to != 1 {
		t.Fatalf("expected 0->1, got %d->%d changed=%v", from, to, changed)
	}
	if g.MinPriority() != 2 {
		t.Fatalf("MinPriority = %d", g.MinPriority())
	}
	// Shed rate alone escalates straight to the second rung.
	if _, to, changed := g.Observe(12, 0.6); !changed || to != 2 {
		t.Fatalf("expected escalation to 2, got %d", to)
	}
	// One calm observation is not enough (hold = 2).
	if _, _, changed := g.Observe(0, 0); changed {
		t.Fatal("stepped down after one calm observation")
	}
	if _, to, changed := g.Observe(0, 0); !changed || to != 1 {
		t.Fatalf("expected step down to 1, got %d changed=%v", to, changed)
	}
	// A load spike resets the calm counter.
	g.Observe(0, 0)
	if _, to, changed := g.Observe(60, 0); !changed || to != 2 {
		t.Fatalf("expected re-escalation to 2, got %d", to)
	}
	if g.LevelName(g.Level()) != "blackout" {
		t.Fatalf("level name = %q", g.LevelName(g.Level()))
	}
}

func TestQueueAccountingIdentity(t *testing.T) {
	for _, mode := range []Mode{Shed, ShedOldest, Coalesce} {
		pool := NewPool(4)
		q := NewQueue("E", Policy{Mode: mode, Depth: 4}, pool)
		var wg sync.WaitGroup
		key := new(int)
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = q.Submit(context.Background(), key, func() {
					time.Sleep(100 * time.Microsecond)
				})
			}()
		}
		wg.Wait()
		s := waitStats(t, q, func(s QueueStats) bool { return s.Drained() })
		if got := s.Completed + s.Shed + s.Coalesced; got != s.Submitted {
			t.Fatalf("%v: %d completed + %d shed + %d coalesced = %d, want %d submitted",
				mode, s.Completed, s.Shed, s.Coalesced, got, s.Submitted)
		}
		if !s.Identity() {
			t.Fatalf("%v: drained ledger %+v breaks Identity", mode, s)
		}
	}
}
