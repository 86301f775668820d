package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/rtti"
)

// TestShardConcurrentInstallRaiseReshard is the -race soak of the sharded
// plane: raisers hammer routed events on several shards while an installer
// churns bindings under them. Routes are fixed at definition, so no
// reshard runs; raises must never fail, and afterwards the counters are
// conserved — every raise fired its event's stable handler once — and
// every route still agrees with the ring.
func TestShardConcurrentInstallRaiseReshard(t *testing.T) {
	const (
		nEvents  = 24
		raisers  = 4
		perRaise = 400
	)
	r := mustRouter(t, 4)
	events := make([]*Event, nEvents)
	var stable [nEvents]atomic.Int64
	shards := make(map[int]bool)
	for i := range events {
		e := mustDefine(t, r, fmt.Sprintf("Soak.%02d", i))
		i := i
		if _, err := e.Install(dispatch.Handler{Proc: proc("stable"), Fn: func(any, []any) any {
			stable[i].Add(1)
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		events[i] = e
		shards[e.Shard().ID()] = true
	}
	if len(shards) < 2 {
		t.Fatalf("%d soaked events all landed on one shard", nEvents)
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
			b, err := e.Install(dispatch.Handler{Proc: proc("churn"), Fn: func(any, []any) any { return nil }})
			if err != nil {
				t.Errorf("churn install: %v", err)
				return
			}
			if err := e.Uninstall(b); err != nil && !errors.Is(err, dispatch.ErrNotInstalled) {
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
	for _, e := range events {
		if e.Shard().ID() != r.Owner(e.Name()) {
			t.Fatalf("%s route %d disagrees with ring %d after churn", e.Name(), e.Shard().ID(), r.Owner(e.Name()))
		}
	}
}

// TestConcurrentDefineAndRaise: definitions on fresh names proceed while
// another event is being raised; routing stays stable (an event's owner
// never changes after definition).
func TestConcurrentDefineAndRaise(t *testing.T) {
	r := mustRouter(t, 4)
	base := mustDefine(t, r, "Stable.Base",
		dispatch.WithIntrinsic(dispatch.Handler{Proc: proc("i"), Fn: func(any, []any) any { return nil }}))
	owner := base.Shard().ID()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; k < 2000; k++ {
			if _, err := base.Raise1(uintptr(k)); err != nil {
				t.Errorf("raise: %v", err)
				return
			}
			if base.Shard().ID() != owner {
				t.Error("pinned route changed")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; k < 200; k++ {
			if _, err := r.DefineEvent(fmt.Sprintf("Stable.New.%03d", k), rtti.Sig(nil, rtti.Word)); err != nil {
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
