package scenario

import (
	"runtime"
	"sync"
	"time"

	"spin/internal/admit"
	"spin/internal/dispatch"
)

// Offer raises ev asynchronously from producers goroutines for dur of
// wall-clock time — the open load of the overload drills. Each producer
// tracks how many raises its share of rate (raises/s) is due by now and
// catches up, so the rate holds whatever the host's timer granularity;
// rate <= 0 floods, which is how the drills calibrate what the host
// actually drains. Shed raises are the point, so their errors are dropped.
func Offer(ev *dispatch.Event, rate float64, dur time.Duration, producers int) {
	perProd := rate / float64(producers)
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sent := 0; ; {
				elapsed := time.Since(start)
				if elapsed >= dur {
					return
				}
				due := sent + 1
				if rate > 0 {
					due = int(perProd * elapsed.Seconds())
				}
				for ; sent < due; sent++ {
					_ = ev.RaiseAsync(uint64(sent))
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
}

// AwaitDrained waits until everything submitted to q has completed or been
// shed, so its ledger is final, and returns that ledger.
func AwaitDrained(q *admit.Queue) admit.QueueStats {
	for !q.Stats().Drained() {
		time.Sleep(time.Millisecond)
	}
	return q.Stats()
}
