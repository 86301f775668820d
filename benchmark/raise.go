package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"spin"
	"spin/internal/codegen"
	"spin/internal/dispatch"
	"spin/internal/rtti"
)

// block is one shape of a raise schedule: a fixed number of raises of one
// event, timed as a unit. The block sizes balance the time each shape gets
// in a round.
type block struct {
	shape  string
	raises int64
	// run raises the block once and reports whether every output was right.
	run func() bool
	// event and fires give the fire count the shape must show afterwards.
	event *dispatch.Event
	fires int64
}

// raiseRun is one pass of raise_hot or raise_heavy: a round-robin schedule
// of blocks on a bare dispatcher. An op is one raise; a sample is one round
// divided by its raises.
type raiseRun struct {
	d      *dispatch.Dispatcher
	blocks []block
	// shapeNs holds each block's duration per round; its best decile over
	// the rounds, divided by the block's raises, is dispatch.raise_ns.<shape>.
	shapeNs []hist
	rounds  int64
}

func (r *raiseRun) raisesPerRound() int64 {
	var n int64
	for _, b := range r.blocks {
		n += b.raises
	}
	return n
}

func (r *raiseRun) counts(c *counts) { c.addDispatcher(r.d) }

func (r *raiseRun) close() {}

func (r *raiseRun) run(rec *recorder) error {
	r.shapeNs = make([]hist, len(r.blocks))
	t0 := rec.begin()
	for !rec.done {
		ok, t := true, t0
		for i := range r.blocks {
			ok = r.blocks[i].run() && ok
			now := rec.now()
			r.shapeNs[i].add(now - t)
			t = now
		}
		r.rounds++
		t0 = rec.op(t0, t, ok)
	}
	return nil
}

// check compares every event's fire count with what its shapes must have
// fired over all rounds.
func (r *raiseRun) check() []string {
	want := map[*dispatch.Event]int64{}
	for _, b := range r.blocks {
		want[b.event] += r.rounds * b.raises * b.fires
	}
	var bad []string
	for _, b := range r.blocks {
		if w, ok := want[b.event]; ok {
			delete(want, b.event)
			if got := b.event.Stats().Fired; got != w {
				bad = append(bad, fmt.Sprintf("%s fired %d handlers, want %d", b.event.Name(), got, w))
			}
		}
	}
	return bad
}

// shapeNsPerRaise reports the cost of one raise of each shape.
func (r *raiseRun) shapeNsPerRaise() map[string]float64 {
	m := map[string]float64{}
	for i, b := range r.blocks {
		if r.shapeNs[i].n > 0 {
			m[b.shape] = r.shapeNs[i].quantile(0.1) / float64(b.raises)
		}
	}
	return m
}

func wordSig(result rtti.Type, n int) rtti.Signature {
	args := make([]rtti.Type, n)
	for i := range args {
		args[i] = rtti.Word
	}
	return rtti.Sig(result, args...)
}

func nopHandler(name string, sig rtti.Signature) dispatch.Handler {
	return dispatch.Handler{Proc: &rtti.Proc{Name: name, Module: benchModule, Sig: sig},
		Fn: func(any, []any) any { return nil }}
}

// smallWord draws an argument below 256, which Go boxes without allocating:
// the schedules measure the dispatcher, not the conversion to any.
func smallWord(rng *rand.Rand, below int) uint64 { return uint64(rng.Intn(below)) }

// repeat runs one raise n times and reports whether all succeeded.
func repeat(n int64, raise func() bool) func() bool {
	return func() bool {
		ok := true
		for i := int64(0); i < n; i++ {
			ok = raise() && ok
		}
		return ok
	}
}

// newRaiseHot builds the raise_hot workload: the tiers that are already
// fast.
func newRaiseHot(seed uint64) (*raiseRun, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	d := dispatch.New()
	r := &raiseRun{d: d}

	// bypass0: an intrinsic-only event, the canonical serial bypass raise.
	sig0 := wordSig(nil, 0)
	ev0, err := spin.NewEvent0(d, "Hot.Bypass0", dispatch.WithIntrinsic(nopHandler("Hot.Bypass0", sig0)))
	if err != nil {
		return nil, err
	}
	r.blocks = append(r.blocks, block{shape: "bypass0", raises: 1024, event: ev0.Underlying(), fires: 1,
		run: repeat(1024, func() bool { return ev0.Raise() == nil })})

	// bypass2: the same with two word arguments.
	sig2 := wordSig(nil, 2)
	ev2, err := d.DefineEvent("Hot.Bypass2", sig2, dispatch.WithIntrinsic(nopHandler("Hot.Bypass2", sig2)))
	if err != nil {
		return nil, err
	}
	var a1, a2 any = smallWord(rng, 256), smallWord(rng, 256)
	r.blocks = append(r.blocks, block{shape: "bypass2", raises: 1024, event: ev2, fires: 1,
		run: repeat(1024, func() bool { _, err := ev2.Raise2(a1, a2); return err == nil })})

	// typed2: one handler behind the typed generic layer.
	typed, err := spin.NewEvent2[uint64, uint64](d, "Hot.Typed2")
	if err != nil {
		return nil, err
	}
	w1, w2 := smallWord(rng, 256), smallWord(rng, 256)
	wrongArgs := 0
	if _, err = typed.Install("Hot.Typed2.H", benchModule, func(x, y uint64) {
		if x != w1 || y != w2 {
			wrongArgs++
		}
	}); err != nil {
		return nil, err
	}
	r.blocks = append(r.blocks, block{shape: "typed2", raises: 1024, event: typed.Underlying(), fires: 1,
		run: repeat(1024, func() bool { return typed.Raise(w1, w2) == nil && wrongArgs == 0 })})

	// inline5: five bindings whose guards and bodies are all inlined.
	sig1 := wordSig(nil, 1)
	inl, err := d.DefineEvent("Hot.Inline5", sig1)
	if err != nil {
		return nil, err
	}
	var cell atomic.Uint64
	for i := 0; i < 5; i++ {
		_, err := inl.Install(dispatch.Handler{
			Proc:   &rtti.Proc{Name: "Hot.Inline5.H", Module: benchModule, Sig: sig1},
			Inline: codegen.Nop(),
		}, dispatch.WithGuard(dispatch.Guard{Pred: codegen.GlobalEq(&cell, 0)}))
		if err != nil {
			return nil, err
		}
	}
	r.blocks = append(r.blocks, block{shape: "inline5", raises: 512, event: inl, fires: 5,
		run: repeat(512, func() bool { _, err := inl.Raise1(a1); return err == nil })})

	// batch64: trains of 64 frames through the batched ingress of bypass2.
	const train = 64
	flat := make([]any, 0, 2*train)
	for i := 0; i < train; i++ {
		flat = append(flat, any(smallWord(rng, 256)), any(smallWord(rng, 256)))
	}
	r.blocks = append(r.blocks, block{shape: "batch64", raises: 32 * train, event: ev2, fires: 1,
		run: repeat(32, func() bool {
			out := ev2.RaiseBatch2(flat)
			return out.Raised == train && out.Fired == train
		})})
	return r, nil
}

// newRaiseHeavy builds the raise_heavy workload: the shapes an executor
// collapse and guard indexing target.
func newRaiseHeavy(seed uint64) (*raiseRun, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	d := dispatch.New()
	r := &raiseRun{d: d}
	sig1 := wordSig(nil, 1)
	var arg any = smallWord(rng, 64)

	// closure10: ten out-of-line closure guards, all true, on closure handlers.
	clo, err := d.DefineEvent("Heavy.Closure10", sig1)
	if err != nil {
		return nil, err
	}
	var cell atomic.Uint64
	handled := 0
	for i := 0; i < 10; i++ {
		_, err := clo.Install(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Heavy.Closure10.H", Module: benchModule, Sig: sig1},
			Fn:   func(any, []any) any { handled++; return nil },
		}, dispatch.WithGuard(dispatch.Guard{
			Proc: &rtti.Proc{Name: "Heavy.Closure10.G", Module: benchModule, Functional: true, Sig: wordSig(rtti.Bool, 1)},
			Fn:   func(any, []any) bool { return cell.Load() == 0 },
		}))
		if err != nil {
			return nil, err
		}
	}
	raiseClosure10 := repeat(256, func() bool { _, err := clo.Raise1(arg); return err == nil })
	r.blocks = append(r.blocks, block{shape: "closure10", raises: 256, event: clo, fires: 10,
		run: func() bool {
			before := handled
			return raiseClosure10() && handled-before == 256*10
		}})

	// fanin50: fifty bindings guarded on distinct constants of one argument;
	// the seeded argument fires exactly one.
	const fan = 50
	fanin, err := d.DefineEvent("Heavy.Fanin50", sig1)
	if err != nil {
		return nil, err
	}
	keys := rng.Perm(1 << 16)[:fan]
	lastFired := -1
	for k, key := range keys {
		_, err := fanin.Install(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Heavy.Fanin50.H", Module: benchModule, Sig: sig1},
			Fn:   func(any, []any) any { lastFired = k; return nil },
		}, dispatch.WithGuard(dispatch.Guard{Pred: codegen.ArgEq(0, uint64(key))}))
		if err != nil {
			return nil, err
		}
	}
	const fanRaises = 64
	var order [fanRaises]int
	var boxed [fanRaises]any
	for i := range order {
		order[i] = rng.Intn(fan)
		boxed[i] = uint64(keys[order[i]])
	}
	r.blocks = append(r.blocks, block{shape: "fanin50", raises: fanRaises, event: fanin, fires: 1,
		run: func() bool {
			ok := true
			for i, a := range boxed {
				_, err := fanin.Raise1(a)
				ok = err == nil && lastFired == order[i] && ok
			}
			return ok
		}})

	// fold3: three results folded by a result handler.
	fold, err := spin.NewFuncEvent1[uint64, uint64](d, "Heavy.Fold3")
	if err != nil {
		return nil, err
	}
	for i := uint64(1); i <= 3; i++ {
		if _, err := fold.Install("Heavy.Fold3.H", benchModule, func(x uint64) uint64 { return x + i }); err != nil {
			return nil, err
		}
	}
	err = fold.Underlying().SetResultHandler(func(acc, res any, _ int) any {
		if acc == nil {
			return res
		}
		return acc.(uint64) + res.(uint64)
	})
	if err != nil {
		return nil, err
	}
	word := arg.(uint64)
	r.blocks = append(r.blocks, block{shape: "fold3", raises: 512, event: fold.Underlying(), fires: 3,
		run: repeat(512, func() bool { sum, err := fold.Raise(word); return err == nil && sum == 3*word+6 })})

	// filter3: a rewriting filter ahead of two handlers that must see its value.
	filt, err := d.DefineEvent("Heavy.Filter3", sig1)
	if err != nil {
		return nil, err
	}
	_, err = filt.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Heavy.Filter3.F", Module: benchModule,
			Sig: rtti.Signature{Args: sig1.Args, ByRef: []bool{true}}},
		Fn: func(_ any, args []any) any { args[0] = args[0].(uint64) + 1; return nil },
	}, dispatch.AsFilter(), dispatch.First())
	if err != nil {
		return nil, err
	}
	unrewritten := 0
	for i := 0; i < 2; i++ {
		_, err := filt.Install(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Heavy.Filter3.H", Module: benchModule, Sig: sig1},
			Fn: func(_ any, args []any) any {
				if args[0].(uint64) != word+1 {
					unrewritten++
				}
				return nil
			},
		})
		if err != nil {
			return nil, err
		}
	}
	r.blocks = append(r.blocks, block{shape: "filter3", raises: 512, event: filt, fires: 3,
		run: repeat(512, func() bool { _, err := filt.Raise1(arg); return err == nil && unrewritten == 0 })})

	return r, nil
}
