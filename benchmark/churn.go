package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"spin/internal/dispatch"
	"spin/internal/fault"
	"spin/internal/journal"
	"spin/internal/rtti"
)

const (
	churnBindings = 32  // closure-guarded bindings resident on the event
	churnRaises   = 128 // raises after the install, and again after the uninstall
)

// churnRun is one pass of ctl_churn: writes beside reads on the hardened
// configuration (fault policy and journal). An op is one cycle of Install,
// churnRaises raises, Uninstall, churnRaises raises.
type churnRun struct {
	d     *dispatch.Dispatcher
	j     *journal.Journal
	sink  *journal.MemSink
	ev    *dispatch.Event
	extra dispatch.Handler
	guard dispatch.Guard
	arg   any
	fired int64

	install, uninstall, afterSwap hist
}

func newCtlChurn(seed uint64) (*churnRun, error) {
	c := &churnRun{sink: journal.NewMemSink()}
	// The flush timer is off: batches then seal on size alone, so the
	// journal's counts repeat from run to run.
	c.j = journal.New(journal.Config{Sink: c.sink, SampleRaises: 1024, FlushInterval: -1})
	c.d = dispatch.New(dispatch.WithFaultPolicy(fault.Policy{Budget: 3}), dispatch.WithJournal(c.j))
	sig := wordSig(nil, 1)
	var err error
	if c.ev, err = c.d.DefineEvent("Churn.Event", sig); err != nil {
		return nil, err
	}
	var cell atomic.Uint64
	c.guard = dispatch.Guard{
		Proc: &rtti.Proc{Name: "Churn.G", Module: benchModule, Functional: true, Sig: wordSig(rtti.Bool, 1)},
		Fn:   func(any, []any) bool { return cell.Load() == 0 },
	}
	c.extra = dispatch.Handler{
		Proc: &rtti.Proc{Name: "Churn.H", Module: benchModule, Sig: sig},
		Fn:   func(any, []any) any { c.fired++; return nil },
	}
	for i := 0; i < churnBindings; i++ {
		if _, err := c.ev.Install(c.extra, dispatch.WithGuard(c.guard)); err != nil {
			return nil, err
		}
	}
	c.arg = smallWord(rand.New(rand.NewSource(int64(seed))), 256)
	return c, nil
}

func (c *churnRun) counts(n *counts) {
	c.j.Flush() // the worker seals asynchronously; settle it before reading
	n.addDispatcher(c.d)
	n.addJournal(c.j)
}

func (c *churnRun) raise() bool {
	_, err := c.ev.Raise1(c.arg)
	return err == nil
}

func (c *churnRun) run(rec *recorder) error {
	raiseRest := repeat(churnRaises-1, c.raise)
	raiseAll := repeat(churnRaises, c.raise)
	t0 := rec.begin()
	for !rec.done {
		before := c.fired
		b, err := c.ev.Install(c.extra, dispatch.WithGuard(c.guard))
		if err != nil {
			return fmt.Errorf("ctl_churn install: %w", err)
		}
		t1 := rec.now()
		ok := c.raise()
		t2 := rec.now()
		ok = raiseRest() && ok
		t3 := rec.now()
		if err := c.ev.Uninstall(b); err != nil {
			return fmt.Errorf("ctl_churn uninstall: %w", err)
		}
		t4 := rec.now()
		ok = raiseAll() && ok
		ok = ok && c.fired-before == churnRaises*(2*churnBindings+1)
		c.install.add(t1 - t0)
		c.afterSwap.add(t2 - t1)
		c.uninstall.add(t4 - t3)
		t0 = rec.op(t0, rec.now(), ok)
	}
	return nil
}

// close stops the journal's worker and seals what it holds.
func (c *churnRun) close() {
	_ = c.j.Close() // idempotent, and a MemSink's Close cannot fail
}

// check audits what the run left behind: the binding list, and the journal
// once it is closed.
func (c *churnRun) check() []string {
	var bad []string
	if n := len(c.ev.Bindings()); n != churnBindings {
		bad = append(bad, fmt.Sprintf("%d bindings left on %s, want %d", n, c.ev.Name(), churnBindings))
	}
	c.close()
	if _, err := journal.Verify(c.sink.Bytes()); err != nil {
		bad = append(bad, fmt.Sprintf("journal verify: %v", err))
	}
	return bad
}
