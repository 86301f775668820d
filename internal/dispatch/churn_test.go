package dispatch

import (
	"fmt"
	"runtime"
	"testing"

	"spin/internal/admit"
	"spin/internal/journal"
	"spin/internal/rtti"
	"spin/internal/trace"
)

// discardSink is a journal sink that keeps no bytes, so a churn row's heap
// measures the dispatcher, not the journal's copy of its records.
type discardSink struct{}

func (discardSink) Append([]byte) error { return nil }
func (discardSink) Seal() error         { return nil }
func (discardSink) Close() error        { return nil }

// TestControlPlaneChurnBounded toggles each control-plane op 100k times on
// one traced, journaled event with four bindings, raising it now and then
// so the ring names the plans in turn. The dispatcher has one degradation
// rung, which compiles out bindings 1 and 3 (priority 1). Every toggle
// recompiles and republishes the plan, registering a trace program; none
// may leave state behind: after runtime.GC the live heap stays flat, and
// the tracer's program count stays within what the ring can still name.
// Install and uninstall churn has its own test
// (TestTracedInstallChurnHeapFlat), and so has SetAdmission
// (TestSetAdmissionChurnRetiresQueues).
func TestControlPlaneChurnBounded(t *testing.T) {
	const toggles, every = 100_000, 100
	ext := rtti.NewModule("Churn.Ext", "Test")
	for _, row := range []struct {
		name   string
		toggle func(d *Dispatcher, e *Event, tracer *trace.Tracer, bs []*Binding) error
	}{
		{"Trace", func(_ *Dispatcher, e *Event, tracer *trace.Tracer, _ []*Binding) error {
			e.Trace(nil)
			e.Trace(tracer)
			return nil
		}},
		{"SetOrder", func(_ *Dispatcher, e *Event, _ *trace.Tracer, bs []*Binding) error {
			if err := e.SetOrder(bs[1], Order{Kind: OrderFirst}); err != nil {
				return err
			}
			return e.SetOrder(bs[1], Order{Kind: OrderLast})
		}},
		{"QuarantineModule", func(d *Dispatcher, _ *Event, _ *trace.Tracer, _ []*Binding) error {
			if n := d.quarantineModule(ext); n != 2 {
				return fmt.Errorf("quarantineModule quarantined %d bindings, want 2", n)
			}
			if n := d.readmitModule(ext); n != 2 {
				return fmt.Errorf("readmitModule readmitted %d bindings, want 2", n)
			}
			return nil
		}},
		{"SetQuotas", func(d *Dispatcher, _ *Event, _ *trace.Tracer, _ []*Binding) error {
			d.SetQuotas(8, 64)
			d.SetQuotas(0, 0)
			return nil
		}},
		{"Degrade", func(d *Dispatcher, _ *Event, _ *trace.Tracer, _ []*Binding) error {
			if _, _, changed := d.forceDegradationLevel(1); !changed {
				return fmt.Errorf("forceDegradationLevel(1) changed nothing")
			}
			if _, _, changed := d.forceDegradationLevel(0); !changed {
				return fmt.Errorf("forceDegradationLevel(0) changed nothing")
			}
			return nil
		}},
		{"QuarantineBinding", func(d *Dispatcher, _ *Event, _ *trace.Tracer, bs []*Binding) error {
			if !d.quarantineBinding(bs[1]) {
				return fmt.Errorf("quarantineBinding left binding 1 in")
			}
			if !d.readmitBinding(bs[1]) {
				return fmt.Errorf("readmitBinding found binding 1 in")
			}
			return nil
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			tracer := trace.New(trace.Config{Capacity: 256})
			j := journal.New(journal.Config{Sink: discardSink{}, FlushInterval: -1})
			defer j.Close()
			d := New(WithTracer(tracer), WithJournal(j), WithAdmission(AdmissionConfig{
				Levels: []admit.Level{{Name: "brownout", MinPriority: 1}},
			}))
			e := mustDefine(t, d, "M.Churn", rtti.Sig(nil, rtti.Word))
			bs := make([]*Binding, 4)
			for i := range bs {
				m, prio := testModule, 0
				if i%2 == 1 {
					m, prio = ext, 1 // bindings 1 and 3 are the module's
				}
				proc := &rtti.Proc{Name: fmt.Sprintf("H%d", i), Module: m, Sig: rtti.Sig(nil, rtti.Word)}
				b, err := e.Install(handler(proc, func(any, []any) any { return nil }), WithPriority(prio))
				if err != nil {
					t.Fatal(err)
				}
				bs[i] = b
			}
			heap := func() uint64 {
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return m.HeapAlloc
			}
			progs := tracer.Programs()
			var warm uint64
			for i := 0; i < toggles; i++ {
				if i == toggles/10 {
					warm = heap()
				}
				if err := row.toggle(d, e, tracer, bs); err != nil {
					t.Fatalf("toggle %d: %v", i, err)
				}
				if i%every == 0 {
					if _, err := e.Raise1(uint64(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			j.Flush()
			grown := int64(heap()) - int64(warm)
			t.Logf("live heap grew %d bytes; %d trace programs registered; %d records journaled",
				grown, tracer.Programs(), j.Stats().Records)
			if grown > 1<<20 {
				t.Errorf("live heap grew %d bytes over %d toggles, want under 1 MiB", grown, toggles*9/10)
			}
			if n, max := tracer.Programs(), progs+2*tracer.Capacity(); n > max {
				t.Errorf("%d toggles left %d trace programs registered, want at most %d", toggles, n, max)
			}
			if st := e.Stats(); st.Raised != toggles/every || st.Fired != 4*st.Raised || st.Handlers != 4 {
				t.Errorf("stats = %+v, want Raised=%d Fired=%d Handlers=4", st, toggles/every, 4*toggles/every)
			}
		})
	}
}
