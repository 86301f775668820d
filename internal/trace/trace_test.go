package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"spin/internal/vtime"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []struct {
		prog  uint32
		step  int
		guard int
		kind  Kind
		mode  Mode
		flags uint64
	}{
		{1, 0, 0, KindRaiseBegin, ModeSync, 0},
		{2, 7, 3, KindGuard, ModeSync, flagPass | flagInline},
		{3, 65534, 255, KindHandler, ModeEphemeral, flagPass},
		{0xFFFFFF, -1, 0, KindRaiseEnd, ModeDefault, flagAmbiguous | flagUsedDefault},
		{42, 12, 1, KindMerge, ModeAsync, 0},
	}
	for _, c := range cases {
		w := pack(c.prog, c.step, c.guard, c.kind, c.mode, c.flags)
		prog, step, guard, kind, mode, flags := unpack(w)
		if prog != c.prog || step != c.step || guard != c.guard ||
			kind != c.kind || mode != c.mode || flags != c.flags {
			t.Errorf("round trip %+v -> prog=%d step=%d guard=%d kind=%v mode=%v flags=%#x",
				c, prog, step, guard, kind, mode, flags)
		}
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	tr := New(Config{Capacity: 64})
	p := tr.Program(EventMeta{
		Event: "Test.Event",
		Steps: []StepMeta{{Name: "mod.h0", Mode: ModeSync}, {Name: "mod.h1", Mode: ModeAsync}},
	})
	raise, sampled := p.Begin()
	if !sampled {
		t.Fatal("sample rate 1 must sample every raise")
	}
	p.RaiseBegin(raise, 10, 99)
	p.Guard(raise, 0, 0, true, true, 11, 2)
	p.Handler(raise, 0, ModeSync, true, 13, 5)
	p.Guard(raise, 1, 0, false, false, 18, 2)
	p.Merge(raise, 0, 20, 1)
	p.RaiseEnd(raise, 21, 0, 1, false, false)

	spans := tr.Snapshot()
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6: %+v", len(spans), spans)
	}
	wantKinds := []Kind{KindRaiseBegin, KindGuard, KindHandler, KindGuard, KindMerge, KindRaiseEnd}
	for i, sp := range spans {
		if sp.Kind != wantKinds[i] {
			t.Errorf("span %d kind = %v, want %v", i, sp.Kind, wantKinds[i])
		}
		if sp.Raise != raise {
			t.Errorf("span %d raise = %d, want %d", i, sp.Raise, raise)
		}
		if sp.Event != "Test.Event" {
			t.Errorf("span %d event = %q", i, sp.Event)
		}
	}
	if spans[1].Name != "mod.h0" || !spans[1].Pass || !spans[1].Inline {
		t.Errorf("guard span wrong: %+v", spans[1])
	}
	if spans[2].Name != "mod.h0" || spans[2].Mode != ModeSync || spans[2].Cost != 5 {
		t.Errorf("handler span wrong: %+v", spans[2])
	}
	if spans[3].Name != "mod.h1" || spans[3].Pass {
		t.Errorf("failed guard span wrong: %+v", spans[3])
	}
	if spans[0].Detail != 99 {
		t.Errorf("raise-begin arg0 = %d, want 99", spans[0].Detail)
	}
	if spans[5].Detail != 1 {
		t.Errorf("raise-end fired = %d, want 1", spans[5].Detail)
	}
}

func TestSampling(t *testing.T) {
	tr := New(Config{Capacity: 1024, Sample: 64})
	p := tr.Program(EventMeta{Event: "E"})
	sampled := 0
	for i := 0; i < 640; i++ {
		if _, ok := p.Begin(); ok {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("1-in-64 over 640 raises sampled %d, want 10", sampled)
	}
}

func TestRingWrapDiscardsOldest(t *testing.T) {
	tr := New(Config{Capacity: 8})
	p := tr.Program(EventMeta{Event: "E"})
	for i := 0; i < 20; i++ {
		p.Handler(uint64(i+1), 0, ModeSync, true, int64(i), 0)
	}
	spans := tr.Snapshot()
	if len(spans) != 8 {
		t.Fatalf("got %d spans, want ring capacity 8", len(spans))
	}
	// Oldest surviving span must be publication #13 of 20.
	if spans[0].Seq != 13 || spans[len(spans)-1].Seq != 20 {
		t.Errorf("got seq range [%d, %d], want [13, 20]",
			spans[0].Seq, spans[len(spans)-1].Seq)
	}
	if tr.Dropped() != 12 {
		t.Errorf("Dropped() = %d, want 12", tr.Dropped())
	}
	tr.Reset()
	if got := tr.Snapshot(); len(got) != 0 {
		t.Errorf("after Reset, %d spans remain", len(got))
	}
}

func TestRejectSpan(t *testing.T) {
	tr := New(Config{Capacity: 16})
	tr.Reject("Sys.Open", RejectAuth, "rogue-ext")
	tr.Reject("Sys.Open", RejectQuota, "greedy-ext")
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Kind != KindReject || spans[0].Name != "rogue-ext" ||
		RejectReason(spans[0].Detail) != RejectAuth || spans[0].Event != "Sys.Open" {
		t.Errorf("auth reject span wrong: %+v", spans[0])
	}
	if RejectReason(spans[1].Detail) != RejectQuota || spans[1].Name != "greedy-ext" {
		t.Errorf("quota reject span wrong: %+v", spans[1])
	}
}

func TestStampMeteredVsSynthetic(t *testing.T) {
	tr := New(Config{})
	if tr.Metered(nil) {
		t.Error("nil CPU must report unmetered")
	}
	s1, s2 := tr.Stamp(nil), tr.Stamp(nil)
	if s2 <= s1 {
		t.Errorf("synthetic stamps not monotonic: %d then %d", s1, s2)
	}
	clock := &vtime.Clock{}
	cpu := vtime.NewCPU(clock, vtime.AlphaModel())
	if !tr.Metered(cpu) {
		t.Error("metered CPU must report metered")
	}
	clock.Advance(1500)
	if got := tr.Stamp(cpu); got != 1500 {
		t.Errorf("metered stamp = %d, want 1500", got)
	}
}

func TestRecordingDoesNotAllocate(t *testing.T) {
	tr := New(Config{Capacity: 256})
	p := tr.Program(EventMeta{Event: "E", Steps: []StepMeta{{Name: "h"}}})
	allocs := testing.AllocsPerRun(200, func() {
		raise, _ := p.Begin()
		p.RaiseBegin(raise, 0, 0)
		p.Guard(raise, 0, 0, true, true, 1, 1)
		p.Handler(raise, 0, ModeSync, true, 2, 3)
		p.RaiseEnd(raise, 5, 0, 1, false, false)
	})
	if allocs != 0 {
		t.Errorf("recording allocated %.1f times per raise, want 0", allocs)
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	tr := New(Config{Capacity: 128})
	p := tr.Program(EventMeta{Event: "E", Steps: []StepMeta{{Name: "h"}}})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				raise, _ := p.Begin()
				p.RaiseBegin(raise, int64(i), 0)
				p.Handler(raise, 0, ModeSync, true, int64(i), 1)
				p.RaiseEnd(raise, int64(i)+1, 0, 1, false, false)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		for _, sp := range tr.Snapshot() {
			if sp.Kind < KindRaiseBegin || sp.Kind > KindReject {
				t.Errorf("torn span leaked: %+v", sp)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestChromeExport(t *testing.T) {
	tr := New(Config{Capacity: 64})
	p := tr.Program(EventMeta{
		Event: "HTTP.Request",
		Steps: []StepMeta{{Name: "httpd.Handle", Mode: ModeSync}},
	})
	raise, _ := p.Begin()
	p.RaiseBegin(raise, 1000, 0)
	p.Guard(raise, 0, 0, true, true, 1000, 200)
	p.Handler(raise, 0, ModeSync, true, 1200, 5000)
	p.Merge(raise, 0, 6200, 100)
	p.RaiseEnd(raise, 6300, 0, 1, false, false)

	var buf bytes.Buffer
	if err := tr.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(file.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5", len(file.TraceEvents))
	}
	for _, ev := range file.TraceEvents {
		if ev["ph"] != "X" {
			t.Errorf("phase = %v, want X", ev["ph"])
		}
		if ev["pid"] != float64(1) {
			t.Errorf("pid = %v, want 1", ev["pid"])
		}
	}
	// Guard handler's ts must be microseconds: 1200ns -> 1.2us.
	if got := file.TraceEvents[2]["ts"].(float64); got != 1.2 {
		t.Errorf("handler ts = %v us, want 1.2", got)
	}
	if got := file.TraceEvents[2]["dur"].(float64); got != 5.0 {
		t.Errorf("handler dur = %v us, want 5.0", got)
	}
}

func TestTextExport(t *testing.T) {
	tr := New(Config{Capacity: 64})
	p := tr.Program(EventMeta{
		Event: "E", Steps: []StepMeta{{Name: "mod.handler", Mode: ModeSync}},
	})
	raise, _ := p.Begin()
	p.RaiseBegin(raise, 0, 0)
	p.Guard(raise, 0, 0, false, true, 1, 1)
	p.Handler(raise, 0, ModeSync, true, 2, 3)
	p.RaiseEnd(raise, 5, 0, 1, false, false)
	tr.Reject("E", RejectQuota, "greedy")

	var buf bytes.Buffer
	if err := tr.ExportText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"raise #1 E:", "mod.handler", "control plane:", "greedy", "quota"} {
		if !strings.Contains(out, want) {
			t.Errorf("text export missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultHandlerNameResolution(t *testing.T) {
	tr := New(Config{Capacity: 16})
	p := tr.Program(EventMeta{Event: "E", Default: "mod.fallback"})
	raise, _ := p.Begin()
	p.Handler(raise, -1, ModeDefault, true, 0, 1)
	spans := tr.Snapshot()
	if len(spans) != 1 || spans[0].Name != "mod.fallback" || spans[0].Step != -1 {
		t.Fatalf("default handler span wrong: %+v", spans)
	}
}

// TestProgramRegistryBounded: one-shot programs (every control-plane span
// registers one) and superseded plan programs leave the registry once the
// ring no longer names them, so it stays within the ring's size however
// many are registered, and every span still in the ring resolves to the
// name it was recorded with — also across the wrap of the 24-bit program
// id, which then issues ids again only once their programs are gone.
func TestProgramRegistryBounded(t *testing.T) {
	const capacity = 64
	tr := New(Config{Capacity: capacity})
	live := tr.Program(EventMeta{Event: "E", Steps: []StepMeta{{Name: "live"}}})
	tr.lastID = maxProgID - 100 // wrap within the loop below
	for i := 0; i < 20*capacity; i++ {
		name := fmt.Sprint("m", i)
		if i%2 == 0 {
			tr.Fault("E", name, uint64(i))
			continue
		}
		// A plan program: recorded through (its span's cost carries i), then
		// superseded.
		p := tr.Program(EventMeta{Event: "E", Steps: []StepMeta{{Name: name}}})
		p.Handler(0, 0, ModeSync, true, tr.now(), int64(i))
		p.Retire()
		if n := len(tr.progs); n > 3*capacity {
			t.Fatalf("after %d programs the registry holds %d, want at most %d", i+1, n, 3*capacity)
		}
	}
	live.Handler(0, 0, ModeSync, true, tr.now(), -1)
	if tr.lastID >= maxProgID-100 {
		t.Fatalf("program ids did not wrap: last issued %d", tr.lastID)
	}
	for _, sp := range tr.Snapshot() {
		want := fmt.Sprint("m", int64(sp.Cost))
		switch {
		case sp.Kind == KindFault:
			want = fmt.Sprint("m", sp.Detail)
		case sp.Cost < 0:
			want = "live"
		}
		if sp.Name != want {
			t.Errorf("span %d (%v) names %q, want %q", sp.Seq, sp.Kind, sp.Name, want)
		}
	}
}
