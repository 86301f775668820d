package netwire

import (
	"errors"
	"testing"

	"spin/internal/vtime"
)

func newLink() (*Link, *vtime.Simulator, *vtime.Clock) {
	var clock vtime.Clock
	sim := vtime.NewSimulator(&clock)
	return NewLink(sim, 0, 0), sim, &clock
}

func TestAttachAndDeliver(t *testing.T) {
	l, sim, _ := newLink()
	a, err := l.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	var got *Frame
	b.SetReceiver(func(f *Frame) { got = f })
	if err := a.Send(&Frame{Dst: "b", EtherType: TypeIP, Size: 100, Payload: "pkt"}); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("delivery was synchronous")
	}
	sim.Run(0)
	if got == nil || got.Payload != "pkt" || got.Src != "a" {
		t.Fatalf("frame = %+v", got)
	}
	if a.TxFrames != 1 || b.RxFrames != 1 || l.Frames != 1 {
		t.Fatal("counters wrong")
	}
}

func TestSerializationDelayAt10Mbps(t *testing.T) {
	l, _, _ := newLink()
	// A minimum frame: 46+38 = 84 bytes = 672 bits -> 67.2us at 10Mb/s.
	d := l.serializationDelay(8)
	if us := vtime.InMicros(d); us < 67.1 || us > 67.3 {
		t.Fatalf("min frame = %.2fus, want ~67.2", us)
	}
	// A full MTU frame: 1538 bytes -> 1230.4us.
	d = l.serializationDelay(MTU)
	if us := vtime.InMicros(d); us < 1230 || us > 1231 {
		t.Fatalf("MTU frame = %.2fus", us)
	}
}

func TestDeliveryTiming(t *testing.T) {
	l, sim, clock := newLink()
	a, _ := l.Attach("a")
	b, _ := l.Attach("b")
	var deliveredAt vtime.Time
	b.SetReceiver(func(f *Frame) { deliveredAt = clock.Now() })
	_ = a.Send(&Frame{Dst: "b", Size: 8})
	sim.Run(0)
	want := l.serializationDelay(8) + DefaultLatency
	if vtime.Duration(deliveredAt) != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	l, sim, _ := newLink()
	a, _ := l.Attach("a")
	_ = a.Send(&Frame{Dst: "ghost", Size: 8})
	sim.Run(0)
	if l.Dropped != 1 || l.Frames != 0 {
		t.Fatalf("dropped=%d frames=%d", l.Dropped, l.Frames)
	}
}

func TestReceiverlessNICDrops(t *testing.T) {
	l, sim, _ := newLink()
	a, _ := l.Attach("a")
	_, _ = l.Attach("b") // no receiver installed
	_ = a.Send(&Frame{Dst: "b", Size: 8})
	sim.Run(0)
	if l.Dropped != 1 {
		t.Fatalf("dropped = %d", l.Dropped)
	}
}

func TestDuplicateAttach(t *testing.T) {
	l, _, _ := newLink()
	_, _ = l.Attach("a")
	if _, err := l.Attach("a"); !errors.Is(err, ErrDuplicateNI) {
		t.Fatalf("err = %v", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	l, _, _ := newLink()
	a, _ := l.Attach("a")
	if err := a.Send(&Frame{Dst: "b", Size: MTU + 1}); !errors.Is(err, ErrTooBig) {
		t.Fatalf("err = %v", err)
	}
}

func TestFIFODeliveryOrder(t *testing.T) {
	l, sim, _ := newLink()
	a, _ := l.Attach("a")
	b, _ := l.Attach("b")
	var order []int
	b.SetReceiver(func(f *Frame) { order = append(order, f.Payload.(int)) })
	for i := 0; i < 5; i++ {
		_ = a.Send(&Frame{Dst: "b", Size: 8, Payload: i})
	}
	sim.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestCustomBandwidthAndLatency(t *testing.T) {
	var clock vtime.Clock
	sim := vtime.NewSimulator(&clock)
	l := NewLink(sim, 100_000_000, vtime.Micros(1))
	// 84 bytes at 100Mb/s = 6.72us.
	if us := vtime.InMicros(l.serializationDelay(8)); us < 6.7 || us > 6.8 {
		t.Fatalf("delay = %.2fus", us)
	}
}

// The RX train buffer is recycled from one flush to the next; it must come
// back empty, or the NIC keeps the frames of its last train — and the
// packets they carry — reachable until the next one overwrites them.
func TestRXTrainClearedAfterFlush(t *testing.T) {
	l, sim, _ := newLink()
	a, _ := l.Attach("a")
	b, _ := l.Attach("b")
	c, _ := l.Attach("c")
	got, longest := 0, 0
	b.SetBatchReceiver(func(fs []*Frame) {
		got += len(fs)
		if len(fs) > longest {
			longest = len(fs)
		}
	})
	for round := 0; round < 10000; round++ {
		// Equal frames sent at one instant from two interfaces land
		// together: trains of one and of two alternate.
		_ = a.Send(&Frame{Dst: "b", Size: 64})
		if round%2 == 1 {
			_ = c.Send(&Frame{Dst: "b", Size: 64})
		}
		sim.Run(0)
		for i, f := range b.rxTrain[:cap(b.rxTrain)] {
			if f != nil {
				t.Fatalf("round %d: slot %d of the recycled train still holds a frame", round, i)
			}
		}
	}
	if got != 15000 || longest != 2 {
		t.Fatalf("delivered %d frames, longest train %d", got, longest)
	}
	if n := cap(b.rxTrain); n < 2 || n > 4 {
		t.Fatalf("trains of at most two frames left a buffer of %d", n)
	}
}

// A frame's trip from Send to the receive callback allocates nothing: the
// frame is its own simulator event, and the train flush is bound once.
func TestSendDeliverZeroAlloc(t *testing.T) {
	l, sim, _ := newLink()
	a, _ := l.Attach("a")
	b, _ := l.Attach("b")
	c, _ := l.Attach("c")
	got := 0
	b.SetReceiver(func(*Frame) { got++ })
	c.SetBatchReceiver(func(fs []*Frame) { got += len(fs) })
	toB, toC := &Frame{Dst: "b", Size: 64}, &Frame{Dst: "c", Size: 64}
	trip := func() {
		_ = a.Send(toB)
		_ = a.Send(toC)
		sim.Run(0)
	}
	trip()
	if allocs := testing.AllocsPerRun(1000, trip); allocs != 0 {
		t.Fatalf("Send + deliver allocates %.1f times per pair of frames", allocs)
	}
	if got != 2*1002 {
		t.Fatalf("delivered %d frames", got)
	}
}
