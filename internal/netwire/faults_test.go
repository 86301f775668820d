package netwire

import (
	"testing"

	"spin/internal/vtime"
)

// corruptiblePayload is a test payload opting into byte-level corruption.
type corruptiblePayload struct {
	data []byte
}

func (c *corruptiblePayload) CorruptedCopy(r uint64) any {
	cp := append([]byte(nil), c.data...)
	if len(cp) > 0 {
		cp[r%uint64(len(cp))] ^= 1 << ((r >> 32) % 8)
	}
	return &corruptiblePayload{data: cp}
}

func sendN(a *NIC, dst string, n int) {
	for i := 0; i < n; i++ {
		_ = a.Send(&Frame{Dst: dst, Size: 100, Payload: i})
	}
}

func TestInjectDropRate(t *testing.T) {
	l, sim, _ := newLink()
	a, _ := l.Attach("a")
	b, _ := l.Attach("b")
	got := 0
	b.SetReceiver(func(f *Frame) { got++ })
	l.InjectFaults(FaultPlan{Seed: 42, Drop: 0.3})
	const n = 1000
	sendN(a, "b", n)
	sim.Run(0)
	st := l.FaultStats()
	if got+int(st.Drops) != n {
		t.Fatalf("delivered %d + dropped %d != %d", got, st.Drops, n)
	}
	if st.Drops < n/5 || st.Drops > n/2 {
		t.Fatalf("drops = %d, want ~%d", st.Drops, 3*n/10)
	}
}

func TestInjectionIsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) (delivered []int, st FaultStats) {
		l, sim, _ := newLink()
		a, _ := l.Attach("a")
		b, _ := l.Attach("b")
		b.SetReceiver(func(f *Frame) { delivered = append(delivered, f.Payload.(int)) })
		l.InjectFaults(FaultPlan{Seed: seed, Drop: 0.2, Duplicate: 0.1, Reorder: 0.1})
		sendN(a, "b", 200)
		sim.Run(0)
		return delivered, l.FaultStats()
	}
	d1, s1 := run(7)
	d2, s2 := run(7)
	if len(d1) != len(d2) || s1 != s2 {
		t.Fatalf("same seed diverged: %d/%d frames, %+v vs %+v", len(d1), len(d2), s1, s2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("same seed, different order at %d: %d vs %d", i, d1[i], d2[i])
		}
	}
	d3, _ := run(8)
	same := len(d1) == len(d3)
	if same {
		for i := range d1 {
			if d1[i] != d3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestInjectDuplicateDeliversTwice(t *testing.T) {
	l, sim, _ := newLink()
	a, _ := l.Attach("a")
	b, _ := l.Attach("b")
	got := 0
	b.SetReceiver(func(f *Frame) { got++ })
	l.InjectFaults(FaultPlan{Seed: 1, Duplicate: 1.0})
	sendN(a, "b", 10)
	sim.Run(0)
	if got != 20 {
		t.Fatalf("delivered %d, want 20", got)
	}
	if st := l.FaultStats(); st.Duplicates != 10 {
		t.Fatalf("dups = %d", st.Duplicates)
	}
}

func TestInjectReorderLetsSuccessorOvertake(t *testing.T) {
	l, sim, _ := newLink()
	a, _ := l.Attach("a")
	b, _ := l.Attach("b")
	var order []int
	b.SetReceiver(func(f *Frame) { order = append(order, f.Payload.(int)) })
	// Reorder exactly the first frame: rate 1 for one send, then clear.
	l.InjectFaults(FaultPlan{Seed: 3, Reorder: 1.0})
	_ = a.Send(&Frame{Dst: "b", Size: 100, Payload: 0})
	l.ClearFaults()
	_ = a.Send(&Frame{Dst: "b", Size: 100, Payload: 1})
	sim.Run(0)
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("order = %v, want [1 0]", order)
	}
}

func TestInjectCorruptFlipsPayloadCopy(t *testing.T) {
	l, sim, _ := newLink()
	a, _ := l.Attach("a")
	b, _ := l.Attach("b")
	orig := &corruptiblePayload{data: []byte{1, 2, 3, 4}}
	var got *corruptiblePayload
	b.SetReceiver(func(f *Frame) { got = f.Payload.(*corruptiblePayload) })
	l.InjectFaults(FaultPlan{Seed: 5, Corrupt: 1.0})
	_ = a.Send(&Frame{Dst: "b", Size: 100, Payload: orig})
	sim.Run(0)
	if got == nil {
		t.Fatal("frame lost")
	}
	if got == orig {
		t.Fatal("corruption mutated the sender's payload object")
	}
	diff := 0
	for i := range orig.data {
		if got.data[i] != orig.data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupted copy differs in %d bytes, want 1", diff)
	}
	if orig.data[0] != 1 || orig.data[1] != 2 {
		t.Fatal("sender's payload mutated")
	}
}

func TestInjectCorruptOpaquePayloadDrops(t *testing.T) {
	l, sim, _ := newLink()
	a, _ := l.Attach("a")
	b, _ := l.Attach("b")
	got := 0
	b.SetReceiver(func(f *Frame) { got++ })
	l.InjectFaults(FaultPlan{Seed: 5, Corrupt: 1.0})
	_ = a.Send(&Frame{Dst: "b", Size: 100, Payload: "opaque"})
	sim.Run(0)
	if got != 0 {
		t.Fatalf("opaque corrupted frame delivered (%d)", got)
	}
	if st := l.FaultStats(); st.Corrupts != 1 {
		t.Fatalf("corrupts = %d", st.Corrupts)
	}
}

func TestPartitionBlackholesBothDirectionsAndHeals(t *testing.T) {
	l, sim, _ := newLink()
	a, _ := l.Attach("a")
	b, _ := l.Attach("b")
	gotA, gotB := 0, 0
	a.SetReceiver(func(f *Frame) { gotA++ })
	b.SetReceiver(func(f *Frame) { gotB++ })
	l.Partition("a", "b")
	if !l.Partitioned("b", "a") {
		t.Fatal("partition not symmetric")
	}
	_ = a.Send(&Frame{Dst: "b", Size: 8})
	_ = b.Send(&Frame{Dst: "a", Size: 8})
	sim.Run(0)
	if gotA != 0 || gotB != 0 {
		t.Fatalf("partitioned traffic delivered: a=%d b=%d", gotA, gotB)
	}
	if st := l.FaultStats(); st.PartitionDrops != 2 {
		t.Fatalf("partition drops = %d", st.PartitionDrops)
	}
	l.Heal("b", "a")
	_ = a.Send(&Frame{Dst: "b", Size: 8})
	sim.Run(0)
	if gotB != 1 {
		t.Fatalf("healed traffic lost: b=%d", gotB)
	}
}

func TestPartitionChecksAtDeliveryInstant(t *testing.T) {
	// A frame already in flight when the cut happens still arrives; a
	// frame sent during the cut is lost even if the link heals before its
	// delivery instant would have passed. (The verdict is taken exactly
	// once, at delivery time.)
	l, sim, clock := newLink()
	a, _ := l.Attach("a")
	b, _ := l.Attach("b")
	got := 0
	b.SetReceiver(func(f *Frame) { got++ })
	_ = a.Send(&Frame{Dst: "b", Size: 8}) // in flight before the cut
	sim.At(clock.Now().Add(vtime.Duration(1)), func() { l.Partition("a", "b") })
	sim.Run(0)
	if got != 1 {
		t.Fatalf("in-flight frame lost across a later cut: got=%d", got)
	}
}

func TestClearFaultsKeepsPartitions(t *testing.T) {
	l, _, _ := newLink()
	l.InjectFaults(FaultPlan{Seed: 1, Drop: 0.5})
	l.Partition("a", "b")
	l.ClearFaults()
	if !l.Partitioned("a", "b") {
		t.Fatal("ClearFaults healed the partition")
	}
}

// Partitioned reports whether traffic between the two addresses is
// currently blackholed.
func (l *Link) Partitioned(a, b string) bool {
	return l.faults != nil && l.faults.parts[pairKey(a, b)]
}
