package netwire

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spin/internal/vtime"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/inject_schedule.golden from this run")

// goldenPayload carries a frame's send index across the wire and records
// whether (and with which entropy word) the injector corrupted it.
type goldenPayload struct {
	idx       int
	corrupted bool
	entropy   uint64
}

func (p *goldenPayload) CorruptedCopy(r uint64) any {
	return &goldenPayload{idx: p.idx, corrupted: true, entropy: r}
}

// TestInjectScheduleGolden pins the link's whole delivery schedule under
// fault injection: which frames arrive, where, at which virtual instant, in
// which order and RX train, and which of them were corrupted. The golden
// file was generated before the frame became its own simulator event and
// must be reproduced byte for byte; regenerate it with -update only for a
// change that is meant to move the schedule.
//
// Broadcast visits peers in map order, so deliveries are logged per
// destination: each NIC's own sequence is deterministic, the interleaving
// between NICs at one instant is not.
func TestInjectScheduleGolden(t *testing.T) {
	l, sim, _ := newLink()
	addrs := []string{"a", "b", "c", "d"}
	nics := make([]*NIC, len(addrs))
	logs := make([]bytes.Buffer, len(addrs))
	sends := 0
	send := func(from int, dst string, size int) {
		_ = nics[from].Send(&Frame{Dst: dst, EtherType: TypeIP, Size: size, Payload: &goldenPayload{idx: sends}})
		sends++
	}
	record := func(at int, f *Frame, train int) {
		p := f.Payload.(*goldenPayload)
		fmt.Fprintf(&logs[at], "%d %s<-%s #%d size=%d", sim.Clock().Now(), addrs[at], f.Src, p.idx, f.Size)
		if train >= 0 {
			fmt.Fprintf(&logs[at], " train=%d", train)
		}
		if p.corrupted {
			fmt.Fprintf(&logs[at], " corrupt=%016x", p.entropy)
		}
		logs[at].WriteByte('\n')
		// Every seventh intact unicast frame is answered from inside the
		// delivery callback, as a protocol handler would. c stays silent:
		// a broadcast arms a's and c's train flushes in map order, and only
		// one of the two may send from its flush if send indices (and the
		// fault stream they draw from) are to be deterministic.
		if !p.corrupted && f.Dst != Broadcast && p.idx%7 == 0 && addrs[at] != "c" {
			for i, a := range addrs {
				if a == f.Src {
					send(at, addrs[i], 64)
				}
			}
		}
	}
	for i, a := range addrs {
		n, err := l.Attach(a)
		if err != nil {
			t.Fatal(err)
		}
		nics[i] = n
		i := i
		if i%2 == 0 {
			// a and c coalesce same-instant arrivals into RX trains.
			trains := 0
			n.SetBatchReceiver(func(fs []*Frame) {
				for _, f := range fs {
					record(i, f, trains)
				}
				trains++
			})
		} else {
			n.SetReceiver(func(f *Frame) { record(i, f, -1) })
		}
	}

	l.InjectFaults(FaultPlan{Seed: 0x5eed, Drop: 0.05, Corrupt: 0.05, Duplicate: 0.08, Reorder: 0.08})
	rng := uint64(0xfeedface)
	sizes := []int{28, 64, 100, 576, MTU}
	for i := 0; i < 2000; i++ {
		switch i {
		case 500:
			l.Partition("a", "c")
		case 800:
			l.Partition("b", "d")
		case 1200:
			l.Heal("a", "c")
		case 1500:
			l.Heal("b", "d")
		}
		r := splitmix64(&rng)
		from := int(r % 4)
		dst := Broadcast
		if (r>>8)%4 != 0 {
			dst = addrs[(from+1+int((r>>16)%3))%4]
		}
		send(from, dst, sizes[(r>>24)%uint64(len(sizes))])
		// Let the wire drain partway every few sends, so transmissions
		// interleave with deliveries, trains and in-flight duplicates.
		if (r>>32)%5 == 0 {
			sim.RunUntil(sim.Clock().Now().Add(vtime.Duration((r>>40)%400) * 1000))
		}
	}
	sim.Run(0)

	var got bytes.Buffer
	for i := range logs {
		fmt.Fprintf(&got, "== %s\n", addrs[i])
		got.Write(logs[i].Bytes())
	}
	fmt.Fprintf(&got, "== stats\nsends=%d frames=%d dropped=%d %+v\n", sends, l.Frames, l.Dropped, l.FaultStats())

	path := filepath.Join("testdata", "inject_schedule.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("schedule diverges from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("schedule has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
