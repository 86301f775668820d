// Package netwire simulates the 10 Mb/s Ethernet that connected the
// paper's pair of AXP 3000/400 machines (§3.2 "Networking").
//
// A Link carries frames between attached NICs in virtual time: each send
// pays the frame's serialization delay at the link bandwidth plus a fixed
// media latency, then the destination NIC's receive callback fires as a
// discrete event. The receive callback is the "network interrupt handler"
// hook the network stack installs.
package netwire

import (
	"errors"
	"fmt"

	"spin/internal/vtime"
)

// Ethernet framing constants (bytes on the wire around the payload):
// preamble+SFD 8, MAC header 14, FCS 4, interframe gap 12, minimum payload
// 46.
const (
	frameOverhead = 8 + 14 + 4 + 12
	minPayload    = 46
	// MTU is the maximum Ethernet payload.
	MTU = 1500
	// DefaultBandwidth is 10 Mb/s, the paper's Ethernet.
	DefaultBandwidth = 10_000_000
	// DefaultLatency is the fixed media plus transceiver latency per
	// frame.
	DefaultLatency = vtime.Duration(5 * 1000) // 5us
)

// EtherType values used by the stack.
const (
	TypeIP  uint16 = 0x0800
	TypeARP uint16 = 0x0806
)

// Broadcast is the link-layer broadcast address: a frame sent to it is
// delivered to every attached NIC except the sender.
const Broadcast = "ff:ff:ff:ff:ff:ff"

// Frame is one Ethernet frame. Payload is an opaque reference: the sending
// stack passes its parsed packet representation and the receiving stack
// re-parses, charging the protocol-processing costs explicitly.
//
// A frame in flight is its own simulator event: Send records how to deliver
// it in the frame and schedules the frame itself. The sender must therefore
// leave a frame alone, and not send it again, until it has been delivered.
type Frame struct {
	Src, Dst  string
	EtherType uint16
	// Size is the payload size in bytes, used for serialization timing.
	Size int
	// Payload carries the packet across the simulated wire.
	Payload any

	// Delivery state, written by Send: the transmitting NIC, and for a
	// broadcast the peers partitioned from it at transmission time.
	via     *NIC
	blocked map[string]bool
}

// Fire delivers the frame; it implements vtime.Event for Send.
func (f *Frame) Fire() { f.via.dispatchFrame(f) }

// Errors.
var (
	ErrNoSuchNIC   = errors.New("netwire: no NIC with that address")
	ErrDuplicateNI = errors.New("netwire: address already attached")
	ErrTooBig      = errors.New("netwire: frame exceeds MTU")
)

// Link is a shared broadcast segment.
type Link struct {
	sim       *vtime.Simulator
	bandwidth int64 // bits per second
	latency   vtime.Duration
	nics      map[string]*NIC
	// faults, when non-nil, is the deterministic fault injector (see
	// faults.go). The lossless default never allocates it.
	faults *faultState
	// Frames counts frames delivered.
	Frames int64
	// Dropped counts frames addressed to unattached NICs.
	Dropped int64
}

// NewLink builds a link on the simulator. bandwidth 0 selects
// DefaultBandwidth; latency 0 selects DefaultLatency.
func NewLink(sim *vtime.Simulator, bandwidth int64, latency vtime.Duration) *Link {
	if bandwidth == 0 {
		bandwidth = DefaultBandwidth
	}
	if latency == 0 {
		latency = DefaultLatency
	}
	return &Link{sim: sim, bandwidth: bandwidth, latency: latency, nics: make(map[string]*NIC)}
}

// serializationDelay reports the time to clock a frame with the given
// payload size onto the wire.
func (l *Link) serializationDelay(payloadSize int) vtime.Duration {
	if payloadSize < minPayload {
		payloadSize = minPayload
	}
	bits := int64(payloadSize+frameOverhead) * 8
	return vtime.Duration(bits * int64(1_000_000_000) / l.bandwidth)
}

// Attach adds a NIC with the given MAC-like address.
func (l *Link) Attach(addr string) (*NIC, error) {
	if _, dup := l.nics[addr]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateNI, addr)
	}
	n := &NIC{link: l, addr: addr}
	n.flush = n.flushTrain
	l.nics[addr] = n
	return n, nil
}

// NIC is a network interface attached to a link.
type NIC struct {
	link *Link
	addr string
	recv func(f *Frame)
	// recvB, when set, takes precedence over recv: frames arriving at the
	// same virtual instant are delivered as one train (see
	// SetBatchReceiver).
	recvB      func(fs []*Frame)
	rxTrain    []*Frame
	flushArmed bool
	// flush is flushTrain bound once, so arming a flush allocates nothing.
	flush func()
	// txBusyUntil serializes transmissions: a frame cannot start
	// clocking out until the previous one has left the interface, so
	// small frames never overtake large ones queued ahead of them.
	txBusyUntil vtime.Time
	// TxFrames and RxFrames count traffic through this interface.
	TxFrames int64
	RxFrames int64
}

// Addr returns the NIC's address.
func (n *NIC) Addr() string { return n.addr }

// SetReceiver installs the receive-interrupt callback. The stack charges
// its own interrupt cost inside the callback.
func (n *NIC) SetReceiver(fn func(f *Frame)) { n.recv = fn }

// SetBatchReceiver installs a train-coalescing receive callback: all
// frames delivered to this NIC at the same virtual instant arrive in one
// call, in wire order. This models interrupt coalescing on a busy
// receiver — back-to-back frames queued behind one another on the wire
// land in a single RX train. When set, it takes precedence over
// SetReceiver. The slice belongs to the NIC and is valid only during the
// call.
func (n *NIC) SetBatchReceiver(fn func(fs []*Frame)) { n.recvB = fn }

// deliver hands one received frame to the NIC's callback: directly for a
// plain receiver, or appended to the pending RX train for a batch
// receiver, with the train flush scheduled behind every delivery already
// queued at this instant (the simulator runs same-instant events FIFO).
func (n *NIC) deliver(f *Frame) {
	if n.recvB == nil {
		n.recv(f)
		return
	}
	n.rxTrain = append(n.rxTrain, f)
	if !n.flushArmed {
		n.flushArmed = true
		n.link.sim.At(n.link.sim.Clock().Now(), n.flush)
	}
}

// flushTrain delivers the accumulated RX train. The buffer is detached
// before the callback runs: handlers may send, and a later delivery
// re-arms a fresh train.
func (n *NIC) flushTrain() {
	n.flushArmed = false
	train := n.rxTrain
	n.rxTrain = nil
	n.recvB(train)
	if n.rxTrain == nil {
		// No re-entrant delivery claimed a new train; recycle the buffer,
		// emptied so it does not keep the delivered frames reachable.
		clear(train)
		n.rxTrain = train[:0]
	}
}

// hasReceiver reports whether a delivery would reach a callback.
func (n *NIC) hasReceiver() bool { return n.recv != nil || n.recvB != nil }

// Send transmits a frame. Delivery is scheduled after the serialization
// delay plus link latency; a frame to an unknown address is dropped
// silently after consuming wire time, as on a real segment.
func (n *NIC) Send(f *Frame) error {
	if f.Size > MTU {
		return fmt.Errorf("%w: %d bytes", ErrTooBig, f.Size)
	}
	f.Src = n.addr
	n.TxFrames++
	now := n.link.sim.Clock().Now()
	start := now
	if n.txBusyUntil > start {
		start = n.txBusyUntil
	}
	end := start.Add(n.link.serializationDelay(f.Size))
	n.txBusyUntil = end
	deliverAt := end.Add(n.link.latency)

	// Fault injection: verdicts — including partition membership — are
	// drawn at send time, so the schedule depends only on the seed, the
	// traffic sequence, and the partition set at the instant of
	// transmission. Frames already in flight when a cut happens still
	// arrive, and frames sent during a cut stay lost even if it heals
	// before their delivery instant.
	f.via, f.blocked = n, nil
	out := f
	if fs := n.link.faults; fs != nil {
		if len(fs.parts) > 0 {
			if f.Dst != Broadcast {
				if fs.parts[pairKey(n.addr, f.Dst)] {
					fs.stats.PartitionDrops++
					return nil
				}
			} else {
				for addr := range n.link.nics {
					if fs.parts[pairKey(n.addr, addr)] {
						if f.blocked == nil {
							f.blocked = make(map[string]bool)
						}
						f.blocked[addr] = true
					}
				}
			}
		}
		v := fs.draw()
		if v.drop {
			return nil // consumed wire time, vanished in flight
		}
		if v.corrupt {
			c, ok := f.Payload.(Corruptible)
			if !ok {
				// The receiver's FCS check would reject the mangled
				// frame: corruption of an opaque payload is a drop.
				return nil
			}
			g := *f
			g.Payload = c.CorruptedCopy(v.entropy)
			out = &g
		}
		if v.reorder {
			deliverAt = deliverAt.Add(fs.reorderDelay())
		}
		if v.dup {
			// The copy trails the original by one serialization delay, as
			// a spurious retransmission would: the same frame, scheduled
			// twice.
			n.link.sim.Schedule(deliverAt.Add(n.link.serializationDelay(f.Size)), out)
		}
	}
	n.link.sim.Schedule(deliverAt, out)
	return nil
}

// dispatchFrame performs the delivery half of Send at the scheduled
// instant. f.blocked is the set of peers partitioned from the sender at
// transmission time (broadcast only; unicast partitions are filtered in
// Send before the frame is scheduled).
func (n *NIC) dispatchFrame(f *Frame) {
	l := n.link
	if f.Dst == Broadcast {
		delivered := false
		for _, peer := range l.nics {
			if peer == n || !peer.hasReceiver() {
				continue
			}
			if f.blocked[peer.addr] {
				l.faults.stats.PartitionDrops++
				continue
			}
			l.Frames++
			peer.RxFrames++
			peer.deliver(f)
			delivered = true
		}
		if !delivered {
			l.Dropped++
		}
		return
	}
	peer, ok := l.nics[f.Dst]
	if !ok || !peer.hasReceiver() {
		l.Dropped++
		return
	}
	l.Frames++
	peer.RxFrames++
	peer.deliver(f)
}
