package netstack

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The socket queues (a connection's received segments, a socket's
// datagrams, a listener's backlog) used to pop with q = q[1:]: the backing
// array kept every popped element reachable until append outgrew it, and
// append outgrew it forever. Each test below pops through the public call
// and then asks the collector whether the queue, still alive, holds on to
// what it handed out; and runs 10 000 push/pop rounds that must not
// allocate, which they would if the buffer were still creeping.

// collectable reports whether the object behind the flag — set by a
// finalizer — is garbage although keep is still live.
func collectable(finalized *atomic.Bool, keep any) bool {
	for i := 0; i < 200 && !finalized.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	runtime.KeepAlive(keep)
	return finalized.Load()
}

func TestUDPQueueReleasesPoppedPacket(t *testing.T) {
	_, a, _ := nativePair(t)
	sock, err := a.stack.BindUDP(9)
	if err != nil {
		t.Fatal(err)
	}
	var finalized atomic.Bool
	func() {
		pkt := &Packet{DstPort: 9}
		runtime.SetFinalizer(pkt, func(*Packet) { finalized.Store(true) })
		sock.deliver(pkt)
		sock.deliver(&Packet{DstPort: 9}) // the queue does not drain
		if got, ok := sock.Recv(); !ok || got != pkt {
			t.Fatal("Recv did not return the first datagram")
		}
	}()
	if !collectable(&finalized, sock) {
		t.Fatal("the socket queue keeps a received datagram reachable")
	}
	pkt := &Packet{DstPort: 9}
	if allocs := testing.AllocsPerRun(10000, func() {
		sock.deliver(pkt)
		sock.Recv()
	}); allocs != 0 {
		t.Fatalf("deliver + Recv allocates %.2f times per round", allocs)
	}
}

func TestTCPRecvQueueReleasesPoppedSegment(t *testing.T) {
	_, a, _ := nativePair(t)
	c := &TCPConn{stack: a.stack, state: tcpEstablished}
	var finalized atomic.Bool
	func() {
		seg := make([]byte, 64)
		runtime.SetFinalizer(&seg[0], func(*byte) { finalized.Store(true) })
		c.deliverData(&Packet{Seq: c.ack, Payload: seg})
		c.deliverData(&Packet{Seq: c.ack, Payload: []byte("next")})
		if got, ok := c.Recv(); !ok || &got[0] != &seg[0] {
			t.Fatal("Recv did not return the first segment")
		}
	}()
	if !collectable(&finalized, c) {
		t.Fatal("the receive queue keeps a consumed segment reachable")
	}
	pkt := &Packet{Payload: []byte("data")}
	if allocs := testing.AllocsPerRun(10000, func() {
		pkt.Seq = c.ack
		c.deliverData(pkt)
		c.Recv()
	}); allocs != 0 {
		t.Fatalf("deliverData + Recv allocates %.2f times per round", allocs)
	}
}

func TestListenerBacklogReleasesAcceptedConn(t *testing.T) {
	_, a, _ := nativePair(t)
	l, err := a.stack.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	var finalized atomic.Bool
	func() {
		c := &TCPConn{stack: a.stack}
		runtime.SetFinalizer(c, func(*TCPConn) { finalized.Store(true) })
		l.pending.Push(c)
		l.pending.Push(&TCPConn{stack: a.stack})
		if got, ok := l.Accept(); !ok || got != c {
			t.Fatal("Accept did not return the first connection")
		}
	}()
	if !collectable(&finalized, l) {
		t.Fatal("the accept backlog keeps an accepted connection reachable")
	}
	c := &TCPConn{stack: a.stack}
	if allocs := testing.AllocsPerRun(10000, func() {
		l.pending.Push(c)
		l.Accept()
	}); allocs != 0 {
		t.Fatalf("backlog push + Accept allocates %.2f times per round", allocs)
	}
}
