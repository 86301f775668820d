package netstack

import (
	"testing"

	"spin/internal/sched"
)

// The abrupt-peer-death audit: every path out of a TCP connection must
// empty the demux table on both machines and leave no pending simulator
// timers behind (the handshake timers are one-shot and drain with the
// run). Leaks here would accumulate across the remote layer's redials.

// drain runs the shared timeline to quiescence and asserts no events leak.
func (r *rig) drain(t *testing.T) {
	t.Helper()
	r.a.Sim.Run(500000)
	if p := r.a.Sim.Pending(); p != 0 {
		t.Fatalf("simulator still has %d pending events after quiescence", p)
	}
}

func assertNoConns(t *testing.T, r *rig) {
	t.Helper()
	if n := r.sa.TCPConns(); n != 0 {
		t.Fatalf("machine A leaked %d TCP endpoints", n)
	}
	if n := r.sb.TCPConns(); n != 0 {
		t.Fatalf("machine B leaked %d TCP endpoints", n)
	}
}

// dialEstablished runs a handshake to completion and returns both ends.
func dialEstablished(t *testing.T, r *rig, port uint16) (client, server *TCPConn) {
	t.Helper()
	l, err := r.sb.ListenTCP(port)
	if err != nil {
		t.Fatal(err)
	}
	client, err = r.sa.DialTCP("10.0.0.2", port)
	if err != nil {
		t.Fatal(err)
	}
	r.run()
	server, _ = l.Accept()
	if server == nil || !client.Established() {
		t.Fatal("handshake never completed")
	}
	return client, server
}

func TestTCPTeardownCleanCloseReapsBothEnds(t *testing.T) {
	r := twoMachines(t)
	client, server := dialEstablished(t, r, 6000)
	if err := client.Send([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	r.b.Sched.Spawn("server-close", 1, func(st *sched.Strand) sched.Status {
		for {
			if _, ok := server.Recv(); !ok {
				break
			}
		}
		if server.EOF() {
			_ = server.Close()
			return sched.Done
		}
		server.AwaitData(st)
		return sched.Block
	})
	r.drain(t)
	assertNoConns(t, r)
	if !client.Closed() || !server.Closed() {
		t.Fatal("endpoints not closed")
	}
}

// An endpoint closed while its peer is still sending (the web server
// hanging up on an endless request line) discards the data but follows its
// sequence position, so the peer's eventual FIN matches and both ends are
// reaped; it used to leak the closed endpoint.
func TestTCPTeardownCloseWhilePeerSendsReapsBothEnds(t *testing.T) {
	r := twoMachines(t)
	client, server := dialEstablished(t, r, 6004)
	if err := client.Send(make([]byte, 3*MSS)); err != nil { // three segments in flight
		t.Fatal(err)
	}
	_ = server.Close() // before any of them arrives
	r.run()
	if !client.EOF() {
		t.Fatal("client never saw the server's FIN")
	}
	_ = client.Close()
	r.drain(t)
	assertNoConns(t, r)
	if st := r.sb.TCPStats(); st.OutOfOrder != 0 {
		t.Fatalf("the client's FIN was dropped as out of order (%d)", st.OutOfOrder)
	}
	if _, ok := server.Recv(); ok {
		t.Fatal("data arriving after Close was queued")
	}
}

func TestTCPTeardownAbortMidStreamResetsPeer(t *testing.T) {
	r := twoMachines(t)
	client, server := dialEstablished(t, r, 6001)
	if err := client.Send([]byte("first")); err != nil {
		t.Fatal(err)
	}
	client.Abort() // peer death mid-stream
	woken := false
	r.b.Sched.Spawn("server-reader", 1, func(st *sched.Strand) sched.Status {
		if server.Closed() || server.EOF() {
			woken = true
			return sched.Done
		}
		server.AwaitData(st)
		return sched.Block
	})
	r.drain(t)
	assertNoConns(t, r)
	if !server.Closed() {
		t.Fatal("RST did not close the server endpoint")
	}
	if !woken {
		t.Fatal("parked reader strand was never roused by the reset")
	}
}

func TestTCPTeardownMidHandshakePartitionReapsByTimer(t *testing.T) {
	// The peer is unreachable before the SYN even lands: the client
	// endpoint sits in syn-sent until the embryonic timer reaps it.
	r := twoMachines(t)
	_, _ = r.sb.ListenTCP(6002)
	r.link.Partition("mac-a", "mac-b")
	client, err := r.sa.DialTCP("10.0.0.2", 6002)
	if err != nil {
		t.Fatal(err)
	}
	if before := r.sa.TCPConns(); before != 1 {
		t.Fatalf("dial registered %d conns", before)
	}
	r.drain(t)
	assertNoConns(t, r)
	if !client.Closed() || !client.EOF() {
		t.Fatal("embryonic endpoint not terminal after timeout")
	}
}

func TestTCPTeardownHalfOpenServerReapsByTimer(t *testing.T) {
	// A SYN arrives from a peer that dies immediately (its address is
	// unroutable, so the SYN-ACK cannot even be sent): the server-side
	// embryonic endpoint must be reaped by the handshake timer.
	r := twoMachines(t)
	_, _ = r.sb.ListenTCP(6003)
	r.sb.tcpInput(&Packet{SrcIP: "10.0.0.9", SrcPort: 5555, DstPort: 6003,
		Proto: ProtoTCP, Seq: 1, Flags: FlagSYN})
	if n := r.sb.TCPConns(); n != 1 {
		t.Fatalf("SYN registered %d conns", n)
	}
	r.drain(t)
	assertNoConns(t, r)
	if r.sb.TCPStats().Reaped != 1 {
		t.Fatalf("stats = %+v", r.sb.TCPStats())
	}
}

func TestTCPTeardownStraySynAckDrawsReset(t *testing.T) {
	// A SYN-ACK for a connection the client no longer has (it died and
	// rebooted mid-handshake) is answered with RST, which tears down the
	// server's half-open endpoint immediately — no timer wait needed.
	r := twoMachines(t)
	_, _ = r.sb.ListenTCP(6004)
	client, err := r.sa.DialTCP("10.0.0.2", 6004)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the client dying before the SYN-ACK returns: reap its
	// endpoint directly (as a crashed stack would lose all state).
	client.reap()
	r.drain(t)
	assertNoConns(t, r)
	if r.sa.TCPStats().Resets == 0 {
		t.Fatal("stray SYN-ACK was not answered with RST")
	}
}

func TestTCPOutOfOrderSegmentsDroppedAndCounted(t *testing.T) {
	r := twoMachines(t)
	client, server := dialEstablished(t, r, 6005)
	if err := client.Send([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	r.run()
	// A duplicated segment (same seq) and a hole (seq far ahead) must
	// both be discarded without corrupting the stream.
	dup := &Packet{SrcIP: "10.0.0.1", SrcPort: client.LocalPort(), DstPort: 6005,
		Proto: ProtoTCP, Seq: 2, Flags: FlagPSH | FlagACK, Payload: []byte("abc")}
	hole := &Packet{SrcIP: "10.0.0.1", SrcPort: client.LocalPort(), DstPort: 6005,
		Proto: ProtoTCP, Seq: 999, Flags: FlagPSH | FlagACK, Payload: []byte("zzz")}
	r.sb.tcpInput(dup)
	r.sb.tcpInput(hole)
	r.drain(t)
	if server.BytesIn != 3 {
		t.Fatalf("BytesIn = %d, stream corrupted", server.BytesIn)
	}
	if got := r.sb.TCPStats().OutOfOrder; got != 2 {
		t.Fatalf("out-of-order count = %d, want 2", got)
	}
	d, _ := server.Recv()
	if string(d) != "abc" {
		t.Fatalf("payload = %q", d)
	}
}
