package shard_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/rtti"
	"spin/internal/scenario"
	"spin/internal/shard"
	"spin/internal/vtime"
)

// TestRemoteShardRaiseOverWire places shard 1 of a two-shard plane behind
// the PR-9 simulated wire: control-plane operations (define, install) land
// on machine B's dispatcher directly, while raises through the routed
// handle cross the wire with the peer's failure-domain machinery. The
// handle API is unchanged — only the route differs.
func TestRemoteShardRaiseOverWire(t *testing.T) {
	rig, err := scenario.NewRemoteRig()
	if err != nil {
		t.Fatal(err)
	}
	peer, err := rig.WarmPeer()
	if err != nil {
		t.Fatal(err)
	}
	r, err := shard.NewRouter(shard.Config{Shards: 2, NewShard: func(int) *dispatch.Dispatcher {
		return dispatch.New()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AttachRemote(1, &shard.RemoteShard{
		Peer:    peer,
		Control: rig.B.Dispatcher,
		Prefix:  scenario.RemotePrefix,
	}); err != nil {
		t.Fatal(err)
	}

	// Scan for names the ring routes to each slot.
	var remoteName, localName string
	for i := 0; remoteName == "" || localName == ""; i++ {
		n := fmt.Sprintf("Wire.Evt.%03d", i)
		if r.Owner(n) == 1 && remoteName == "" {
			remoteName = n
		}
		if r.Owner(n) == 0 && localName == "" {
			localName = n
		}
	}

	sig := rtti.Sig(nil, rtti.Word)
	mod := rtti.NewModule("WireTest")
	var hits atomic.Int64
	re, err := r.DefineEvent(remoteName, sig)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Shard().Remote() {
		t.Fatal("event not routed to the remote shard")
	}
	if _, err := re.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: "Wire.H", Module: mod, Sig: sig},
		Fn:   func(any, []any) any { hits.Add(1); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	// The control plane defined the event under the serving receiver's
	// prefix on machine B.
	if _, ok := rig.B.Dispatcher.Lookup(scenario.RemotePrefix + remoteName); !ok {
		t.Fatalf("%s%s not defined on the remote control dispatcher", scenario.RemotePrefix, remoteName)
	}

	const raises = 12
	for k := 0; k < raises; k++ {
		if _, err := re.Raise1(uint64(k)); err != nil {
			t.Fatalf("remote raise %d: %v", k, err)
		}
		rig.RunFor(vtime.Micros(10_000))
	}
	if got := hits.Load(); got != raises {
		t.Fatalf("remote handler fired %d times, want %d", got, raises)
	}

	// The local slot keeps the in-process fast path.
	le, err := r.DefineEvent(localName, sig,
		dispatch.WithIntrinsic(dispatch.Handler{
			Proc: &rtti.Proc{Name: "Wire.L", Module: mod, Sig: sig},
			Fn:   func(any, []any) any { return nil },
		}))
	if err != nil {
		t.Fatal(err)
	}
	if le.Shard().Remote() {
		t.Fatal("local event routed remotely")
	}
	if _, err := le.Raise1(uint64(1)); err != nil {
		t.Fatal(err)
	}
	if st := le.Stats(); st.Raised != 1 {
		t.Fatalf("local stats %+v", st)
	}
}
