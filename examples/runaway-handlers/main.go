// Runaway handlers: the paper's §2.6 "Denial of service" mechanisms,
// live. An extension that never returns would stall every raiser of the
// event it handles; SPIN offers "one solution preventative, but expensive"
// — asynchrony — "and the other corrective, but cheap": termination of
// handlers that declared themselves EPHEMERAL. This example also shows the
// resource-accounting answer to "Too many handlers".
//
//	go run ./examples/runaway-handlers
package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spin"
	"spin/internal/dispatch"
	"spin/internal/rtti"
)

var module = spin.NewModule("Runaway")

func main() {
	d := spin.NewDispatcher()
	sig := spin.Sig(nil, spin.Word)

	// --- Corrective: EPHEMERAL termination ---------------------------
	packet, _ := d.DefineEvent("Net.PacketArrived", sig, dispatch.WithOwner(module))

	// The authority refuses handlers that have not invited termination —
	// §2.6: "An authorizer can determine whether or not a particular
	// handler is in fact EPHEMERAL, and refuse installation if it is not."
	_ = packet.InstallAuthorizer(func(req *dispatch.AuthRequest) bool {
		if req.Op == dispatch.OpInstall && !req.IsEphemeral() {
			fmt.Println("authorizer: refused non-EPHEMERAL handler",
				req.Binding.HandlerName())
			return false
		}
		return true
	}, module)

	plain := spin.Handler{
		Proc: &rtti.Proc{Name: "Ext.Plain", Module: module, Sig: sig},
		Fn:   func(any, []any) any { return nil },
	}
	if _, err := packet.Install(plain); !errors.Is(err, spin.ErrDenied) {
		fmt.Println("unexpected:", err)
	}

	// An EPHEMERAL handler that wedges on its third packet: it blocks on a
	// channel that nobody ever signals. Declaring EPHEMERAL means inviting
	// termination, so the handler is written in the cancellation-aware
	// CtxFn convention — when the watchdog's deadline fires, ctx is
	// cancelled and the blocked delivery unwinds instead of leaking.
	stuck := make(chan struct{})
	defer close(stuck)
	count := 0
	eph := spin.Handler{
		Proc: &rtti.Proc{Name: "Ext.Deliver", Module: module, Sig: sig,
			Ephemeral: true},
		CtxFn: func(ctx context.Context, clo any, args []any) any {
			count++
			if count == 3 {
				select {
				case <-stuck: // would wedge forever...
				case <-ctx.Done(): // ...but the watchdog terminates it
				}
			}
			return nil
		},
	}
	b, err := packet.Install(eph, spin.Ephemeral(5*time.Millisecond))
	if err != nil {
		fmt.Println("install:", err)
		return
	}

	fmt.Println("\n-- delivering packets through an EPHEMERAL handler --")
	for i := 1; i <= 4; i++ {
		start := time.Now()
		_, err := packet.Raise(uint64(i))
		fmt.Printf("packet %d: err=%v, raiser blocked %v\n", i, err,
			time.Since(start).Round(time.Millisecond))
	}
	fmt.Printf("terminations: %d (the wedged delivery simply lost its packet)\n",
		b.Terminations())

	// --- Preventative: asynchrony ------------------------------------
	fmt.Println("\n-- asynchronous handler: the raiser never waits --")
	slowDone := make(chan struct{})
	logEv, _ := d.DefineEvent("Audit.Record", sig, dispatch.WithOwner(module))
	_, _ = logEv.Install(spin.Handler{
		Proc: &rtti.Proc{Name: "Audit.SlowWriter", Module: module, Sig: sig},
		Fn: func(any, []any) any {
			time.Sleep(20 * time.Millisecond) // slow stable storage
			close(slowDone)
			return nil
		},
	}, spin.Async())
	start := time.Now()
	_, _ = logEv.Raise(uint64(1))
	fmt.Printf("raise returned after %v; the slow writer runs detached\n",
		time.Since(start).Round(time.Millisecond))
	<-slowDone

	// --- Too many handlers: resource accounting ----------------------
	fmt.Println("\n-- handler quotas --")
	dq := spin.NewDispatcher()
	dq.SetQuotas(3, 0)
	ev, _ := dq.DefineEvent("M.P", sig)
	h := spin.Handler{
		Proc: &rtti.Proc{Name: "Greedy.H", Module: module, Sig: sig},
		Fn:   func(any, []any) any { return nil },
	}
	for i := 1; ; i++ {
		if _, err := ev.Install(h); err != nil {
			fmt.Printf("install %d: %v\n", i, err)
			break
		}
		fmt.Printf("install %d: ok\n", i)
	}
}
