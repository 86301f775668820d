// Transactions: the paper's distributed transaction system (§3 lists it
// among SPIN's integrated applications) running two-phase commit across
// three simulated machines. Resource managers are guarded event handlers;
// a participant's vote is the logical AND of its managers' answers — the
// dual of VM.PageFault's logical-OR merge.
//
//	go run ./examples/transactions
package main

import (
	"fmt"
	"log"

	"spin/internal/dispatch"
	"spin/internal/kernel"
	"spin/internal/netstack"
	"spin/internal/rtti"
	"spin/internal/scenario"
	"spin/internal/txn"
)

// account is a trivially transactional bank account.
type account struct {
	name    string
	balance int
	pending map[uint64]int // txid -> delta reserved at prepare
}

// attach installs the account as a resource manager on a participant,
// scoped by a guard to operations mentioning it.
func (a *account) attach(p *txn.Participant) error {
	guard := txn.OpGuard(a.name + ":")
	prepSig := p.Prepare.Signature()
	applySig := p.Commit.Signature()
	parse := func(op string) int {
		var delta int
		_, _ = fmt.Sscanf(op[len(a.name)+1:], "%d", &delta)
		return delta
	}
	_, err := p.Prepare.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: a.name + ".Prepare", Module: txn.Module, Sig: prepSig},
		Fn: func(clo any, args []any) any {
			txid, op := args[0].(uint64), args[1].(string)
			delta := parse(op)
			if a.balance+delta < 0 {
				fmt.Printf("  %s votes NO on %q (balance %d)\n", a.name, op, a.balance)
				return false
			}
			a.pending[txid] = delta
			fmt.Printf("  %s votes yes on %q\n", a.name, op)
			return true
		},
	}, dispatch.WithGuard(guard))
	if err != nil {
		return err
	}
	_, err = p.Commit.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: a.name + ".Commit", Module: txn.Module, Sig: applySig},
		Fn: func(clo any, args []any) any {
			txid := args[0].(uint64)
			if delta, ok := a.pending[txid]; ok {
				a.balance += delta
				delete(a.pending, txid)
			}
			return nil
		},
	}, dispatch.WithGuard(guard))
	if err != nil {
		return err
	}
	_, err = p.Abort.Install(dispatch.Handler{
		Proc: &rtti.Proc{Name: a.name + ".Abort", Module: txn.Module, Sig: applySig},
		Fn: func(clo any, args []any) any {
			delete(a.pending, args[0].(uint64))
			return nil
		},
	}, dispatch.WithGuard(guard))
	return err
}

func main() {
	// The coordinator machine, then two participant machines with one
	// account each, all on one wire.
	accounts := []*account{
		{name: "alice", balance: 100, pending: map[uint64]int{}},
		{name: "bob", balance: 20, pending: map[uint64]int{}},
	}
	hosts := []scenario.Host{{Kernel: kernel.Config{Name: "coord", Metered: true},
		Net: netstack.Config{IP: "10.2.0.1"}, MAC: "mac-c"}}
	for i, acct := range accounts {
		hosts = append(hosts, scenario.Host{Kernel: kernel.Config{Name: acct.name},
			Net: netstack.Config{IP: fmt.Sprintf("10.2.0.%d", i+2), Prefix: acct.name + ":"},
			MAC: fmt.Sprintf("mac-p%d", i)})
	}
	rig, err := scenario.Wire(hosts...)
	if err != nil {
		log.Fatal(err)
	}
	coordM, sc := rig.Nodes[0], rig.Nodes[0].Stack
	for i, acct := range accounts {
		m := rig.Nodes[i+1]
		p, err := txn.NewParticipant(m.Dispatcher, m.Stack, m.Sched, acct.name+":")
		if err != nil {
			log.Fatal(err)
		}
		if err := acct.attach(p); err != nil {
			log.Fatal(err)
		}
	}

	c, err := txn.NewCoordinator(sc, coordM.Sched, []string{"10.2.0.2", "10.2.0.3"})
	if err != nil {
		log.Fatal(err)
	}

	// A transfer is two scoped operations under one transaction per
	// participant machine: alice pays 30, bob receives 30 — and a second
	// transfer that bob cannot cover.
	run := func(label, op string) {
		fmt.Printf("\n-- %s: %q --\n", label, op)
		_, _ = c.Begin(op, func(o txn.Outcome) {
			fmt.Printf("  outcome: %v\n", o)
		})
		coordM.Sim.Run(0)
	}
	run("transfer 1a", "alice:-30")
	run("transfer 1b", "bob:+30")
	run("transfer 2a", "bob:-500") // overdraft: bob votes no

	fmt.Println("\n-- final balances --")
	for _, a := range accounts {
		fmt.Printf("  %s: %d\n", a.name, a.balance)
	}
	fmt.Println("\n" + c.String())
}
