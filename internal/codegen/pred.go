// Package codegen is the runtime-code-generation substrate of the SPIN
// event dispatcher reproduction (paper §3, "Implementation and
// performance").
//
// SPIN builds a specialized machine-code dispatch routine for every event
// with non-trivial bindings: the dispatch loop is unrolled over the handler
// list, small guards and handlers are inlined into the routine, and a
// peephole optimizer cleans up the generated code. Go cannot generate
// machine code at runtime, so this package reproduces the same structure
// one level up:
//
//   - "code generation" compiles the binding list into an immutable Plan —
//     a flattened ("unrolled") array of pre-resolved dispatch steps with no
//     per-raise allocation or list traversal;
//   - "inlining" executes guards and handlers written in a small predicate
//     and body DSL directly inside the dispatch routine, with no indirect
//     call (the Pred and Body types);
//   - "peephole optimization" simplifies the plan before publication:
//     constant-true guards are elided, constant-false guards eliminate
//     their binding entirely, boolean predicate trees are folded, and a
//     single unguarded synchronous binding collapses to a direct-call
//     bypass.
//
// The performance structure the paper measures — per-binding indirect-call
// cost versus much cheaper inlined evaluation, and O(n) plan regeneration
// per installation — is preserved; see DESIGN.md for the substitution
// rationale.
package codegen

import (
	"fmt"
	"sync/atomic"
)

// PredOp enumerates the predicate operators the code generator can inline.
// The set mirrors what SPIN's generator could splice into a dispatch stub:
// constant results, comparisons of a global cell or an argument word
// against a constant, and boolean combinations thereof.
type PredOp int

const (
	// PredTrue always passes. Peephole elides it from guard lists.
	PredTrue PredOp = iota
	// PredFalse never passes. Peephole removes the guarded binding.
	PredFalse
	// PredGlobalEq compares the word in Cell to K (Table 1's benchmark
	// guard: "compare a global variable to a constant and return true").
	PredGlobalEq
	// PredGlobalNe is the negated form of PredGlobalEq.
	PredGlobalNe
	// PredArgEq compares argument word Arg to K (the packet-filter shape:
	// "discriminate on the UDP or TCP port destination field").
	PredArgEq
	// PredArgNe is the negated form of PredArgEq.
	PredArgNe
	// PredArgLt passes when argument Arg is strictly below K.
	PredArgLt
	// PredAnd passes when both children pass.
	PredAnd
	// PredOr passes when either child passes.
	PredOr
	// PredNot negates its single child.
	PredNot
)

// Pred is an inlinable guard predicate. Guards expressed as a Pred are
// evaluated inside the generated dispatch routine without an indirect call;
// opaque function guards (codegen.Guard.Fn with a nil Pred) always dispatch
// indirectly.
type Pred struct {
	Op   PredOp
	Cell *atomic.Uint64 // PredGlobalEq/Ne
	Arg  int            // PredArgEq/Ne/Lt
	K    uint64
	L, R *Pred // PredAnd/Or (L,R), PredNot (L)
}

// Convenience constructors.

// True returns the always-true predicate.
func True() *Pred { return &Pred{Op: PredTrue} }

// False returns the always-false predicate.
func False() *Pred { return &Pred{Op: PredFalse} }

// GlobalEq builds cell == k.
func GlobalEq(cell *atomic.Uint64, k uint64) *Pred {
	return &Pred{Op: PredGlobalEq, Cell: cell, K: k}
}

// GlobalNe builds cell != k.
func GlobalNe(cell *atomic.Uint64, k uint64) *Pred {
	return &Pred{Op: PredGlobalNe, Cell: cell, K: k}
}

// ArgEq builds args[i] == k.
func ArgEq(i int, k uint64) *Pred { return &Pred{Op: PredArgEq, Arg: i, K: k} }

// ArgNe builds args[i] != k.
func ArgNe(i int, k uint64) *Pred { return &Pred{Op: PredArgNe, Arg: i, K: k} }

// ArgLt builds args[i] < k.
func ArgLt(i int, k uint64) *Pred { return &Pred{Op: PredArgLt, Arg: i, K: k} }

// And builds l && r.
func And(l, r *Pred) *Pred { return &Pred{Op: PredAnd, L: l, R: r} }

// Or builds l || r.
func Or(l, r *Pred) *Pred { return &Pred{Op: PredOr, L: l, R: r} }

// Not builds !p.
func Not(p *Pred) *Pred { return &Pred{Op: PredNot, L: p} }

// asWord extracts a machine word from a raise argument. It accepts the
// integer kinds rtti maps to WORD. The second result reports success.
func asWord(v any) (uint64, bool) {
	switch v := v.(type) {
	case uint64:
		return v, true
	case int:
		return uint64(v), true
	case uint:
		return uint64(v), true
	case int64:
		return uint64(v), true
	case int32:
		return uint64(v), true
	case uint32:
		return uint64(v), true
	case int16:
		return uint64(v), true
	case uint16:
		return uint64(v), true
	case int8:
		return uint64(v), true
	case uint8:
		return uint64(v), true
	case uintptr:
		return uint64(v), true
	}
	return 0, false
}

// Eval evaluates the predicate over the raise arguments. Out-of-range or
// non-word argument references evaluate to false rather than panicking:
// guards are untrusted extension code and must not crash the raiser.
func (p *Pred) Eval(args []any) bool {
	switch p.Op {
	case PredTrue:
		return true
	case PredFalse:
		return false
	case PredGlobalEq:
		return p.Cell != nil && p.Cell.Load() == p.K
	case PredGlobalNe:
		return p.Cell != nil && p.Cell.Load() != p.K
	case PredArgEq:
		w, ok := argWord(args, p.Arg)
		return ok && w == p.K
	case PredArgNe:
		w, ok := argWord(args, p.Arg)
		return ok && w != p.K
	case PredArgLt:
		w, ok := argWord(args, p.Arg)
		return ok && w < p.K
	case PredAnd:
		return p.L.Eval(args) && p.R.Eval(args)
	case PredOr:
		return p.L.Eval(args) || p.R.Eval(args)
	case PredNot:
		return !p.L.Eval(args)
	}
	return false
}

func argWord(args []any, i int) (uint64, bool) {
	if i < 0 || i >= len(args) {
		return 0, false
	}
	return asWord(args[i])
}

// simplify returns a peephole-simplified equivalent of p, folding constant
// subtrees: And(True,x)=x, Or(False,x)=x, Not(Not(x))=x, and so on. It
// never evaluates cells or arguments — only structurally constant facts
// fold, so a simplified predicate is observationally identical.
func (p *Pred) simplify() *Pred {
	if p == nil {
		return nil
	}
	switch p.Op {
	case PredAnd:
		l, r := p.L.simplify(), p.R.simplify()
		switch {
		case l.Op == PredFalse || r.Op == PredFalse:
			return False()
		case l.Op == PredTrue:
			return r
		case r.Op == PredTrue:
			return l
		}
		return And(l, r)
	case PredOr:
		l, r := p.L.simplify(), p.R.simplify()
		switch {
		case l.Op == PredTrue || r.Op == PredTrue:
			return True()
		case l.Op == PredFalse:
			return r
		case r.Op == PredFalse:
			return l
		}
		return Or(l, r)
	case PredNot:
		l := p.L.simplify()
		switch l.Op {
		case PredTrue:
			return False()
		case PredFalse:
			return True()
		case PredNot:
			return l.L
		}
		return Not(l)
	default:
		return p
	}
}

// String renders the predicate for diagnostics and plan disassembly.
func (p *Pred) String() string {
	if p == nil {
		return "<nil>"
	}
	switch p.Op {
	case PredTrue:
		return "true"
	case PredFalse:
		return "false"
	case PredGlobalEq:
		return fmt.Sprintf("*cell == %d", p.K)
	case PredGlobalNe:
		return fmt.Sprintf("*cell != %d", p.K)
	case PredArgEq:
		return fmt.Sprintf("arg%d == %d", p.Arg, p.K)
	case PredArgNe:
		return fmt.Sprintf("arg%d != %d", p.Arg, p.K)
	case PredArgLt:
		return fmt.Sprintf("arg%d < %d", p.Arg, p.K)
	case PredAnd:
		return fmt.Sprintf("(%s && %s)", p.L, p.R)
	case PredOr:
		return fmt.Sprintf("(%s || %s)", p.L, p.R)
	case PredNot:
		return fmt.Sprintf("!%s", p.L)
	}
	return "pred(?)"
}
