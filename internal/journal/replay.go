package journal

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Applier consumes replayed records in journal order. The dispatcher's
// live applier (dispatch.ReplayApplier) re-drives installs through the
// plan-compile path; State is the pure symbolic twin for auditing
// without a dispatcher.
type Applier interface {
	Apply(rec Record) error
}

// Summary reports what a replay covered.
type Summary struct {
	// Batches and Records count the sealed prefix replayed.
	Batches int
	Records int
	// Tail counts valid unsealed records after the last seal. They are
	// NOT replayed: only sealed (fsynced, chain-verified) history is
	// trusted at boot.
	Tail int
	// Damaged is set when the journal ends in damage rather than a clean
	// seal boundary or crash tail; the sealed prefix was still replayed.
	Damaged bool
}

// Replay re-drives a journal's sealed records, in order, through a. It
// stops with an error on the first record the applier rejects (a journal
// and boot image that disagree are not a state to limp into). Unsealed
// tail records are reported in the summary but never applied, so a
// crash-recovered boot reconstructs exactly the durable prefix — replay
// of the same sealed journal is idempotent because it always re-derives
// the same state from the same prefix. Reserved record kinds count as
// replayed but never reach a.
func Replay(data []byte, a Applier) (Summary, error) {
	res := Scan(data)
	sum := Summary{
		Batches: len(res.Batches),
		Tail:    len(res.Tail),
		Damaged: res.Damaged,
	}
	for bi := range res.Batches {
		for ri := range res.Batches[bi].Records {
			rec := res.Batches[bi].Records[ri]
			if rec.Kind == kindShardMove {
				sum.Records++
				continue
			}
			if err := a.Apply(rec); err != nil {
				return sum, fmt.Errorf("journal: replay of record %d (batch %d, %s): %w",
					rec.Seq, bi, rec.Kind, err)
			}
			sum.Records++
		}
	}
	return sum, nil
}

// bindingState is one live binding in the symbolic replay state.
type bindingState struct {
	ID          uint64
	Event       string
	Module      string
	Handler     string
	Flags       uint32
	Priority    int32
	Quarantined bool
	Probation   bool
}

// State is the pure replay state machine: it reconstructs the
// binding/quarantine/quota/degradation picture a live dispatcher would
// hold, without needing handler code. `spin journal replay` uses it for the
// replay subcommand; the differential tests use it as an oracle against
// the live dispatcher.
type State struct {
	bindings  map[uint64]*bindingState
	order     map[string][]uint64 // event -> binding IDs in dispatch order
	qModules  map[string]bool
	perModule int64
	global    int64
	level     int64
	levelName string
	raises    int
}

// NewState returns an empty symbolic state.
func NewState() *State {
	return &State{
		bindings: make(map[uint64]*bindingState),
		order:    make(map[string][]uint64),
		qModules: make(map[string]bool),
	}
}

// Apply implements Applier.
func (s *State) Apply(rec Record) error {
	switch rec.Kind {
	case KindInstall:
		if rec.ID == 0 {
			return fmt.Errorf("install record without binding ID")
		}
		b := &bindingState{
			ID: rec.ID, Event: rec.Event, Module: rec.Module,
			Handler: rec.Handler, Flags: rec.Flags, Priority: rec.Priority,
		}
		s.bindings[rec.ID] = b
		if rec.Flags&FlagDefault != 0 {
			return nil // default handlers are not on the dispatch-order list
		}
		s.order[rec.Event] = place(s.order[rec.Event], rec)
	case KindUninstall:
		b, ok := s.bindings[rec.ID]
		if !ok {
			return fmt.Errorf("uninstall of unknown binding %d", rec.ID)
		}
		delete(s.bindings, rec.ID)
		ids := s.order[b.Event]
		if i := slices.Index(ids, rec.ID); i >= 0 {
			s.order[b.Event] = append(ids[:i], ids[i+1:]...)
		}
	case KindSetOrder:
		b, ok := s.bindings[rec.ID]
		if !ok {
			return fmt.Errorf("set-order of unknown binding %d", rec.ID)
		}
		ids := s.order[b.Event]
		if i := slices.Index(ids, rec.ID); i >= 0 {
			ids = append(ids[:i], ids[i+1:]...)
		}
		s.order[b.Event] = place(ids, rec)
	// The journal records effects, not intents: a module quarantine is
	// journaled as one module marker (the install-denial set) plus a
	// per-binding KindQuarantine for every binding it actually flipped,
	// so replay never has to re-derive which bindings a module operation
	// touched.
	case KindQuarantine:
		if b, ok := s.bindings[rec.ID]; ok {
			b.Quarantined, b.Probation = true, false
		}
	case KindProbation:
		if b, ok := s.bindings[rec.ID]; ok {
			b.Quarantined, b.Probation = false, true
		}
	case KindRestore:
		if b, ok := s.bindings[rec.ID]; ok {
			b.Quarantined, b.Probation = false, false
		}
	case KindModuleQuarantine:
		s.qModules[rec.Module] = true
	case KindModuleReadmit:
		delete(s.qModules, rec.Module)
	case KindDegrade:
		s.level = rec.B
		s.levelName = rec.Event
	case KindQuota:
		s.perModule, s.global = rec.A, rec.B
	case KindRaise:
		s.raises++
	case KindSeal, kindShardMove:
		// seals and reserved kinds never reach appliers through Replay
	default:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	return nil
}

// place inserts rec's binding into an event's dispatch order where its
// ordering constraint puts it: first, just before or after its reference,
// or last (unordered, last, and a reference not on the list).
func place(ids []uint64, rec Record) []uint64 {
	switch kind := OrderKind(rec.Flags); kind {
	case 1: // first
		return append([]uint64{rec.ID}, ids...)
	case 3, 4: // before/after ref
		if pos := slices.Index(ids, rec.RefID); pos >= 0 {
			if kind == 4 {
				pos++
			}
			return slices.Insert(ids, pos, rec.ID)
		}
	}
	return append(ids, rec.ID)
}

// Summary renders the reconstructed state, deterministically ordered.
func (s *State) Summary() string {
	var sb strings.Builder
	events := make([]string, 0, len(s.order))
	for ev, ids := range s.order {
		if len(ids) > 0 {
			events = append(events, ev)
		}
	}
	sort.Strings(events)
	fmt.Fprintf(&sb, "events with bindings: %d\n", len(events))
	for _, ev := range events {
		fmt.Fprintf(&sb, "  %s:\n", ev)
		for _, id := range s.order[ev] {
			b := s.bindings[id]
			if b == nil {
				continue
			}
			state := ""
			if b.Quarantined {
				state = " [quarantined]"
			} else if b.Probation {
				state = " [probation]"
			}
			fmt.Fprintf(&sb, "    #%d %s (%s) flags=%#x pri=%d%s\n",
				b.ID, b.Handler, b.Module, b.Flags, b.Priority, state)
		}
	}
	mods := make([]string, 0, len(s.qModules))
	for m := range s.qModules {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	fmt.Fprintf(&sb, "quarantined modules: %v\n", mods)
	fmt.Fprintf(&sb, "quotas: per-module=%d global=%d\n", s.perModule, s.global)
	fmt.Fprintf(&sb, "degradation level: %d (%s)\n", s.level, s.levelName)
	fmt.Fprintf(&sb, "sampled raises: %d\n", s.raises)
	return sb.String()
}

// Bindings returns the live (installed) binding IDs for an event in
// dispatch order, for tests.
func (s *State) Bindings(event string) []uint64 {
	return append([]uint64(nil), s.order[event]...)
}

// Binding returns the symbolic state for a binding ID, for tests.
func (s *State) Binding(id uint64) (handler string, quarantined, ok bool) {
	b, found := s.bindings[id]
	if !found {
		return "", false, false
	}
	return b.Handler, b.Quarantined, true
}

// Level returns the reconstructed degradation level.
func (s *State) Level() int { return int(s.level) }

// Quotas returns the reconstructed quota limits.
func (s *State) Quotas() (perModule, global int) { return int(s.perModule), int(s.global) }

// Raises returns the count of sampled raise records seen.
func (s *State) Raises() int { return s.raises }
