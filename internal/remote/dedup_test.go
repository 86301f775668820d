package remote

import "testing"

func TestDedupFreshThenDuplicate(t *testing.T) {
	w := newWindow(16)
	if v := w.Admit(1); v != Fresh {
		t.Fatalf("first sighting = %v", v)
	}
	if v := w.Admit(1); v != Duplicate {
		t.Fatalf("second sighting = %v", v)
	}
	if w.Admitted != 1 || w.Duplicates != 1 {
		t.Fatalf("counters: %+v", *w)
	}
}

func TestDedupOutOfOrderWithinWindow(t *testing.T) {
	w := newWindow(16)
	// Tokens land out of order (retries racing originals): each must be
	// admitted exactly once regardless of arrival order.
	order := []uint64{3, 1, 2, 5, 4, 3, 1, 5}
	want := []Verdict{Fresh, Fresh, Fresh, Fresh, Fresh, Duplicate, Duplicate, Duplicate}
	for i, tok := range order {
		if v := w.Admit(tok); v != want[i] {
			t.Fatalf("Admit(%d) [#%d] = %v, want %v", tok, i, v, want[i])
		}
	}
}

func TestDedupBelowFloorIsStale(t *testing.T) {
	w := newWindow(8)
	if v := w.Admit(100); v != Fresh {
		t.Fatalf("high water = %v", v)
	}
	// Window floor is high-size: tokens at or below 92 are unjudgeable.
	if v := w.Admit(92); v != Stale {
		t.Fatalf("floor token = %v", v)
	}
	if v := w.Admit(1); v != Stale {
		t.Fatalf("ancient token = %v", v)
	}
	// Just above the floor is still judgeable — and fresh, since the slide
	// cleared its slot.
	if v := w.Admit(93); v != Fresh {
		t.Fatalf("in-window token = %v", v)
	}
	if w.Stales != 2 {
		t.Fatalf("stales = %d", w.Stales)
	}
}

func TestDedupSlideClearsSkippedSlots(t *testing.T) {
	// The bitmap is a ring: without clearing on slide, token t would
	// alias token t-size and report Duplicate for a never-seen token.
	size := 8
	w := newWindow(size)
	if w.Admit(2) != Fresh {
		t.Fatal("seed")
	}
	// Slide far enough that 2's slot is reused by 2+8=10.
	if w.Admit(9) != Fresh {
		t.Fatal("advance")
	}
	if v := w.Admit(10); v != Fresh {
		t.Fatalf("aliased slot reported %v for a never-seen token", v)
	}
}

func TestDedupLargeJumpZeroesWindow(t *testing.T) {
	w := newWindow(8)
	for tok := uint64(1); tok <= 8; tok++ {
		if w.Admit(tok) != Fresh {
			t.Fatalf("seed %d", tok)
		}
	}
	// Jump past a full window width: every old slot must clear.
	if w.Admit(1000) != Fresh {
		t.Fatal("jump")
	}
	for tok := uint64(993); tok < 1000; tok++ {
		if v := w.Admit(tok); v != Fresh {
			t.Fatalf("Admit(%d) after jump = %v", tok, v)
		}
	}
}

func TestDedupTokenZeroReserved(t *testing.T) {
	w := newWindow(8)
	if v := w.Admit(0); v != Stale {
		t.Fatalf("token 0 = %v", v)
	}
}

func TestDedupDefaultSize(t *testing.T) {
	w := newWindow(0)
	if w.size != DefaultWindowSize {
		t.Fatalf("size = %d", w.size)
	}
	if w.Admit(5) != Fresh || w.Admit(5) != Duplicate {
		t.Fatal("default-size window broken")
	}
}
