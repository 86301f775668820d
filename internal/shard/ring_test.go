package shard

import (
	"fmt"
	"testing"
)

func keyNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("Ring.Key.%04d", i)
	}
	return out
}

// TestRingDeterministicOwnership: ownership is a pure function of (name,
// shard count, replicas) — two independently built rings agree on every
// key, which is what makes routing reproducible across boots.
func TestRingDeterministicOwnership(t *testing.T) {
	a := buildRing(4)
	b := buildRing(4)
	for _, name := range keyNames(512) {
		if a.owner(name) != b.owner(name) {
			t.Fatalf("rings disagree on %s: %d vs %d", name, a.owner(name), b.owner(name))
		}
	}
}

// TestRingConsistencyOnGrowth: the defining consistent-hash property —
// growing N to N+1 may move a key only onto the new shard, never between
// surviving shards. pointFor depends only on (shard, replica), so the
// larger ring contains the smaller ring's points unchanged.
func TestRingConsistencyOnGrowth(t *testing.T) {
	names := keyNames(2048)
	for n := 1; n < 8; n++ {
		small, big := buildRing(n), buildRing(n+1)
		moved := 0
		for _, name := range names {
			was, is := small.owner(name), big.owner(name)
			if was == is {
				continue
			}
			if is != n {
				t.Fatalf("grow %d->%d moved %s from %d to %d (not the new shard)", n, n+1, name, was, is)
			}
			moved++
		}
		// Expected capture is ~1/(n+1) of the space; allow a wide band.
		frac := float64(moved) / float64(len(names))
		lo, hi := 0.3/float64(n+1), 2.0/float64(n+1)
		if frac < lo || frac > hi {
			t.Fatalf("grow %d->%d captured %.3f of keys, want within [%.3f, %.3f]", n, n+1, frac, lo, hi)
		}
	}
}

// TestRingBalance: with ringReplicas virtual nodes the per-shard key
// population stays within the band the scaling table's speedup depends on.
func TestRingBalance(t *testing.T) {
	r := buildRing(4)
	counts := make([]int, 4)
	for _, name := range keyNames(256) {
		counts[r.owner(name)]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 || float64(min)/float64(max) < 0.5 {
		t.Fatalf("per-shard key counts %v too skewed", counts)
	}
}
