// Package shard partitions the event space across N dispatcher shards —
// the ROADMAP's "structural unlock": every install, quota charge, fault
// observation, and journal append serializes per shard instead of on one
// dispatcher, while the data plane keeps the single-dispatcher contract
// (lock-free raises against atomically published plans, 0-alloc bypass).
//
// Events are placed by consistent hashing with virtual nodes, so a plane
// built with one more shard places only the events the new shard's ring
// points capture differently. The shard count is fixed when the Router is
// built: each handle's shard is resolved once, at definition time, and
// never re-pinned, so a routed raise is the owning dispatcher's raise
// (see DESIGN.md decision 19).
package shard

import "sort"

// ringReplicas is the virtual-node count per shard. 256 points per
// shard keeps the per-shard population near uniform at the shard counts
// the scaling table sweeps (1..8) — measured min/max event balance 0.81
// for 256 events on 4 shards — while the ring stays small enough to build
// at every boot.
const ringReplicas = 256

// point is one virtual node: a hash position owned by a shard.
type point struct {
	hash  uint64
	shard int32
}

// ring is an immutable consistent-hash ring over shards 0..shards-1, so
// lookups need no locking.
type ring struct {
	points []point
	shards int
}

// fnv64 is FNV-1a over the event name — stable, dependency-free, and fast
// enough for the control plane (routes are resolved at definition time,
// never per raise).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is the splitmix64 finalizer. Virtual-node positions are derived from
// sequential (shard, replica) indices and key positions from FNV of short
// names; both need a full-avalanche finish to spread uniformly.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pointFor positions one virtual node. It depends only on (shard,
// replica), which is what makes the hash consistent: a ring with more
// shards contains the smaller ring's points unchanged, so growing N moves
// only the keys the new shard's points capture.
func pointFor(shard, replica int) uint64 {
	return mix(uint64(shard)<<20 | uint64(replica))
}

// buildRing constructs the ring for a shard count.
func buildRing(shards int) *ring {
	pts := make([]point, 0, shards*ringReplicas)
	for s := 0; s < shards; s++ {
		for r := 0; r < ringReplicas; r++ {
			pts = append(pts, point{hash: pointFor(s, r), shard: int32(s)})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		// Hash ties (vanishingly rare) break toward the lower shard so
		// ownership stays deterministic across rebuilds.
		return pts[i].shard < pts[j].shard
	})
	return &ring{points: pts, shards: shards}
}

// owner returns the shard owning a key: the first virtual node at or after
// the key's position, wrapping at the top of the hash space.
func (r *ring) owner(name string) int {
	h := mix(fnv64(name))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].shard)
}
