package anonymize

import (
	"sync"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/lattice"
)

// coarsenIndex tracks every bucketization the problem has materialized,
// keyed by its full level vector (schema QI order). It is the sweep
// planner's source catalogue: a planned node can coarsen from any recorded
// source whose vector is component-wise ≤ its own — the hierarchies'
// nested coarsening law makes the derivation exact — and buildPlan picks
// the cheapest one.
//
// The index spans Incognito's subset lattices too: subsets map into the
// same full-vector space (non-subset attributes pinned to top-level
// suppression), so a bucketization built for one subset seeds searches
// over any coarser subset. Entry count is bounded by the number of
// distinct level vectors, i.e. the lattice size; the bucketizations
// themselves are already retained by the problem's bucketize cache, so
// entries add only a vector and a pointer.
type coarsenIndex struct {
	mu      sync.Mutex
	entries []coarsenEntry
	seen    map[string]bool
}

type coarsenEntry struct {
	vec []int
	bz  *bucket.Bucketization
}

// leqVec reports a ≤ b component-wise.
func leqVec(a, b []int) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// lessVec reports a < b lexicographically (equal-length vectors).
func lessVec(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// vecHeight is the lattice height of a level vector: the sum of its
// levels.
func vecHeight(vec []int) int {
	h := 0
	for _, l := range vec {
		h += l
	}
	return h
}

// add records a materialized bucketization under its level vector.
// Duplicate vectors (racing workers materializing the same node) keep the
// first entry; both values are byte-identical, so either serves.
func (ci *coarsenIndex) add(vec []int, bz *bucket.Bucketization) {
	key := lattice.Node(vec).Key()
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if ci.seen[key] {
		return
	}
	if ci.seen == nil {
		ci.seen = make(map[string]bool)
	}
	ci.seen[key] = true
	ci.entries = append(ci.entries, coarsenEntry{vec: append([]int(nil), vec...), bz: bz})
}

// size reports the number of recorded vectors.
func (ci *coarsenIndex) size() int {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	return len(ci.entries)
}

// snapshot returns a point-in-time view of the entries — the sweep
// planner enumerates candidate sources from this. The view is capped at
// its length, so later adds never show through it, and entries are
// immutable once added.
func (ci *coarsenIndex) snapshot() []coarsenEntry {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	return ci.entries[:len(ci.entries):len(ci.entries)]
}
