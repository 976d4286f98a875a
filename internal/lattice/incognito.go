package lattice

import (
	"fmt"
	"sort"
)

// SubsetPred evaluates a criterion on the partition induced by a subset of
// the quasi-identifier dimensions generalized to the given levels (the
// other dimensions are ignored, i.e. treated as fully suppressed). node is
// expressed in the subset's own coordinates, aligned with subset.
type SubsetPred func(subset []int, node Node) (bool, error)

// Incognito finds every minimal node of the full lattice satisfying a
// criterion, using the Incognito algorithm [22]: it works through subsets
// of the dimensions in increasing size, keeps the full satisfying set per
// subset, prunes candidates whose projections already failed (subset
// property), and propagates satisfaction upward without re-evaluation
// (generalization property).
//
// Both properties hold for any criterion that is monotone under bucket
// merging — k-anonymity, ℓ-diversity and, by Theorem 14, (c,k)-safety.
// Incognito is the serial reference for IncognitoBatch, which production
// searches run; tests use it as the oracle.
func Incognito(s Space, check SubsetPred) ([]Node, Stats, error) {
	var stats Stats
	m := s.NumDims()
	// satisfying[key of subset] = set of satisfying sub-node keys.
	satisfying := make(map[string]map[string]bool)

	var fullSet map[string]bool
	for size := 1; size <= m; size++ {
		subsets := combinations(m, size)
		for _, subset := range subsets {
			subSpace, err := s.SubSpace(subset)
			if err != nil {
				return nil, stats, err
			}
			sat := make(map[string]bool)
			satisfying[subsetKey(subset)] = sat
			for _, n := range subSpace.All() {
				if sat[n.Key()] {
					stats.Inferred++ // marked by a lower satisfying node
					continue
				}
				if !candidate(subset, n, satisfying) {
					stats.Inferred++ // some projection already failed
					continue
				}
				ok, err := check(subset, n)
				if err != nil {
					return nil, stats, fmt.Errorf("lattice: incognito at %v/%v: %w", subset, n, err)
				}
				stats.Evaluated++
				if !ok {
					continue
				}
				sat[n.Key()] = true
				markAncestors(subSpace, n, sat)
			}
			if size == m {
				fullSet = sat
			}
		}
	}

	// Minimal elements of the full-dimension satisfying set.
	var minimal []Node
	for _, n := range s.All() {
		if !fullSet[n.Key()] {
			continue
		}
		isMin := true
		for _, c := range s.Children(n) {
			if fullSet[c.Key()] {
				isMin = false
				break
			}
		}
		if isMin {
			minimal = append(minimal, n)
		}
	}
	return minimal, stats, nil
}

// candidate applies Incognito's subset property: every (size-1)-projection
// of the node must satisfy its sub-lattice's criterion.
func candidate(subset []int, n Node, satisfying map[string]map[string]bool) bool {
	if len(subset) == 1 {
		return true
	}
	for drop := range subset {
		sub := make([]int, 0, len(subset)-1)
		proj := make(Node, 0, len(subset)-1)
		for i, d := range subset {
			if i == drop {
				continue
			}
			sub = append(sub, d)
			proj = append(proj, n[i])
		}
		if !satisfying[subsetKey(sub)][proj.Key()] {
			return false
		}
	}
	return true
}

// combinations returns all size-k subsets of {0..m-1} in lexicographic
// order, each sorted ascending.
func combinations(m, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == k {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := start; i < m; i++ {
			idx[pos] = i
			rec(pos+1, i+1)
		}
	}
	rec(0, 0)
	return out
}

func subsetKey(subset []int) string {
	s := append([]int(nil), subset...)
	sort.Ints(s)
	return Node(s).Key()
}
