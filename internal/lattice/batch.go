package lattice

import (
	"fmt"
	"sync/atomic"

	"ckprivacy/internal/parallel"
)

// This file holds the batch forms of the searches — the ones production
// code runs. Each is the level-wise counterpart of a serial search in
// search.go or incognito.go, which stay as the documented test oracles.
// Two things make the batch forms exact:
//
//   - Every pruning mark (markAncestors) points strictly upward in the
//     lattice, so within one height level no node's status can influence
//     another's. A frontier (one lattice level, one Incognito layer, one
//     round of chain probes) can therefore be evaluated on up to `workers`
//     goroutines, with monotone pruning applied as a barrier before the
//     next one. Node sets, node order and Stats equal the serial search's.
//   - Each frontier is handed to a Prefetch callback before any predicate
//     runs. The callback is how a search hands its whole frontier to the
//     anonymize sweep planner at once: the planner materializes every node
//     of the batch along a derivation DAG, and the predicates then evaluate
//     against a warm cache. Prefetching is purely a cache warm-up; a nil
//     Prefetch is a no-op and nothing a prefetch computes can change what
//     a frontier decides.

// Prefetch receives the full-lattice nodes a search is about to evaluate
// concurrently. It may materialize them in any order or not at all; it
// must not change what the predicate would answer. A nil Prefetch is a
// no-op.
type Prefetch func(nodes []Node) error

// SubsetPrefetch is Prefetch for Incognito's subset walks: nodes[i] is a
// node of the sub-lattice over QI dimensions subsets[i] (the two slices
// are aligned and equal-length).
type SubsetPrefetch func(subsets [][]int, nodes []Node) error

// MinimalSatisfyingBatch is MinimalSatisfying with each lattice level
// offered to prefetch and then evaluated on up to `workers` goroutines
// (workers <= 0 means GOMAXPROCS). The predicate must be safe for
// concurrent calls. Result and Stats are identical to the serial search.
func MinimalSatisfyingBatch(s Space, pred Pred, prefetch Prefetch, workers int) ([]Node, Stats, error) {
	workers = parallel.Workers(workers)
	var stats Stats
	satisfied := make(map[string]bool, s.Size())
	var minimal []Node
	for _, level := range s.Levels() {
		// Pruning marks only arrive from strictly lower levels, so the
		// skip-set is frozen for the whole level.
		toEval := level[:0:0]
		for _, n := range level {
			if satisfied[n.Key()] {
				stats.Inferred++
				continue
			}
			toEval = append(toEval, n)
		}
		if prefetch != nil && len(toEval) > 0 {
			if err := prefetch(toEval); err != nil {
				return nil, stats, fmt.Errorf("lattice: prefetching level: %w", err)
			}
		}
		ok := make([]bool, len(toEval))
		var evals atomic.Int64
		err := parallel.ForEach(workers, len(toEval), func(i int) error {
			o, err := pred(toEval[i])
			if err != nil {
				return fmt.Errorf("lattice: evaluating %v: %w", toEval[i], err)
			}
			evals.Add(1)
			ok[i] = o
			return nil
		})
		stats.Evaluated += int(evals.Load())
		if err != nil {
			return nil, stats, err
		}
		// Barrier: apply monotone pruning in serial node order.
		for i, n := range toEval {
			if !ok[i] {
				continue
			}
			minimal = append(minimal, n)
			markAncestors(s, n, satisfied)
		}
	}
	return minimal, stats, nil
}

// IncognitoBatch is Incognito with each layer — all unpruned nodes of one
// height across all same-size subset lattices — offered to prefetch and
// then evaluated on up to `workers` goroutines. Subsets of equal size are
// independent (the subset property only consults strictly smaller
// subsets), so a layer is one batch. check must be safe for concurrent
// calls. Result and Stats are identical to serial Incognito.
func IncognitoBatch(s Space, check SubsetPred, prefetch SubsetPrefetch, workers int) ([]Node, Stats, error) {
	workers = parallel.Workers(workers)
	var stats Stats
	m := s.NumDims()
	satisfying := make(map[string]map[string]bool)

	type unit struct {
		si int // index into subsets
		n  Node
	}
	var fullSet map[string]bool
	for size := 1; size <= m; size++ {
		subsets := combinations(m, size)
		subSpaces := make([]Space, len(subsets))
		levels := make([][][]Node, len(subsets))
		sats := make([]map[string]bool, len(subsets))
		maxH := 0
		for si, subset := range subsets {
			sub, err := s.SubSpace(subset)
			if err != nil {
				return nil, stats, err
			}
			subSpaces[si] = sub
			levels[si] = sub.Levels()
			sats[si] = make(map[string]bool)
			satisfying[subsetKey(subset)] = sats[si]
			if h := sub.MaxHeight(); h > maxH {
				maxH = h
			}
		}
		for h := 0; h <= maxH; h++ {
			var units []unit
			for si := range subsets {
				if h >= len(levels[si]) {
					continue
				}
				for _, n := range levels[si][h] {
					if sats[si][n.Key()] {
						stats.Inferred++ // marked by a lower satisfying node
						continue
					}
					if !candidate(subsets[si], n, satisfying) {
						stats.Inferred++ // some projection already failed
						continue
					}
					units = append(units, unit{si: si, n: n})
				}
			}
			if prefetch != nil && len(units) > 0 {
				ss := make([][]int, len(units))
				ns := make([]Node, len(units))
				for i, u := range units {
					ss[i], ns[i] = subsets[u.si], u.n
				}
				if err := prefetch(ss, ns); err != nil {
					return nil, stats, fmt.Errorf("lattice: prefetching incognito layer: %w", err)
				}
			}
			ok := make([]bool, len(units))
			var evals atomic.Int64
			err := parallel.ForEach(workers, len(units), func(i int) error {
				u := units[i]
				o, err := check(subsets[u.si], u.n)
				if err != nil {
					return fmt.Errorf("lattice: incognito at %v/%v: %w", subsets[u.si], u.n, err)
				}
				evals.Add(1)
				ok[i] = o
				return nil
			})
			stats.Evaluated += int(evals.Load())
			if err != nil {
				return nil, stats, err
			}
			for i, u := range units {
				if !ok[i] {
					continue
				}
				sats[u.si][u.n.Key()] = true
				markAncestors(subSpaces[u.si], u.n, sats[u.si])
			}
		}
		if size == m {
			fullSet = sats[len(subsets)-1]
		}
	}

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

// BinarySearchChainBatch generalizes BinarySearchChain to multi-section
// search: each round offers its probe nodes to prefetch, then evaluates up
// to `workers` evenly spaced probes of the remaining interval
// concurrently, shrinking it by a factor of workers+1 instead of 2. With
// workers <= 1 the probe sequence — and therefore the Stats — is exactly
// the serial binary search's. The returned index is identical to the
// serial search for any monotone predicate.
func BinarySearchChainBatch(chain []Node, pred Pred, prefetch Prefetch, workers int) (int, Stats, error) {
	workers = parallel.Workers(workers)
	var stats Stats
	lo, hi := 0, len(chain) // invariant: answer in [lo, hi]; hi means none
	for lo < hi {
		m := hi - lo
		p := workers
		if p > m {
			p = m
		}
		probes := make([]int, p)
		nodes := make([]Node, p)
		for i := range probes {
			probes[i] = lo + (i+1)*m/(p+1)
			nodes[i] = chain[probes[i]]
		}
		if prefetch != nil {
			if err := prefetch(nodes); err != nil {
				return -1, stats, fmt.Errorf("lattice: prefetching chain probes: %w", err)
			}
		}
		ok := make([]bool, p)
		var evals atomic.Int64
		err := parallel.ForEach(workers, p, func(i int) error {
			o, err := pred(nodes[i])
			if err != nil {
				return fmt.Errorf("lattice: evaluating %v: %w", nodes[i], err)
			}
			evals.Add(1)
			ok[i] = o
			return nil
		})
		stats.Evaluated += int(evals.Load())
		if err != nil {
			return -1, stats, err
		}
		// Monotonicity makes ok a false…true step function over the sorted
		// probes; narrow to the step.
		firstTrue := p
		for i, o := range ok {
			if o {
				firstTrue = i
				break
			}
		}
		if firstTrue < p {
			hi = probes[firstTrue]
		}
		if firstTrue > 0 {
			lo = probes[firstTrue-1] + 1
		}
	}
	if lo == len(chain) {
		return -1, stats, nil
	}
	return lo, stats, nil
}
