package lattice

import "fmt"

// Pred is a predicate over nodes; it must be monotone for the searches in
// this file to be correct (if it holds at n, it holds at every n' ⪰ n).
// Theorem 14 establishes monotonicity for (c,k)-safety.
type Pred func(Node) (bool, error)

// Stats reports search effort.
type Stats struct {
	// Evaluated counts predicate evaluations actually performed.
	Evaluated int
	// Inferred counts nodes whose status was derived from monotonicity
	// without evaluation.
	Inferred int
}

// MinimalSatisfying returns every ⪯-minimal node satisfying a monotone
// predicate, evaluating bottom-up and skipping nodes already implied
// satisfied by a lower node. The returned nodes are in (height,
// lexicographic) order. It is the serial reference for
// MinimalSatisfyingBatch, which production searches run; tests use it as
// the oracle.
func MinimalSatisfying(s Space, pred Pred) ([]Node, Stats, error) {
	var stats Stats
	satisfied := make(map[string]bool, s.Size())
	var minimal []Node
	for _, n := range s.All() {
		if satisfied[n.Key()] {
			stats.Inferred++
			continue
		}
		ok, err := pred(n)
		if err != nil {
			return nil, stats, fmt.Errorf("lattice: evaluating %v: %w", n, err)
		}
		stats.Evaluated++
		if !ok {
			continue
		}
		minimal = append(minimal, n)
		markAncestors(s, n, satisfied)
	}
	return minimal, stats, nil
}

// markAncestors marks every strict generalization of n as satisfied.
func markAncestors(s Space, n Node, satisfied map[string]bool) {
	queue := s.Parents(n)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		key := cur.Key()
		if satisfied[key] {
			continue
		}
		satisfied[key] = true
		queue = append(queue, s.Parents(cur)...)
	}
}

// NaiveMinimal evaluates the predicate on every node and filters the
// minimal satisfying ones pairwise. It makes no monotonicity assumption and
// exists as the correctness oracle for MinimalSatisfying and Incognito.
func NaiveMinimal(s Space, pred Pred) ([]Node, Stats, error) {
	var stats Stats
	var sat []Node
	for _, n := range s.All() {
		ok, err := pred(n)
		if err != nil {
			return nil, stats, err
		}
		stats.Evaluated++
		if ok {
			sat = append(sat, n)
		}
	}
	var minimal []Node
	for i, n := range sat {
		isMin := true
		for j, m := range sat {
			if i != j && Leq(m, n) {
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

// Chain returns the canonical maximal chain from Bottom to Top: dimension 0
// is raised to its top, then dimension 1, and so on. Its length is
// MaxHeight+1.
func (s Space) Chain() []Node {
	chain := []Node{s.Bottom()}
	cur := s.Bottom()
	for d := 0; d < len(s.dims); d++ {
		for cur[d]+1 < s.dims[d] {
			cur = cur.Clone()
			cur[d]++
			chain = append(chain, cur)
		}
	}
	return chain
}

// BinarySearchChain finds the lowest index in the chain whose node
// satisfies the predicate, assuming the predicate is monotone along the
// chain (Theorem 14 + the chain being ⪯-increasing). It returns -1 when no
// node satisfies. The number of evaluations is O(log |chain|) — the
// paper's §3.4 observation that a safe bucketization can be found in time
// logarithmic in the lattice height. It is the serial reference for
// BinarySearchChainBatch, which production searches run; tests use it as
// the oracle.
func BinarySearchChain(chain []Node, pred Pred) (int, Stats, error) {
	var stats Stats
	lo, hi := 0, len(chain) // invariant: answer in [lo, hi]; hi means none
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := pred(chain[mid])
		if err != nil {
			return -1, stats, fmt.Errorf("lattice: evaluating %v: %w", chain[mid], err)
		}
		stats.Evaluated++
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(chain) {
		return -1, stats, nil
	}
	return lo, stats, nil
}
