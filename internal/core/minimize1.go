// Package core implements the paper's primary contribution: the
// polynomial-time computation of worst-case disclosure against an attacker
// holding full identification information plus k basic implications
// (language L^k_basic), and the resulting (c,k)-safety check.
//
// By Theorem 9, the maximum of Pr(t_p[S]=s | B ∧ φ) over φ ∈ L^k_basic is
// attained by k simple implications sharing one consequent atom A. Writing
// the posterior as
//
//	Pr(A | B ∧ ∧_i(A_i → A)) = 1 / (1 + Pr(¬A ∧ ∧_i ¬A_i | B)/Pr(A | B))
//
// the problem reduces to minimizing Formula (1),
// Pr(¬A ∧ ∧_i ¬A_i | B) / Pr(A | B), over atoms A, A_i. MINIMIZE1
// (this file) minimizes Pr(∧ ¬A_i | B) for atoms within one bucket;
// MINIMIZE2 (minimize2.go) combines buckets and places A. Total cost is
// O(|B|·k³) as in §3.3 of the paper.
package core

import (
	"math"
	"sync"
)

// m1Entry is a MINIMIZE1 result for one histogram and atom count, with the
// composition witness reconstruction needs.
type m1Entry struct {
	val float64
	// comp is the minimizing descending composition: comp[i] atoms are
	// assigned to the i-th (distinct) person, who avoids the comp[i] most
	// frequent values. Its sum can fall short of the requested atom count
	// when atoms are wasted as duplicates (more persons than the bucket
	// holds, or more values than the bucket distinguishes).
	comp []int
}

// m1Scratch holds the reusable MINIMIZE1 DP of m1Compute and m1Series.
// State (i, cap, rem) is the minimum over descending compositions of rem
// atoms among persons i, i+1, … whose first part is at most cap; a cap
// above rem offers no extra candidate, so it is stored at cap = rem. Values
// and choices sit in a dense j·(j+1)·(j+1) layout for the largest atom
// count j (each of the first i persons took at least one atom, so i < j
// whenever rem > 0), beside the histogram's prefix sums and one person's
// factor row.
type m1Scratch struct {
	val    []float64
	choice []int32
	prefix []int
	fac    []float64
	n      int // persons in the bucket
	stride int // j + 1
}

var m1Pool = sync.Pool{New: func() any { return new(m1Scratch) }}

// grow resizes the scratch for atom count j and histogram length hl. The
// table is not cleared: table writes every state before reading it.
func (sc *m1Scratch) grow(j, hl int) {
	states := j * (j + 1) * (j + 1)
	if cap(sc.val) < states {
		sc.val = make([]float64, states)
		sc.choice = make([]int32, states)
	}
	sc.val = sc.val[:states]
	sc.choice = sc.choice[:states]
	if cap(sc.prefix) < hl+1 {
		sc.prefix = make([]int, hl+1)
	}
	sc.prefix = sc.prefix[:hl+1]
	if cap(sc.fac) < j+1 {
		sc.fac = make([]float64, j+1)
	}
	sc.fac = sc.fac[:j+1]
}

// m1Compute evaluates MINIMIZE1 for a histogram (counts in decreasing
// order) and exactly j atoms, returning the minimal probability
// Pr(∧_{i<j} ¬A_i | B) restricted to atoms naming persons of this bucket,
// together with a minimizing composition.
//
// Lemma 12 gives the value of a fixed composition (l, k_0 ≥ … ≥ k_{l-1}):
//
//	∏_{i<l} (n − i − Σ_{j<k_i} n(s^j)) / (n − i)
//
// and the DP minimizes over compositions. Two guards absent from the
// paper's pseudocode: the numerator clamps at zero (a person cannot avoid
// more mass than remains), and once all n persons carry an atom the
// remaining atoms are duplicates contributing factor 1. The DP tables come
// from a pool, so the steady-state disclosure path allocates only the
// returned composition.
func m1Compute(hist []int, j int) m1Entry {
	sc := m1Pool.Get().(*m1Scratch)
	defer m1Pool.Put(sc)
	sc.table(hist, j)
	val := sc.at(0, j, j)

	var comp []int
	for i, cap, rem := 0, j, j; rem > 0 && i < sc.n; {
		ki := int(sc.choice[sc.idx(i, min(cap, rem), rem)])
		comp = append(comp, ki)
		i, cap, rem = i+1, ki, rem-ki
	}
	return m1Entry{val: val, comp: comp}
}

// m1Series evaluates MINIMIZE1 for every atom count j = 0..maxJ in one DP
// table sized for maxJ: out[j] is the value of state (0, j, j). No state
// depends on the requested j except through the table layout, so out[j] is
// bit-identical to m1Compute(hist, j).val. A negative maxJ panics.
func m1Series(hist []int, maxJ int) []float64 {
	if maxJ < 0 {
		panic("core: negative MINIMIZE1 atom count")
	}
	out := make([]float64, maxJ+1)
	sc := m1Pool.Get().(*m1Scratch)
	defer m1Pool.Put(sc)
	sc.table(hist, maxJ)
	for j := range out {
		out[j] = sc.at(0, j, j)
	}
	return out
}

// idx flattens (i, cap, rem) with cap <= rem.
func (sc *m1Scratch) idx(i, cap, rem int) int {
	return (i*sc.stride+cap)*sc.stride + rem
}

// at returns the value of state (i, cap, rem): 1 once no atoms remain or
// every person carries one (further atoms are duplicates, factor 1).
func (sc *m1Scratch) at(i, cap, rem int) float64 {
	if rem == 0 || i >= sc.n {
		return 1
	}
	return sc.val[sc.idx(i, min(cap, rem), rem)]
}

// table fills the DP for hist and atom counts up to maxJ, bottom-up
// from the last person. Candidates for state (i, cap, rem) are the first
// part ki = 1..cap, tried in ascending order with a strict-< tie-break, so
// the state is the running minimum of (i, cap-1, rem) and candidate cap —
// one product per state. Only states some composition of at most maxJ
// atoms reaches are filled: the first i persons took at least cap atoms
// each, so i·cap <= maxJ - rem.
func (sc *m1Scratch) table(hist []int, maxJ int) {
	sc.grow(maxJ, len(hist))
	n := 0
	prefix := sc.prefix
	prefix[0] = 0
	for i, c := range hist {
		n += c
		prefix[i+1] = prefix[i] + c
	}
	sc.n, sc.stride = n, maxJ+1
	fac := sc.fac
	last := len(hist)
	for i := min(n, maxJ) - 1; i >= 0; i-- {
		// Lemma 12's factor for person i avoiding the ki most frequent
		// values, clamped at zero.
		maxKi := maxJ
		if i > 0 {
			maxKi = maxJ / (i + 1)
		}
		for ki := 1; ki <= maxKi; ki++ {
			pf := prefix[min(ki, last)]
			if num := n - i - pf; num > 0 {
				fac[ki] = float64(num) / float64(n-i)
			} else {
				fac[ki] = 0
			}
		}
		for rem := 1; rem <= maxJ-i; rem++ {
			maxCap := rem
			if i > 0 {
				maxCap = min(rem, (maxJ-rem)/i)
			}
			best, bestKi := math.Inf(1), int32(1)
			for ki := 1; ki <= maxCap; ki++ {
				if p := fac[ki] * sc.at(i+1, ki, rem-ki); p < best {
					best, bestKi = p, int32(ki)
				}
				at := sc.idx(i, ki, rem)
				sc.val[at], sc.choice[at] = best, bestKi
			}
		}
	}
}
