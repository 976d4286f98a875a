package core

import (
	"fmt"
	"math"
	"sync"

	"ckprivacy/internal/bucket"
)

// Options tunes the disclosure computation.
type Options struct {
	// ForbidSameBucketAntecedent restricts the adversary's implications to
	// antecedent atoms in buckets other than the consequent's bucket. The
	// unrestricted maximum (the paper's actual definition) is computed when
	// false. The restriction exists to reproduce the paper's §2.3 worked
	// example, whose quoted 10/19 is the cross-bucket maximum — see
	// DESIGN.md §6.
	ForbidSameBucketAntecedent bool
}

// m2choice is the decision behind one MINIMIZE2 DP state (bucket index,
// antecedent atoms left to place, whether the consequent atom A has been
// placed already): how many antecedent atoms go into this bucket and
// whether A does. valid is false when no candidate is finite.
type m2choice struct {
	cnt       int  // antecedent atoms placed in this bucket
	placeHere bool // whether A is placed in this bucket
	valid     bool
}

// m2Scratch holds MINIMIZE2's DP tables in flat pooled slices: the
// per-bucket MINIMIZE1 series slab (nb rows of k+2 values, j = 0..k+1) and
// the value table over states (i, h, placed) with i <= nb and h <= k.
// Witness reconstruction re-derives its choices from both, so it keeps the
// scratch until it is done, then releases it.
type m2Scratch struct {
	series []float64
	val    []float64
	k      int
}

var m2Pool = sync.Pool{New: func() any { return new(m2Scratch) }}

// idx flattens (i, h, pi).
func (sc *m2Scratch) idx(i, h, pi int) int {
	return (i*(sc.k+1)+h)*2 + pi
}

// m1Row returns bucket i's MINIMIZE1 series, j = 0..k+1.
func (sc *m2Scratch) m1Row(i int) []float64 {
	return sc.series[i*(sc.k+2) : (i+1)*(sc.k+2)]
}

// valRow returns the values of bucket i's states, indexed 2·h + pi.
func (sc *m2Scratch) valRow(i int) []float64 {
	return sc.val[sc.idx(i, 0, 0):sc.idx(i+1, 0, 0)]
}

// release returns the scratch to the pool.
func (sc *m2Scratch) release() { m2Pool.Put(sc) }

// seriesSlab copies each bucket's memoized MINIMIZE1 series for atom
// counts 0..maxJ into dst (grown as needed), one row of maxJ+1 values per
// bucket. This is the only place the disclosure DPs consult the memo: one
// lookup per bucket per call.
func (e *Engine) seriesSlab(dst []float64, views []bucketView, maxJ int) []float64 {
	size := len(views) * (maxJ + 1)
	if cap(dst) < size {
		dst = make([]float64, size)
	}
	dst = dst[:size]
	for i := range views {
		copy(dst[i*(maxJ+1):(i+1)*(maxJ+1)], e.series(views[i].hist, maxJ))
	}
	return dst
}

// m2state evaluates MINIMIZE2 state (i, h, pi) for bucket i from its
// MINIMIZE1 series m1, its ratio n/n(s^0), and next, the value row of
// bucket i+1. It returns the minimum of Formula (1) over the bucket's
// candidates and the candidate achieving it. Candidates are tried in
// ascending cnt with "A elsewhere" before "A here", and only a strictly
// smaller candidate replaces the best, so ties resolve to the first
// candidate in that order. The table fill and witness reconstruction both
// go through here, so a witness walks exactly the choices behind the value.
func m2state(m1, next []float64, ratio float64, h, pi int, opt Options) (float64, m2choice) {
	best := math.Inf(1)
	var choice m2choice
	for cnt := 0; cnt <= h; cnt++ {
		tail := (h - cnt) * 2
		// Option 1: A is not in this bucket.
		if cand := m1[cnt] * next[tail+pi]; cand < best {
			best, choice = cand, m2choice{cnt: cnt, valid: true}
		}
		// Option 2: A is in this bucket (with cnt local antecedents).
		if pi == 0 && (!opt.ForbidSameBucketAntecedent || cnt == 0) {
			if cand := m1[cnt+1] * ratio * next[tail+1]; cand < best {
				best, choice = cand, m2choice{cnt: cnt, placeHere: true, valid: true}
			}
		}
	}
	return best, choice
}

// minimize2 minimizes Formula (1) over all placements of the k antecedent
// atoms and the consequent atom A across buckets, returning the DP scratch:
// val at state (0, h, 0) is the minimum for h antecedent atoms, for every
// h <= k. The caller must release() the scratch when done with it.
//
// The value table is filled bottom-up from the last bucket. A state's
// value does not depend on k, only on (i, h, placed), so one table built
// for k answers every smaller bound too (Series relies on this).
//
// Against the paper's Algorithm 2 pseudocode, two typos are corrected (see
// DESIGN.md §4): the base case returns 1 on success (not the initialized
// rmin = ∞), and the initial "A already placed" flag is false.
//
//ckvet:ignore poolleak ownership transfers to the caller, which must release(); witness reconstruction reads the scratch's tables after return
func (e *Engine) minimize2(views []bucketView, k int, opt Options) *m2Scratch {
	nb := len(views)
	sc := m2Pool.Get().(*m2Scratch)
	sc.series = e.seriesSlab(sc.series, views, k+1)
	states := (nb + 1) * (k + 1) * 2
	if cap(sc.val) < states {
		sc.val = make([]float64, states)
	}
	sc.val = sc.val[:states]
	sc.k = k

	// Base row i = nb: any unplaced antecedent atoms are spent on
	// tautologies, which impose no constraint (factor 1); an unplaced A
	// admits no placement.
	for h := 0; h <= k; h++ {
		sc.val[sc.idx(nb, h, 0)] = math.Inf(1)
		sc.val[sc.idx(nb, h, 1)] = 1
	}
	for i := nb - 1; i >= 0; i-- {
		ratio := float64(views[i].n) / float64(views[i].top)
		m1, row, next := sc.m1Row(i), sc.valRow(i), sc.valRow(i+1)
		for h := 0; h <= k; h++ {
			row[2*h], _ = m2state(m1, next, ratio, h, 0, opt)
			row[2*h+1], _ = m2state(m1, next, ratio, h, 1, opt)
		}
	}
	return sc
}

// MaxDisclosure computes the maximum disclosure of the bucketization with
// respect to L^k_basic (Definition 6) in O(|B|·k³) time.
func (e *Engine) MaxDisclosure(bz *bucket.Bucketization, k int) (float64, error) {
	return e.MaxDisclosureOpt(bz, k, Options{})
}

// MaxDisclosureOpt is MaxDisclosure with Options.
func (e *Engine) MaxDisclosureOpt(bz *bucket.Bucketization, k int, opt Options) (float64, error) {
	if err := checkArgs(bz, k); err != nil {
		return 0, err
	}
	sc := e.minimize2(makeViews(bz), k, opt)
	rmin := sc.val[sc.idx(0, k, 0)]
	sc.release()
	return disclosureFromRatio(rmin), nil
}

// disclosureFromRatio converts min Formula (1) to the maximum disclosure
// 1/(1 + r).
func disclosureFromRatio(r float64) float64 {
	if math.IsInf(r, 1) {
		// No valid placement (possible only under restrictive Options);
		// the adversary learns nothing beyond the k=0 baseline, which the
		// caller gets by placing A alone — this branch is unreachable for
		// non-empty bucketizations because cnt=0 placements always exist.
		return 0
	}
	return 1 / (1 + r)
}

func checkArgs(bz *bucket.Bucketization, k int) error {
	if bz == nil || len(bz.Buckets) == 0 {
		return fmt.Errorf("core: empty bucketization")
	}
	if k < 0 {
		return fmt.Errorf("core: negative knowledge bound k = %d", k)
	}
	for i, b := range bz.Buckets {
		if b.Size() == 0 {
			return fmt.Errorf("core: bucket %d is empty", i)
		}
	}
	return nil
}

// MaxDisclosure is a convenience wrapper using a throwaway engine.
func MaxDisclosure(bz *bucket.Bucketization, k int) (float64, error) {
	return NewEngine().MaxDisclosure(bz, k)
}

// Series computes the maximum disclosure for every k in 0..maxK (the
// Figure 5 workload) from one MINIMIZE2 table built for maxK: its row for
// the first bucket holds the minimum for every antecedent budget k, each
// bit-identical to MaxDisclosure(bz, k).
func (e *Engine) Series(bz *bucket.Bucketization, maxK int) ([]float64, error) {
	if err := checkArgs(bz, maxK); err != nil {
		return nil, err
	}
	sc := e.minimize2(makeViews(bz), maxK, Options{})
	defer sc.release()
	out := make([]float64, maxK+1)
	for k := range out {
		out[k] = disclosureFromRatio(sc.val[sc.idx(0, k, 0)])
	}
	return out, nil
}

// IsCKSafe reports whether the bucketization is (c,k)-safe (Definition 13):
// maximum disclosure with respect to L^k_basic strictly below the threshold
// c. The comparison is a strict float64 inequality; thresholds within
// round-off (~1e-15 relative) of the true maximum may be classified either
// way.
func (e *Engine) IsCKSafe(bz *bucket.Bucketization, c float64, k int) (bool, error) {
	if c < 0 || c > 1 {
		return false, fmt.Errorf("core: threshold c = %v outside [0, 1]", c)
	}
	d, err := e.MaxDisclosure(bz, k)
	if err != nil {
		return false, err
	}
	return d < c, nil
}
