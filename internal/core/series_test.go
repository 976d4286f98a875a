package core

import (
	"math"
	"math/rand"
	"testing"

	"ckprivacy/internal/bucket"
)

// TestM1SeriesMatchesCompute is the MINIMIZE1 series property: one DP
// table sized for maxJ yields, at every j <= maxJ, exactly the value a
// table sized for j alone does — including histograms with fewer persons
// than atoms (n < j) and fewer values than atoms (len(hist) < j).
func TestM1SeriesMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checkedShortN, checkedShortHist := 0, 0
	for iter := 0; iter < 3000; iter++ {
		hist := randomHistogram(rng, 1+rng.Intn(7), 1+rng.Intn(6))
		maxJ := rng.Intn(14)
		got := m1Series(hist, maxJ)
		if len(got) != maxJ+1 {
			t.Fatalf("m1Series(%v, %d) has %d values, want %d", hist, maxJ, len(got), maxJ+1)
		}
		n := 0
		for _, c := range hist {
			n += c
		}
		for j := 0; j <= maxJ; j++ {
			want := m1Compute(hist, j).val
			if math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Fatalf("m1Series(%v, %d)[%d] = %v, m1Compute %v", hist, maxJ, j, got[j], want)
			}
			if n < j {
				checkedShortN++
			}
			if len(hist) < j {
				checkedShortHist++
			}
		}
	}
	if checkedShortN == 0 || checkedShortHist == 0 {
		t.Fatalf("corpus missed a regime: n<j %d times, len(hist)<j %d times", checkedShortN, checkedShortHist)
	}
}

// refM1 is the top-down MINIMIZE1 the bottom-up table replaced: memoized
// recursion over (i, cap, rem) trying per-person counts ki = 1..min(cap,
// rem) in ascending order with a strict-< tie-break. It returns the value
// and the minimizing composition.
func refM1(hist []int, j int) (float64, []int) {
	n := 0
	prefix := []int{0}
	for _, c := range hist {
		n += c
		prefix = append(prefix, n)
	}
	factor := func(i, ki int) float64 {
		pf := prefix[min(ki, len(hist))]
		num := n - i - pf
		if num <= 0 {
			return 0
		}
		return float64(num) / float64(n-i)
	}
	type state struct{ i, cap, rem int }
	val := make(map[state]float64)
	choice := make(map[state]int)
	var rec func(i, cap, rem int) float64
	rec = func(i, cap, rem int) float64 {
		if rem == 0 || i >= n {
			return 1
		}
		st := state{i, cap, rem}
		if v, ok := val[st]; ok {
			return v
		}
		best, bestKi := math.Inf(1), 1
		for ki := 1; ki <= min(cap, rem); ki++ {
			if p := factor(i, ki) * rec(i+1, ki, rem-ki); p < best {
				best, bestKi = p, ki
			}
		}
		val[st], choice[st] = best, bestKi
		return best
	}
	v := rec(0, j, j)
	var comp []int
	for i, cap, rem := 0, j, j; rem > 0 && i < n; {
		ki := choice[state{i, cap, rem}]
		comp = append(comp, ki)
		i, cap, rem = i+1, ki, rem-ki
	}
	return v, comp
}

// TestM1ComputeMatchesRecursiveReference pins the bottom-up MINIMIZE1
// table to the top-down recursion, value bit for bit and composition
// exactly, including n < j and len(hist) < j.
func TestM1ComputeMatchesRecursiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 3000; iter++ {
		hist := randomHistogram(rng, 1+rng.Intn(7), 1+rng.Intn(6))
		if iter%2 == 1 {
			hist = randomHistogram(rng, 1+rng.Intn(14), 1+rng.Intn(40)) // Adult-sized
		}
		j := rng.Intn(14)
		got := m1Compute(hist, j)
		wantVal, wantComp := refM1(hist, j)
		if math.Float64bits(got.val) != math.Float64bits(wantVal) {
			t.Fatalf("m1Compute(%v, %d) = %v, reference %v", hist, j, got.val, wantVal)
		}
		if len(got.comp) != len(wantComp) {
			t.Fatalf("m1Compute(%v, %d).comp = %v, reference %v", hist, j, got.comp, wantComp)
		}
		for i := range wantComp {
			if got.comp[i] != wantComp[i] {
				t.Fatalf("m1Compute(%v, %d).comp = %v, reference %v", hist, j, got.comp, wantComp)
			}
		}
	}
}

// refM2 is the recursive, per-state MINIMIZE2 that the bottom-up pass
// replaced: top-down memoized recursion fetching m1Compute at every state,
// with the same candidate order and strict tie-break. It is the oracle the
// production tables must match bit for bit, value and choice alike.
type refM2 struct {
	views  []bucketView
	opt    Options
	val    map[[3]int]float64
	choice map[[3]int]m2choice
}

func newRefM2(bz *bucket.Bucketization, opt Options) *refM2 {
	return &refM2{
		views:  makeViews(bz),
		opt:    opt,
		val:    make(map[[3]int]float64),
		choice: make(map[[3]int]m2choice),
	}
}

func (r *refM2) rec(i, h int, placed bool) float64 {
	pi := 0
	if placed {
		pi = 1
	}
	if i == len(r.views) {
		if placed {
			return 1
		}
		return math.Inf(1)
	}
	key := [3]int{i, h, pi}
	if v, ok := r.val[key]; ok {
		return v
	}
	v := r.views[i]
	ratio := float64(v.n) / float64(v.top)
	best := math.Inf(1)
	var bestChoice m2choice
	for cnt := 0; cnt <= h; cnt++ {
		u := m1Compute(v.hist, cnt).val
		if cand := u * r.rec(i+1, h-cnt, placed); cand < best {
			best = cand
			bestChoice = m2choice{cnt: cnt, placeHere: false, valid: true}
		}
		if !placed && (!r.opt.ForbidSameBucketAntecedent || cnt == 0) {
			w := m1Compute(v.hist, cnt+1).val * ratio
			if cand := w * r.rec(i+1, h-cnt, true); cand < best {
				best = cand
				bestChoice = m2choice{cnt: cnt, placeHere: true, valid: true}
			}
		}
	}
	r.val[key] = best
	r.choice[key] = bestChoice
	return best
}

// randomBucketization draws 1–7 buckets of 1–10 tuples over a skewed
// alphabet of up to 6 values, so histograms repeat across buckets and
// ties between placements are common.
func randomBucketization(rng *rand.Rand) *bucket.Bucketization {
	groups := make([][]string, 1+rng.Intn(7))
	alpha := 1 + rng.Intn(6)
	for b := range groups {
		size := 1 + rng.Intn(10)
		for i := 0; i < size; i++ {
			v := rng.Intn(alpha)
			if rng.Intn(2) == 0 {
				v = rng.Intn(1 + v) // skew toward the first values
			}
			groups[b] = append(groups[b], string(rune('a'+v)))
		}
	}
	return bucket.FromValues(groups...)
}

// TestMinimize2MatchesRecursiveReference pins the bottom-up MINIMIZE2 to
// the recursive per-state reference: MaxDisclosureOpt under both Options
// settings bit for bit, Witness's disclosure bit for bit, the witness walk
// state by state (value and choice), and the exact rational DP to 1e-12.
func TestMinimize2MatchesRecursiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e := NewEngine()
	for iter := 0; iter < 300; iter++ {
		bz := randomBucketization(rng)
		k := rng.Intn(7)
		for _, opt := range []Options{{}, {ForbidSameBucketAntecedent: true}} {
			ref := newRefM2(bz, opt)
			want := disclosureFromRatio(ref.rec(0, k, false))

			got, err := e.MaxDisclosureOpt(bz, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("iter %d k=%d %+v: MaxDisclosureOpt %v, reference %v", iter, k, opt, got, want)
			}

			w, err := e.Witness(bz, k, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(w.Disclosure) != math.Float64bits(want) {
				t.Fatalf("iter %d k=%d %+v: Witness %v, reference %v", iter, k, opt, w.Disclosure, want)
			}
			views := makeViews(bz)
			sc := e.minimize2(views, k, opt)
			h, pi := k, 0
			for i, v := range views {
				ratio := float64(v.n) / float64(v.top)
				gotVal, gotCh := m2state(sc.m1Row(i), sc.valRow(i+1), ratio, h, pi, opt)
				wantCh := ref.choice[[3]int{i, h, pi}]
				if math.Float64bits(gotVal) != math.Float64bits(ref.val[[3]int{i, h, pi}]) {
					sc.release()
					t.Fatalf("iter %d k=%d %+v: value at (%d,%d,%d) = %v, reference %v", iter, k, opt, i, h, pi, gotVal, ref.val[[3]int{i, h, pi}])
				}
				if gotCh != wantCh {
					sc.release()
					t.Fatalf("iter %d k=%d %+v: choice at (%d,%d,%d) = %+v, reference %+v", iter, k, opt, i, h, pi, gotCh, wantCh)
				}
				h -= gotCh.cnt
				if gotCh.placeHere {
					pi = 1
				}
			}
			sc.release()

			exact, err := e.ExactMaxDisclosureOpt(bz, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(ratFloat(exact) - got); d > 1e-12 {
				t.Fatalf("iter %d k=%d %+v: float %v, exact %s (off by %g)", iter, k, opt, got, exact.RatString(), d)
			}
		}
	}
}

// TestSeriesBitIdenticalToPointQueries: Series reads every k from one
// MINIMIZE2 table built for maxK, which must equal a separate MaxDisclosure
// call per k bit for bit.
func TestSeriesBitIdenticalToPointQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 200; iter++ {
		bz := randomBucketization(rng)
		maxK := rng.Intn(9)
		series, err := NewEngine().Series(bz, maxK)
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != maxK+1 {
			t.Fatalf("Series returned %d values for maxK=%d", len(series), maxK)
		}
		for k, s := range series {
			want, err := NewEngine().MaxDisclosure(bz, k)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(s) != math.Float64bits(want) {
				t.Fatalf("iter %d: Series(maxK=%d)[%d] = %v, MaxDisclosure %v", iter, maxK, k, s, want)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Layer micro-benchmarks: MINIMIZE1 (one series per histogram) and
// MINIMIZE2 (one bottom-up pass over a warm memo), the two halves of the
// O(|B|·k³) disclosure computation.
// ---------------------------------------------------------------------------

// BenchmarkMinimize1Series times one uncached MINIMIZE1 series at the
// Figure 6 shape: a 14-value histogram and atom counts up to k+1 = 7.
func BenchmarkMinimize1Series(b *testing.B) {
	hist := []int{40, 31, 25, 20, 17, 13, 11, 9, 7, 5, 4, 3, 2, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSeries = m1Series(hist, 7)
	}
}

// BenchmarkMinimize2 times the MINIMIZE2 pass alone over 1,000 buckets at
// k = 6, with every series already memoized: one memo lookup per bucket
// plus the bottom-up table.
func BenchmarkMinimize2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	groups := make([][]string, 1000)
	for i := range groups {
		for j := 0; j < 8; j++ {
			groups[i] = append(groups[i], string(rune('a'+rng.Intn(14))))
		}
	}
	views := makeViews(bucket.FromValues(groups...))
	e := NewEngine()
	e.minimize2(views, 6, Options{}).release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := e.minimize2(views, 6, Options{})
		sinkF = sc.val[sc.idx(0, 6, 0)]
		sc.release()
	}
}
