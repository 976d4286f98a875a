package bucket

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/parallel"
	"ckprivacy/internal/table"
)

// Bucket row lists are derived on the first Tuples call (bucket.go). These
// tests pin what that deferral must not change: a late read answers for the
// rows the bucketization was built over, concurrent first reads agree, and
// the scan and coarsening paths no longer spend memory per row.

// addRandomRows appends n random rows to tab, drawing each column like
// randCase does.
func addRandomRows(rng *rand.Rand, tab *table.Table, n int) {
	attrs := tab.Schema.Attrs
	for r := 0; r < n; r++ {
		row := make(table.Row, len(attrs))
		for c, a := range attrs {
			if a.Kind == table.Numeric {
				row[c] = strconv.Itoa(rng.Intn(100))
			} else {
				row[c] = a.Domain[rng.Intn(len(a.Domain))]
			}
		}
		tab.MustAppend(row)
	}
}

// splitByNewValues splits a table's rows so the suffix holds every row
// that carries the last domain value of some categorical column (the
// sensitive one included) or a numeric value above 80: appending the
// suffix then grows those dictionaries.
func splitByNewValues(tab *table.Table) (base, extra []table.Row) {
	for _, row := range tab.Rows {
		fresh := false
		for c, a := range tab.Schema.Attrs {
			if a.Kind == table.Numeric {
				v, _ := strconv.Atoi(row[c])
				fresh = fresh || v > 80
			} else {
				fresh = fresh || row[c] == a.Domain[len(a.Domain)-1]
			}
		}
		if fresh {
			extra = append(extra, row)
		} else {
			base = append(base, row)
		}
	}
	return base, extra
}

// coarserLevels draws levels component-wise ≥ levels.
func coarserLevels(rng *rand.Rand, hs hierarchy.Set, levels Levels) Levels {
	out := Levels{}
	for name, lvl := range levels {
		top := hs[name].Levels() - 1
		out[name] = lvl + rng.Intn(top-lvl+1)
	}
	return out
}

// TestTuplesDeferredAcrossAppends builds scanned, sharded, coarsened and
// rekeyed bucketizations over a master encoding, then appends rows in two
// batches that grow the dictionaries and extends the compiled hierarchies,
// and only then reads the row lists: they must still be the pre-append
// prefix's. The AppendRows results of both batches, each patching the
// previous one, must list the rows of their own grown prefix.
func TestTuplesDeferredAcrossAppends(t *testing.T) {
	cases := 80
	if testing.Short() {
		cases = 20
	}
	rng := rand.New(rand.NewSource(61))
	pool := parallel.NewPool(3)
	grown := 0
	for i := 0; i < cases; i++ {
		tab, hs := randCase(rng)
		addRandomRows(rng, tab, rng.Intn(200))
		base, extra := splitByNewValues(tab)
		if len(base) == 0 || len(extra) == 0 {
			continue
		}
		prefix, grownTab := table.New(tab.Schema), table.New(tab.Schema)
		for _, r := range base {
			prefix.MustAppend(r)
			grownTab.MustAppend(r)
		}
		enc := grownTab.Encode() // the master view; the append grows it and grownTab
		chs, err := CompileHierarchies(enc, hs)
		if err != nil {
			t.Fatalf("case %d: compile: %v", i, err)
		}
		fineLv := randLevels(rng, hs, nil)
		coarseLv := coarserLevels(rng, hs, fineLv)
		label := fmt.Sprintf("case %d fine %v coarse %v", i, fineLv, coarseLv)

		scan, err := FromGeneralizationEncoded(enc, chs, fineLv)
		if err != nil {
			t.Fatalf("%s: scan: %v", label, err)
		}
		sharded, err := FromGeneralizationEncodedSharded(enc, chs, fineLv, 3, pool)
		if err != nil {
			t.Fatalf("%s: sharded scan: %v", label, err)
		}
		rekeyed, err := Coarsen(scan, enc, chs, fineLv)
		if err != nil {
			t.Fatalf("%s: identity coarsen: %v", label, err)
		}
		coarse, err := Coarsen(sharded, enc, chs, coarseLv)
		if err != nil {
			t.Fatalf("%s: coarsen: %v", label, err)
		}
		// Two appends, each patching the previous result, so the second
		// patches buckets whose lists the first only deferred.
		half := len(extra) / 2
		midTab := table.New(tab.Schema)
		for _, r := range append(base[:len(base):len(base)], extra[:half]...) {
			midTab.MustAppend(r)
		}
		var patched []*Bucketization
		for _, batch := range [][]table.Row{extra[:half], extra[half:]} {
			start := enc.Rows()
			delta, err := enc.Append(batch)
			if err != nil {
				t.Fatalf("%s: append: %v", label, err)
			}
			for name, c := range chs {
				col := enc.Table.Schema.Index(name)
				if delta.NewValueCount(col) == 0 {
					continue
				}
				grown++
				if chs[name], err = c.Extend(hs[name], enc.Dicts[col].Values()); err != nil {
					t.Fatalf("%s: extend %s: %v", label, name, err)
				}
			}
			prev := coarse
			if len(patched) > 0 {
				prev = patched[len(patched)-1]
			}
			next, err := AppendRows(prev, enc.Snapshot(), chs, coarseLv, start)
			if err != nil {
				t.Fatalf("%s: AppendRows: %v", label, err)
			}
			patched = append(patched, next)
		}

		wantFine, err := FromGeneralization(prefix, hs, fineLv)
		if err != nil {
			t.Fatal(err)
		}
		wantCoarse, err := FromGeneralization(prefix, hs, coarseLv)
		if err != nil {
			t.Fatal(err)
		}
		wantMid, err := FromGeneralization(midTab, hs, coarseLv)
		if err != nil {
			t.Fatal(err)
		}
		wantGrown, err := FromGeneralization(grownTab, hs, coarseLv)
		if err != nil {
			t.Fatal(err)
		}
		// The newest results are read first: building their lists must not
		// disturb the older buckets they were patched from.
		requireIdentical(t, wantGrown, patched[1], label+" (second append)")
		requireIdentical(t, wantMid, patched[0], label+" (first append)")
		requireIdentical(t, wantCoarse, coarse, label+" (coarse)")
		requireIdentical(t, wantFine, rekeyed, label+" (rekeyed)")
		requireIdentical(t, wantFine, sharded, label+" (sharded)")
		requireIdentical(t, wantFine, scan, label+" (scan)")
	}
	if grown == 0 {
		t.Fatal("no case grew a dictionary; the test exercised nothing")
	}
}

// TestTuplesConcurrentFirstReads races many goroutines through the first
// Tuples calls on buckets that share derivation state: the buckets of one
// sharded scan (one slab), coarsenings of it and of each other (unions of
// shared fine buckets), an identity coarsening (rekeys sharing lists) and
// an append onto a coarsening. Run under -race; every answer must equal
// the string-path reference.
func TestTuplesConcurrentFirstReads(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var tab *table.Table
	var hs hierarchy.Set
	for tab == nil || len(hs) < 2 {
		tab, hs = randCase(rng)
	}
	addRandomRows(rng, tab, 3000)
	base, extra := tab.Rows[:2500], tab.Rows[2500:]
	enc, chs, start := buildAppended(t, tab.Schema, hs, base, extra)
	prefix := table.New(tab.Schema)
	for _, r := range base {
		prefix.MustAppend(r)
	}
	baseEnc := prefix.Encode()
	baseCHS, err := CompileHierarchies(baseEnc, hs)
	if err != nil {
		t.Fatal(err)
	}

	type built struct {
		got, want *Bucketization
	}
	var all []built
	must := func(bz *Bucketization, err error) *Bucketization {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return bz
	}
	add := func(got *Bucketization, src *table.Table, lv Levels) *Bucketization {
		t.Helper()
		want, err := FromGeneralization(src, hs, lv)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, built{got, want})
		return got
	}
	zero := Levels{}
	for name := range hs {
		zero[name] = 0
	}
	mid := coarserLevels(rng, hs, zero)
	top := coarserLevels(rng, hs, mid)
	scan := add(must(FromGeneralizationEncodedSharded(baseEnc, baseCHS, zero, 4, parallel.NewPool(4))), prefix, zero)
	add(must(Coarsen(scan, baseEnc, baseCHS, zero)), prefix, zero)
	midBz := add(must(Coarsen(scan, baseEnc, baseCHS, mid)), prefix, mid)
	add(must(Coarsen(midBz, baseEnc, baseCHS, top)), prefix, top)
	topBz := add(must(Coarsen(scan, baseEnc, baseCHS, top)), prefix, top)
	add(must(AppendRows(topBz, enc, chs, top, start)), enc.Table, top)

	var refs [][]int
	var buckets []*Bucket
	for _, b := range all {
		if len(b.got.Buckets) != len(b.want.Buckets) {
			t.Fatalf("%d buckets, want %d", len(b.got.Buckets), len(b.want.Buckets))
		}
		for i, bk := range b.got.Buckets {
			buckets = append(buckets, bk)
			refs = append(refs, b.want.Buckets[i].Tuples())
		}
	}

	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	gate := make(chan struct{})
	for r := 0; r < readers; r++ {
		perm := rand.New(rand.NewSource(int64(r))).Perm(len(buckets))
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			for _, i := range perm {
				if got := buckets[i].Tuples(); !reflect.DeepEqual(got, refs[i]) {
					errs <- fmt.Sprintf("bucket %d (%s): tuples %v, want %v", i, buckets[i].Key, got, refs[i])
					return
				}
			}
		}()
	}
	close(gate)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// allocBytes returns the fewest bytes f allocated over a few runs (the
// minimum discards allocations of unrelated background work).
func allocBytes(f func()) uint64 {
	var ms runtime.MemStats
	best := ^uint64(0)
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// TestScanAndCoarsenAllocsFlatInRows pins that a base scan and a
// coarsening spend memory per bucket, not per row: the same table
// repeated four times has the same groups, and must not allocate more
// than a small per-row slack beyond the single copy. The table has few groups,
// so every scan shard sees all of them in both tables.
func TestScanAndCoarsenAllocsFlatInRows(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	attrs := []table.Attribute{}
	hs := hierarchy.Set{}
	for i, d := range []int{6, 5, 4} {
		name := fmt.Sprintf("q%d", i)
		domain := make([]string, d)
		for j := range domain {
			domain[j] = fmt.Sprintf("c%d", j)
		}
		attrs = append(attrs, table.Attribute{Name: name, Kind: table.Categorical, Domain: domain})
		hs[name] = randNested(rng, name, domain)
	}
	attrs = append(attrs, table.Attribute{Name: "sens", Kind: table.Categorical, Domain: []string{"s0", "s1", "s2", "s3", "s4"}})
	s, err := table.NewSchema(attrs, "sens")
	if err != nil {
		t.Fatal(err)
	}
	tab := table.New(s)
	addRandomRows(rng, tab, 8000)
	rows := tab.Len()
	tab4 := table.New(tab.Schema)
	for rep := 0; rep < 4; rep++ {
		for _, r := range tab.Rows {
			tab4.MustAppend(r)
		}
	}
	zero, mid := Levels{}, Levels{}
	for name := range hs {
		zero[name] = 0
		mid[name] = 1
	}
	measure := func(tb *table.Table) (scan, coarsen uint64, nFine, nCoarse int) {
		enc := tb.Encode()
		chs, err := CompileHierarchies(enc, hs)
		if err != nil {
			t.Fatal(err)
		}
		var fine, coarse *Bucketization
		ar := GetArena()
		defer PutArena(ar)
		scan = allocBytes(func() {
			if fine, err = FromGeneralizationEncodedSharded(enc, chs, zero, 4, nil); err != nil {
				t.Fatal(err)
			}
		})
		coarsen = allocBytes(func() {
			if coarse, err = CoarsenInto(fine, enc, chs, mid, ar); err != nil {
				t.Fatal(err)
			}
		})
		return scan, coarsen, len(fine.Buckets), len(coarse.Buckets)
	}
	scan1, coarsen1, fine1, coarse1 := measure(tab)
	scan4, coarsen4, fine4, coarse4 := measure(tab4)
	if fine1 != fine4 || coarse1 != coarse4 {
		t.Fatalf("repeating the table changed the groups: %d/%d vs %d/%d buckets", fine1, coarse1, fine4, coarse4)
	}
	if coarse1 >= fine1 {
		t.Fatalf("coarsening merged nothing (%d → %d buckets)", fine1, coarse1)
	}
	// Three more copies of every row: a row list costs 8 B per row, so
	// allow half that on the extra rows. The slack absorbs pool noise (the
	// race detector drops pooled scan scratch at random, ~10 KB here).
	slack := uint64(4 * 3 * rows)
	t.Logf("%d rows, %d → %d buckets: scan %d → %d B, coarsen %d → %d B", rows, fine1, coarse1, scan1, scan4, coarsen1, coarsen4)
	if scan4 > scan1+slack {
		t.Errorf("scan allocated %d B on 4× rows vs %d B (slack %d): it grows with rows", scan4, scan1, slack)
	}
	if coarsen4 > coarsen1+slack {
		t.Errorf("coarsen allocated %d B on 4× rows vs %d B (slack %d): it grows with rows", coarsen4, coarsen1, slack)
	}
}
