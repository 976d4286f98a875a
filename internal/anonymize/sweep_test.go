package anonymize

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ckprivacy/internal/bucket"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/table"
)

// Randomized full-sweep parity: a planned sweep (one derivation DAG,
// frontier batches, pooled arenas) must produce byte-identical results to
// the string-scan oracle — same search nodes and stats, same
// bucketizations, same disclosure values — at every worker count, and
// again after an append patches the encoded substrate between two sweeps
// (the planner must replan against the patched cache, not reuse stale
// sources).

// cloneTable deep-copies a table so each problem under comparison owns
// its rows — Append mutates the problem's table in place.
func cloneTable(tab *table.Table) *table.Table {
	c := table.New(tab.Schema)
	for _, r := range tab.Rows {
		c.MustAppend(append(table.Row(nil), r...))
	}
	return c
}

// randomRows draws n fresh rows matching the schema's attribute kinds.
func randomRows(rng *rand.Rand, s *table.Schema, n int) []table.Row {
	rows := make([]table.Row, n)
	for r := range rows {
		row := make(table.Row, len(s.Attrs))
		for c, a := range s.Attrs {
			if a.Kind == table.Numeric {
				row[c] = strconv.Itoa(rng.Intn(100))
			} else {
				row[c] = a.Domain[rng.Intn(len(a.Domain))]
			}
		}
		rows[r] = row
	}
	return rows
}

// assertSameBucketization compares two bucketizations bucket by bucket
// through the public accessors (key, tuple ids, frequency table,
// histogram) — the full observable surface of a bucket.
func assertSameBucketization(t *testing.T, label string, a, b *bucket.Bucketization) {
	t.Helper()
	if len(a.Buckets) != len(b.Buckets) {
		t.Fatalf("%s: %d buckets vs %d", label, len(a.Buckets), len(b.Buckets))
	}
	for i := range a.Buckets {
		x, y := a.Buckets[i], b.Buckets[i]
		if x.Key != y.Key {
			t.Fatalf("%s: bucket %d key %q vs %q", label, i, x.Key, y.Key)
		}
		if !reflect.DeepEqual(x.Tuples(), y.Tuples()) {
			t.Fatalf("%s: bucket %d (%s) tuples %v vs %v", label, i, x.Key, x.Tuples(), y.Tuples())
		}
		if !reflect.DeepEqual(x.Freq(), y.Freq()) {
			t.Fatalf("%s: bucket %d (%s) freq %v vs %v", label, i, x.Key, x.Freq(), y.Freq())
		}
		if !reflect.DeepEqual(x.Histogram(), y.Histogram()) {
			t.Fatalf("%s: bucket %d (%s) hist %v vs %v", label, i, x.Key, x.Histogram(), y.Histogram())
		}
	}
}

// TestPlannedSweepParity is the full-sweep parity property test.
func TestPlannedSweepParity(t *testing.T) {
	cases := 8
	if testing.Short() {
		cases = 3
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < cases; i++ {
		tab, hs, qi := randomProblemCase(rng)
		extra := randomRows(rng, tab.Schema, 5+rng.Intn(20))
		grown := cloneTable(tab)
		for _, r := range extra {
			grown.MustAppend(r)
		}
		before, after := newOracle(t, tab, hs, qi), newOracle(t, grown, hs, qi)
		c := []float64{0.4, 0.6, 0.8}[rng.Intn(3)]
		k := 1 + rng.Intn(2)
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("case %d (c=%v k=%d workers=%d)", i, c, k, workers)
			planned, err := NewProblemWithOptions(cloneTable(tab), hs, qi, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: planned problem: %v", label, err)
			}

			compareSweep(t, label, planned, before, c, k)
			// Append and sweep again: the planner must replan against the
			// patched cache and stay byte-identical.
			if _, err := planned.Append(extra); err != nil {
				t.Fatalf("%s: append: %v", label, err)
			}
			compareSweep(t, label+" after append", planned, after, c, k)

			if ss := planned.SweepStats(); ss.Sweeps == 0 || ss.PlannedNodes == 0 {
				t.Fatalf("%s: planner never ran: %+v", label, ss)
			}
		}
	}
}

// compareSweep runs a full-lattice planned sweep plus all three searches
// and asserts the problem agrees with the oracle on everything
// observable.
func compareSweep(t *testing.T, label string, p *Problem, o *oracle, c float64, k int) {
	t.Helper()
	snap := p.Snapshot()
	if err := snap.MaterializeNodes(p.Space().All()); err != nil {
		t.Fatalf("%s: planned sweep: %v", label, err)
	}
	requireOracleBucketizations(t, label, snap, o, k)
	requireOracleSearches(t, label, p, o, privacy.CKSafety{C: c, K: k, Engine: p.Engine()})
}

// TestMissIsOneNodeSweep pins the cache-miss path: a Bucketize miss on
// the encoded path runs as a one-node planned sweep (base scan first,
// then coarsened from the cheapest recorded source), counts exactly one
// cache miss, and a repeat is a plain hit that plans nothing.
func TestMissIsOneNodeSweep(t *testing.T) {
	p := hospital(t)
	if _, err := p.Bucketize(lattice.Node{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if ss, cs := p.SweepStats(), p.CacheStats(); ss.Sweeps != 1 || ss.PlannedNodes != 1 || ss.BaseScans != 1 ||
		cs.Misses != 1 || cs.Hits != 0 {
		t.Fatalf("first miss: sweep %+v, cache %+v", ss, cs)
	}
	if _, err := p.Bucketize(lattice.Node{1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if ss, cs := p.SweepStats(), p.CacheStats(); ss.Sweeps != 2 || ss.Coarsened != 1 || ss.BaseScans != 1 ||
		cs.Misses != 2 || cs.Hits != 0 {
		t.Fatalf("second miss: sweep %+v, cache %+v", ss, cs)
	}
	if _, err := p.Bucketize(lattice.Node{1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if ss, cs := p.SweepStats(), p.CacheStats(); ss.Sweeps != 2 || cs.Misses != 2 || cs.Hits != 1 {
		t.Fatalf("repeat: sweep %+v, cache %+v", ss, cs)
	}
	// A subset request inducing an already-materialized level vector is a
	// cache miss served by reuse: one miss, no new bucketization.
	if _, err := p.Snapshot().BucketizeSubset([]int{0, 1, 2}, lattice.Node{2, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Snapshot().BucketizeSubset([]int{0}, lattice.Node{2}); err != nil {
		t.Fatal(err)
	}
	if ss, cs := p.SweepStats(), p.CacheStats(); ss.Reused != 1 || cs.Misses != 4 {
		t.Fatalf("reuse: sweep %+v, cache %+v", ss, cs)
	}
}
