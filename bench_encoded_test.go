package ckprivacy_test

import (
	"testing"

	"ckprivacy"
)

// ---------------------------------------------------------------------------
// Columnar-substrate benchmarks: the encoded bucketization path against the
// row-by-row string reference, plus the one-time encode cost. All report a
// rows/s custom metric so the CI bench JSON artifact tracks throughput
// across PRs (`make bench-compare` diffs runs with benchstat).
// ---------------------------------------------------------------------------

// BenchmarkBucketizeLegacy is the reference: one string-path scan of the
// full-size synthetic Adult table at the Figure 5 generalization.
func BenchmarkBucketizeLegacy(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bz, err := ckprivacy.Bucketize(tab, ckprivacy.AdultHierarchies(), fig5Levels())
		if err != nil {
			b.Fatal(err)
		}
		sinkI = len(bz.Buckets)
	}
	reportRowsPerSec(b, float64(tab.Len()))
}

// BenchmarkBucketizeEncoded is the same partition computed over a
// pre-encoded view: one LUT index per row and dimension, integer group
// keys, code-space histograms.
func BenchmarkBucketizeEncoded(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	enc := ckprivacy.EncodeTable(tab)
	chs, err := ckprivacy.CompileHierarchies(enc, ckprivacy.AdultHierarchies())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bz, err := ckprivacy.BucketizeEncoded(enc, chs, fig5Levels())
		if err != nil {
			b.Fatal(err)
		}
		sinkI = len(bz.Buckets)
	}
	reportRowsPerSec(b, float64(tab.Len()))
}

// BenchmarkEncodeTable measures the one-time cost the encoded path
// amortizes: dictionary-encoding the table plus compiling the hierarchies.
func BenchmarkEncodeTable(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := ckprivacy.EncodeTable(tab)
		chs, err := ckprivacy.CompileHierarchies(enc, ckprivacy.AdultHierarchies())
		if err != nil {
			b.Fatal(err)
		}
		sinkI = len(chs)
	}
	reportRowsPerSec(b, float64(tab.Len()))
}

// BenchmarkLatticeSweepPath is the bucketization-dominated headline
// compare: materialize every node of the 72-node Adult lattice, legacy
// (the row-by-row string reference, ckprivacy.Bucketize, one scan per
// node) vs encoded (a fresh Problem's Bucketize per node: one base scan,
// then each miss a one-node planned sweep coarsening from the cheapest
// recorded source). No disclosure DP runs, so the ratio is purely the
// bucketization substrate's work.
func BenchmarkLatticeSweepPath(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	hs, qi := ckprivacy.AdultHierarchies(), ckprivacy.AdultQI()
	p, err := ckprivacy.NewProblem(tab, hs, qi)
	if err != nil {
		b.Fatal(err)
	}
	nodes := p.Space().All()
	b.Run("legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, n := range nodes {
				levels := ckprivacy.Levels{}
				for d, name := range qi {
					levels[name] = n[d]
				}
				bz, err := ckprivacy.Bucketize(tab, hs, levels)
				if err != nil {
					b.Fatal(err)
				}
				sinkI = len(bz.Buckets)
			}
		}
		reportRowsPerSec(b, float64(tab.Len())*float64(len(nodes)))
	})
	b.Run("encoded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := ckprivacy.NewProblem(tab, hs, qi)
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range nodes {
				bz, err := p.Bucketize(n)
				if err != nil {
					b.Fatal(err)
				}
				sinkI = len(bz.Buckets)
			}
		}
		reportRowsPerSec(b, float64(tab.Len())*float64(len(nodes)))
	})
}

// BenchmarkLatticeSweepPlanned materializes the same 72 Adult lattice
// nodes as BenchmarkLatticeSweepPath, but as one planned sweep: the whole
// node set is scheduled as a derivation DAG up front (one base scan at
// the root, everything else coarsened from its cheapest parent through
// pooled arenas) instead of each node greedily picking a source at its
// own cache miss. Reports rows/s plus the arena pool's reuse ratio.
func BenchmarkLatticeSweepPlanned(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	gets0, reuses0 := ckprivacy.ArenaStats()
	nodes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ckprivacy.NewProblem(tab, ckprivacy.AdultHierarchies(), ckprivacy.AdultQI())
		if err != nil {
			b.Fatal(err)
		}
		snap := p.Snapshot()
		if err := snap.MaterializeNodes(p.Space().All()); err != nil {
			b.Fatal(err)
		}
		nodes = p.Space().Size()
		for _, n := range p.Space().All() {
			bz, err := snap.Bucketize(n)
			if err != nil {
				b.Fatal(err)
			}
			sinkI = len(bz.Buckets)
		}
	}
	b.StopTimer()
	gets1, reuses1 := ckprivacy.ArenaStats()
	if gets := gets1 - gets0; gets > 0 {
		b.ReportMetric(float64(reuses1-reuses0)/float64(gets), "arena-reuse")
	}
	reportRowsPerSec(b, float64(tab.Len())*float64(nodes))
}

// BenchmarkBucketTuples measures the work bucketizations defer: after a
// planned sweep of the 72 Adult lattice nodes (untimed), it builds every
// bucket's row list cold with Tuples(). Scanned nodes re-scan their rows
// once; coarsened ones merge and sort their fine buckets' lists.
func BenchmarkBucketTuples(b *testing.B) {
	tab := mustAdult(b, ckprivacy.AdultDefaultN)
	tuples := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := ckprivacy.NewProblem(tab, ckprivacy.AdultHierarchies(), ckprivacy.AdultQI())
		if err != nil {
			b.Fatal(err)
		}
		snap := p.Snapshot()
		if err := snap.MaterializeNodes(p.Space().All()); err != nil {
			b.Fatal(err)
		}
		var bzs []*ckprivacy.Bucketization
		for _, n := range p.Space().All() {
			bz, err := snap.Bucketize(n)
			if err != nil {
				b.Fatal(err)
			}
			bzs = append(bzs, bz)
		}
		b.StartTimer()
		tuples = 0
		for _, bz := range bzs {
			for _, bk := range bz.Buckets {
				tuples += len(bk.Tuples())
			}
		}
	}
	sinkI = tuples
	reportRowsPerSec(b, float64(tuples))
}

// BenchmarkGridPlanned is the (c,k) policy grid on the sweep planner:
// every cell's chain search hands each round of probes to the planner as
// one sweep.
func BenchmarkGridPlanned(b *testing.B) {
	tab := mustAdult(b, 4000)
	b.Run("planned", func(b *testing.B) {
		cfg := ckprivacy.GridConfig{Cs: []float64{0.6, 0.8}, Ks: []int{1, 3, 5}, Workers: 1}
		cells := len(cfg.Cs) * len(cfg.Ks)
		for i := 0; i < b.N; i++ {
			res, err := ckprivacy.RunSafetyGrid(tab, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sinkI = len(res.Cells)
		}
		reportRowsPerSec(b, float64(tab.Len())*float64(cells))
	})
}

// reportRowsPerSec attaches the rows/s custom metric (rows of work per
// wall second across all iterations).
func reportRowsPerSec(b *testing.B, rowsPerOp float64) {
	if b.Elapsed() > 0 {
		b.ReportMetric(rowsPerOp*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	}
}
