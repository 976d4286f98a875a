package ckprivacy_test

import (
	"fmt"
	"runtime"
	"testing"

	"ckprivacy"
	"ckprivacy/internal/synth"
)

// ---------------------------------------------------------------------------
// Sharded-scan benchmarks: the row-sharded bucketization against the serial
// encoded scan on ACS-style synthetic tables at 100k and 1M rows. Results
// are byte-identical at every shard count (the parity tests in
// internal/bucket prove it); these measure the throughput side. rows/s
// feeds the CI bench JSON artifact.
// ---------------------------------------------------------------------------

// BenchmarkBucketizeSharded scans each table size serially (shards=1) and
// with one shard per CPU core; on multi-core hosts an 8-shard variant is
// added when it differs from both.
func BenchmarkBucketizeSharded(b *testing.B) {
	shardCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		shardCounts = append(shardCounts, n)
		if n != 8 {
			shardCounts = append(shardCounts, 8)
		}
	}
	for _, rows := range []int{100_000, 1_000_000} {
		bundle, err := synth.Bundle(synth.Config{Rows: rows, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		enc, chs, err := bundle.Encoded()
		if err != nil {
			b.Fatal(err)
		}
		for _, shards := range shardCounts {
			b.Run(fmt.Sprintf("rows=%d/shards=%d", rows, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bz, err := ckprivacy.BucketizeEncodedSharded(enc, chs, bundle.DefaultLevels, shards)
					if err != nil {
						b.Fatal(err)
					}
					sinkI = len(bz.Buckets)
				}
				reportRowsPerSec(b, float64(rows))
			})
		}
	}
}

// BenchmarkIncognitoSynth is the sanitize shape at CI size: a fresh
// problem over a 200k-row synthetic census table, with one search worker
// and one scan shard per CPU, finds every minimal (0.8,1)-safe
// generalization with the Incognito search. Its cost is base scans,
// coarsening and the planned sweep; disclosure is a small share.
func BenchmarkIncognitoSynth(b *testing.B) {
	cfg := synth.Config{Rows: 200_000, Seed: 1}
	gen, err := synth.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := gen.Table()
	if err != nil {
		b.Fatal(err)
	}
	procs := runtime.NumCPU()
	o := ckprivacy.DefaultProblemOptions()
	o.Workers, o.ShardWorkers = procs, procs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ckprivacy.NewProblemWithOptions(tab, synth.Hierarchies(cfg), synth.QI(), o)
		if err != nil {
			b.Fatal(err)
		}
		nodes, _, err := p.MinimalSafeIncognito(ckprivacy.CKSafety{C: 0.8, K: 1})
		if err != nil {
			b.Fatal(err)
		}
		sinkI = len(nodes)
	}
	reportRowsPerSec(b, float64(cfg.Rows))
}
