package bucket

import (
	"fmt"
	"sort"

	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// This file is the incremental-update path of bucketization: given a
// bucketization of a table's first `start` rows and a snapshot of the same
// table after rows were appended, AppendRows re-keys only the appended
// rows and folds them into the existing partition, copy-on-write. Cost is
// O(appended rows + buckets at the node): appended rows are scanned and
// histogrammed once, untouched buckets are shared by pointer with the old
// bucketization (only a key-to-index map entry each), and only buckets the
// appended rows land in are rebuilt. Nothing rescans the pre-existing
// rows, which is what makes refreshing a warm lattice node after a small
// append cheap.
//
// The rebuilt and new buckets of one append share one scanRows source
// over the grown row prefix, keyed by their lowest rows, so an append
// never builds an old bucket's row list, and a rebuilt bucket does not
// keep its predecessor alive: a node patched by many appends holds one
// source per patch, not a chain of every version.

// appendMerged rebuilds one touched bucket: the old bucket's histogram
// plus the appended group g under the same key, with its row list drawn
// from src. Every appended row index exceeds every old one, so the old
// bucket's lowest row stays the lowest. The histogram merge is
// dense-to-dense when both sides carry code-space counts (an old
// histogram shorter than scard predates the new sensitive codes and holds
// zero of each), and falls back to merging the decoded freq multisets
// otherwise.
func appendMerged(old *Bucket, g *egroup, src rowSource, scard int, order []uint32, sdict *table.Dict) *Bucket {
	low, n := old.low, old.size+g.n
	if old.size == 0 {
		low = g.low
	}
	if old.scounts != nil && g.scounts != nil && len(old.scounts) <= scard {
		merged := make([]int32, scard)
		copy(merged, old.scounts)
		for v, c := range g.scounts {
			merged[v] += c
		}
		ng := &egroup{low: low, n: n, scounts: merged}
		return ng.bucket(old.Key, src, order, sdict)
	}
	counts := make(map[string]int, old.Distinct()+4)
	for _, vc := range old.Freq() {
		counts[vc.Value] += vc.Count
	}
	if g.scounts != nil {
		for v, c := range g.scounts {
			if c > 0 {
				counts[sdict.Value(uint32(v))] += int(c)
			}
		}
	} else {
		for v, c := range g.sparse {
			counts[sdict.Value(v)] += int(c)
		}
	}
	return derivedBucket(old.Key, n, low, src, table.SortCounts(counts), nil)
}

// AppendRows derives the bucketization of the snapshot enc at the given
// levels from an existing bucketization of the same table's first `start`
// rows at the same levels: rows [start, enc.Rows()) are keyed and grouped,
// groups matching an existing bucket key are merged into a fresh copy of
// that bucket, and unmatched groups become new buckets. Untouched buckets
// are shared with `old` by pointer — neither bucketization is mutated.
//
// Preconditions: `old` partitions exactly the first `start` rows of
// enc.Table at these levels (codes and hierarchies unchanged for those
// rows — appends only ever add dictionary codes), and enc/chs reflect the
// post-append state. The result is then byte-identical — keys, bucket
// order, tuple order, histograms — to FromGeneralizationEncoded(enc, chs,
// levels) on the grown table.
func AppendRows(old *Bucketization, enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels, start int) (*Bucketization, error) {
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return nil, err
	}
	rows := enc.Rows()
	if start < 0 || start > rows {
		return nil, fmt.Errorf("bucket: append start %d outside [0, %d]", start, rows)
	}
	if start == rows {
		// Nothing appended: same partition, re-anchored on the snapshot.
		return &Bucketization{Buckets: old.Buckets, Source: enc.Table}, nil
	}
	sdict := enc.SensitiveDict()
	scard := sdict.Len()

	// Group only the appended rows, on whichever key path the current
	// cardinalities select (the old bucketization's key path is irrelevant:
	// matching below goes through the decoded string keys, which both
	// paths share).
	packed := packable(dims)
	groups := scanRange(dims, enc.SensitiveCol(), scard, packed, start, rows).groups

	// Match each appended group to an existing bucket through the
	// materialized string key (decoded once per group, not per row). The
	// rebuilt and new buckets take their row lists from one source over
	// rows [0, rows).
	oldIndex := make(map[string]int, len(old.Buckets))
	for i, b := range old.Buckets {
		oldIndex[b.Key] = i
	}
	src := &scanRows{dims: dims, packed: packed, rows: rows, lows: make([]int, len(groups)), offs: make([]int, len(groups)+1)}
	order := valueOrder(sdict)
	parts := make([]string, len(dims))
	out := make([]*Bucket, len(old.Buckets), len(old.Buckets)+len(groups))
	copy(out, old.Buckets)
	fresh := 0
	for gi, g := range groups {
		key := keyString(dims, g.low, parts)
		i, ok := oldIndex[key]
		var b *Bucket
		if ok {
			b = appendMerged(old.Buckets[i], g, rowSource{scan: src, off: src.offs[gi]}, scard, order, sdict)
			out[i] = b
		} else {
			b = g.bucket(key, rowSource{scan: src, off: src.offs[gi]}, order, sdict)
			out = append(out, b)
			fresh++
		}
		src.lows[gi] = b.low
		src.offs[gi+1] = src.offs[gi] + b.size
	}
	if fresh > 0 {
		// New keys joined the partition; restore the global key order (the
		// shared prefix is already sorted, so this is near-linear).
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	}
	return &Bucketization{Buckets: out, Source: enc.Table}, nil
}
