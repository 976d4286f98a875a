// Package bucket implements bucketization, the sanitization method the paper
// analyzes (equivalently, Anatomy-style publishing): tuples are partitioned
// into buckets and the sensitive values are randomly permuted within each
// bucket. Under the random-worlds assumption, all privacy-relevant state of
// a bucket is its sensitive-value histogram, which this package maintains in
// decreasing-frequency order (the s⁰_b, s¹_b, ... of the paper).
package bucket

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// Bucket is one block of the partition.
//
// A bucket's row list is derived state. Worst-case disclosure reads only
// the sensitive histogram, so the scan, coarsening and append paths count
// rows and merge histograms and record where the list can be rebuilt from;
// Tuples builds it on first use. A Bucket holds a sync.Once and must not
// be copied by value.
type Bucket struct {
	// Key identifies the bucket, e.g. the generalized quasi-identifier
	// signature that formed it.
	Key string

	size int // n_b
	low  int // lowest row id in the bucket; -1 when it is empty

	once   sync.Once // guards building tuples from src
	tuples []int     // the row list once built; set up front by eager constructors
	src    rowSource // where a derived list comes from; cleared once built

	freq   []table.ValueCount // decreasing count, ties by value
	prefix []int              // prefix[j] = sum of top-j counts
	hist   []int              // counts only, aligned with freq
	// scounts is the sensitive histogram over the encoded table's
	// sensitive code space; nil for buckets built on the string path. The
	// incremental coarsening path merges these without touching strings.
	scounts []int32
}

// rowSource says where a derived bucket's row list comes from: a section
// of a scanRows slab (a base scan's, or an append's), or the union of
// finer buckets' lists. A source with neither marks an eager bucket.
type rowSource struct {
	scan  *scanRows // the bucket is section [off, off+size) of scan's slab
	off   int
	parts []*Bucket // the list is the sorted union of these buckets' lists
}

// newBucket builds an eager bucket from its row list and a sensitive-value
// count map. The map is not retained: the sorted freq slice answers every
// later query.
func newBucket(key string, tuples []int, counts map[string]int) *Bucket {
	low := -1
	for i, id := range tuples {
		if i == 0 || id < low {
			low = id
		}
	}
	b := &Bucket{Key: key, size: len(tuples), low: low, tuples: tuples, freq: table.SortCounts(counts)}
	b.finalize()
	return b
}

// derivedBucket builds a bucket whose row list is derived from src on the
// first Tuples call. size and low are the list's length and lowest row;
// freq must already be in decreasing-count order.
func derivedBucket(key string, size, low int, src rowSource, freq []table.ValueCount, scounts []int32) *Bucket {
	b := &Bucket{Key: key, size: size, low: low, src: src, freq: freq, scounts: scounts}
	b.finalize()
	return b
}

// rekeyBucket returns a bucket identical to part[0] under a new key,
// sharing its frequency and histogram storage, and its row list once
// built. Coarsening a group of one fine bucket changes nothing but the
// key, so the derived state can be shared outright: buckets are immutable
// once built (the snapshotmut analyzer pins them to this file) and appends
// derive touched buckets rather than mutating them, so the sharing is
// never observable. part has length one.
func rekeyBucket(key string, part []*Bucket) *Bucket {
	b := part[0]
	return &Bucket{Key: key, size: b.size, low: b.low, src: rowSource{parts: part},
		freq: b.freq, prefix: b.prefix, hist: b.hist, scounts: b.scounts}
}

// finalize derives the prefix sums and the cached histogram from freq.
// Both live in one allocation.
func (b *Bucket) finalize() {
	n := len(b.freq)
	buf := make([]int, 2*n+1)
	b.hist, b.prefix = buf[:n:n], buf[n:]
	for i, vc := range b.freq {
		b.prefix[i+1] = b.prefix[i] + vc.Count
		b.hist[i] = vc.Count
	}
}

// Tuples returns the row indices (person identities) in the bucket. Every
// bucket built by a scan, a coarsening or an append lists them in
// ascending row order, as FromGeneralization does; FromValues numbers
// persons in order, and FromTupleGroups and Merge keep the order they
// were given. The returned slice is shared and must not be modified.
//
// Derived buckets build the list on the first call and return the same
// slice afterwards; calls are safe from any goroutine. The first call on
// any bucket of a base scan, or on any bucket one append rebuilt or
// created, re-scans that source's rows once, O(rows), and fills the lists
// of all its buckets from one slab. A coarsened bucket concatenates the
// lists of the fine buckets it merged (building those first) and sorts
// them, O(n_b log n_b). The disclosure and safety computations never call
// it.
func (b *Bucket) Tuples() []int {
	b.once.Do(b.build)
	return b.tuples
}

// build derives the row list from the bucket's source and drops the
// source, so a built bucket no longer pins its scan or finer buckets.
func (b *Bucket) build() {
	switch src := b.src; {
	case src.scan != nil:
		src.scan.once.Do(src.scan.fill)
		b.tuples = src.scan.slab[src.off : src.off+b.size : src.off+b.size]
	case len(src.parts) == 1:
		b.tuples = src.parts[0].Tuples()
	case len(src.parts) > 1:
		t := make([]int, 0, b.size)
		for _, p := range src.parts {
			t = append(t, p.Tuples()...)
		}
		slices.Sort(t)
		b.tuples = t
	default:
		return // eager: the list was set at construction
	}
	b.src = rowSource{}
}

// Size returns n_b, the number of tuples in the bucket.
func (b *Bucket) Size() int { return b.size }

// Count returns n_b(s), the multiplicity of sensitive value s. The number
// of distinct sensitive values per bucket is small, so a linear scan of
// the freq slice beats retaining a dedicated map per bucket.
func (b *Bucket) Count(s string) int {
	for _, vc := range b.freq {
		if vc.Value == s {
			return vc.Count
		}
	}
	return 0
}

// Freq returns the value counts in decreasing order (s⁰_b first). The
// returned slice must not be modified.
func (b *Bucket) Freq() []table.ValueCount { return b.freq }

// Distinct returns the number of distinct sensitive values.
func (b *Bucket) Distinct() int { return len(b.freq) }

// TopValue returns s⁰_b, the most frequent sensitive value.
func (b *Bucket) TopValue() string { return b.freq[0].Value }

// TopCount returns n_b(s⁰_b).
func (b *Bucket) TopCount() int { return b.freq[0].Count }

// PrefixSum returns the total count of the j most frequent values
// (j may exceed the number of distinct values, in which case the full size
// is returned).
func (b *Bucket) PrefixSum(j int) int {
	if j >= len(b.prefix) {
		return b.prefix[len(b.prefix)-1]
	}
	return b.prefix[j]
}

// Histogram returns the counts in decreasing order. The DP in
// internal/core depends only on this. The slice is computed once at
// construction and shared across calls: it must be treated as read-only.
func (b *Bucket) Histogram() []int { return b.hist }

// Signature returns a canonical string form of the histogram, used to share
// memoized DP tables between buckets with identical histograms.
func (b *Bucket) Signature() string {
	var sb strings.Builder
	for i, vc := range b.freq {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(vc.Count))
	}
	return sb.String()
}

// Bucketization is a partition of a table's tuples into buckets.
type Bucketization struct {
	// Buckets holds the blocks in deterministic (key) order.
	Buckets []*Bucket
	// Source optionally references the table the bucketization was built
	// from; it is required by Publish and by the logic/worlds bridges.
	Source *table.Table
}

// FromValues builds a bucketization directly from per-bucket sensitive-value
// multisets, with synthetic person identities 0..n-1 assigned in order. It
// is the main constructor for tests and small worked examples.
func FromValues(groups ...[]string) *Bucketization {
	bz := &Bucketization{}
	next := 0
	for gi, g := range groups {
		counts := make(map[string]int, len(g))
		tuples := make([]int, len(g))
		for i, s := range g {
			counts[s]++
			tuples[i] = next
			next++
		}
		bz.Buckets = append(bz.Buckets, newBucket(fmt.Sprintf("b%d", gi), tuples, counts))
	}
	return bz
}

// FromTupleGroups rebuilds a bucketization from its materialized form:
// per-bucket keys and tuple (row) ids over src. It is the durable store's
// recovery constructor — a persisted release stores exactly its partition,
// and this turns it back into a live Bucketization (sensitive histograms
// recounted from src) without re-running the original generalization scan.
// Buckets are taken in the given order; keys need not be sorted (they were
// sorted when first built, and recovery preserves that order verbatim).
// The groups must partition a set of rows: an empty group, or a row id
// that appears twice (in one group or in two), is an error naming the
// group.
func FromTupleGroups(src *table.Table, keys []string, groups [][]int) (*Bucketization, error) {
	if len(keys) != len(groups) {
		return nil, fmt.Errorf("bucket: %d keys but %d groups", len(keys), len(groups))
	}
	owner := make([]int32, src.Len()) // row id → 1 + index of the group holding it
	bz := &Bucketization{Source: src}
	for i, key := range keys {
		tuples := groups[i]
		if len(tuples) == 0 {
			return nil, fmt.Errorf("bucket: group %d (key %q) is empty", i, key)
		}
		counts := make(map[string]int, 4)
		for _, id := range tuples {
			if id < 0 || id >= src.Len() {
				return nil, fmt.Errorf("bucket: group %d tuple id %d outside table of %d rows", i, id, src.Len())
			}
			if o := owner[id]; o != 0 {
				return nil, fmt.Errorf("bucket: group %d (key %q) repeats tuple id %d, already in group %d", i, key, id, o-1)
			}
			owner[id] = int32(i + 1)
			counts[src.SensitiveValue(id)]++
		}
		bz.Buckets = append(bz.Buckets, newBucket(key, tuples, counts))
	}
	return bz, nil
}

// Levels assigns a generalization level to each quasi-identifier by name.
type Levels map[string]int

// validateLevels rejects level assignments that the grouping loop would
// otherwise silently ignore or default: attributes that do not exist in
// the schema (typos), the sensitive attribute, and levels outside the
// attribute's hierarchy range. hierLevels reports the named attribute's
// level count, false when it has no hierarchy.
func validateLevels(s *table.Schema, levels Levels, hierLevels func(name string) (int, bool)) error {
	for name, lvl := range levels {
		col := s.Index(name)
		if col < 0 {
			return fmt.Errorf("bucket: levels name unknown attribute %q", name)
		}
		if col == s.SensitiveIndex {
			return fmt.Errorf("bucket: levels name the sensitive attribute %q, which cannot be generalized", name)
		}
		if lvl == 0 {
			continue // identity needs no hierarchy
		}
		n, ok := hierLevels(name)
		if !ok {
			return fmt.Errorf("bucket: no hierarchy for attribute %q", name)
		}
		if lvl < 0 || lvl >= n {
			return fmt.Errorf("bucket: level %d for attribute %q outside [0, %d)", lvl, name, n)
		}
	}
	return nil
}

// FromGeneralization partitions t by the generalized values of its
// quasi-identifiers: two tuples share a bucket iff they agree on every QI
// attribute after generalization to the given level. Attributes absent from
// levels default to level 0 (no generalization). This realizes the paper's
// equivalence of full-domain generalization and bucketization under full
// identification information.
//
// This is the string-path reference implementation; FromGeneralizationEncoded
// computes the byte-identical result over an Encoded view of the table.
func FromGeneralization(t *table.Table, hs hierarchy.Set, levels Levels) (*Bucketization, error) {
	err := validateLevels(t.Schema, levels, func(name string) (int, bool) {
		h, ok := hs[name]
		if !ok {
			return 0, false
		}
		return h.Levels(), true
	})
	if err != nil {
		return nil, err
	}
	qi := t.Schema.QuasiIdentifiers()
	type group struct {
		tuples []int
		counts map[string]int
	}
	groups := make(map[string]*group)
	var keyParts []string
	for row := 0; row < t.Len(); row++ {
		keyParts = keyParts[:0]
		for _, col := range qi {
			name := t.Schema.Attrs[col].Name
			lvl := levels[name]
			val := t.Value(row, col)
			if lvl != 0 {
				h, ok := hs[name]
				if !ok {
					return nil, fmt.Errorf("bucket: no hierarchy for attribute %q", name)
				}
				g, err := h.Generalize(val, lvl)
				if err != nil {
					return nil, fmt.Errorf("bucket: row %d: %w", row, err)
				}
				val = g
			}
			keyParts = append(keyParts, val)
		}
		key := strings.Join(keyParts, "|")
		g, ok := groups[key]
		if !ok {
			g = &group{counts: make(map[string]int)}
			groups[key] = g
		}
		g.tuples = append(g.tuples, row)
		g.counts[t.SensitiveValue(row)]++
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bz := &Bucketization{Source: t}
	for _, k := range keys {
		g := groups[k]
		bz.Buckets = append(bz.Buckets, newBucket(k, g.tuples, g.counts))
	}
	return bz, nil
}

// Merge returns a new bucketization with buckets i and j merged (a single
// step up the paper's ⪯ partial order). The source table, if any, carries
// over.
func (bz *Bucketization) Merge(i, j int) (*Bucketization, error) {
	if i == j || i < 0 || j < 0 || i >= len(bz.Buckets) || j >= len(bz.Buckets) {
		return nil, fmt.Errorf("bucket: cannot merge buckets %d and %d of %d", i, j, len(bz.Buckets))
	}
	if j < i {
		i, j = j, i
	}
	out := &Bucketization{Source: bz.Source}
	for k, b := range bz.Buckets {
		if k == j {
			continue
		}
		if k != i {
			out.Buckets = append(out.Buckets, b)
			continue
		}
		a, c := bz.Buckets[i], bz.Buckets[j]
		counts := make(map[string]int, len(a.freq)+len(c.freq))
		for _, vc := range a.freq {
			counts[vc.Value] += vc.Count
		}
		for _, vc := range c.freq {
			counts[vc.Value] += vc.Count
		}
		tuples := make([]int, 0, a.size+c.size)
		tuples = append(tuples, a.Tuples()...)
		tuples = append(tuples, c.Tuples()...)
		merged := newBucket(a.Key+"+"+c.Key, tuples, counts)
		if a.scounts != nil && c.scounts != nil && len(a.scounts) == len(c.scounts) {
			merged.scounts = make([]int32, len(a.scounts))
			for v := range a.scounts {
				merged.scounts[v] = a.scounts[v] + c.scounts[v]
			}
		}
		out.Buckets = append(out.Buckets, merged)
	}
	return out, nil
}

// Size returns the total number of tuples across all buckets.
func (bz *Bucketization) Size() int {
	n := 0
	for _, b := range bz.Buckets {
		n += b.Size()
	}
	return n
}

// BucketOf returns the index of the bucket containing tuple (person) id, or
// -1 if absent.
func (bz *Bucketization) BucketOf(id int) int {
	for i, b := range bz.Buckets {
		for _, t := range b.Tuples() {
			if t == id {
				return i
			}
		}
	}
	return -1
}

// Publish materializes the sanitized release: for each bucket, the tuples'
// non-sensitive attributes together with an independently random permutation
// of the bucket's sensitive values (the paper's Figure 3 form). The first
// output column is the bucket key. Publish requires a Source table.
func (bz *Bucketization) Publish(rng *rand.Rand) ([][]string, error) {
	if bz.Source == nil {
		return nil, fmt.Errorf("bucket: Publish needs a source table")
	}
	t := bz.Source
	qi := t.Schema.QuasiIdentifiers()
	var out [][]string
	for _, b := range bz.Buckets {
		vals := make([]string, 0, b.Size())
		tuples := b.Tuples()
		for _, id := range tuples {
			vals = append(vals, t.SensitiveValue(id))
		}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		for i, id := range tuples {
			row := make([]string, 0, len(qi)+2)
			row = append(row, b.Key)
			for _, col := range qi {
				row = append(row, t.Value(id, col))
			}
			row = append(row, vals[i])
			out = append(out, row)
		}
	}
	return out, nil
}
