package bucket

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// This file is the integer path of bucketization: it computes the exact
// same partition as FromGeneralization, but over a columnar Encoded view
// of the table and compiled hierarchies, so the per-row work is a handful
// of array indexes instead of map lookups and string joins. Per-row
// generalized codes are packed into a single uint64 group key when the
// per-dimension cardinalities fit 64 bits (multi-radix positional
// packing), falling back to a byte-tuple key otherwise — the fallback is
// exact, not a lossy hash, so both key paths group identically. Sensitive
// histograms are counted over the sensitive dictionary's code space and
// decoded to strings once per bucket. Rows are counted, not collected:
// each bucket's row list is derived on first use (Bucket.Tuples).
//
// Byte-identity contract (relied on by the randomized parity tests and by
// the lattice searches' caches): bucket keys, bucket order, tuple sets and
// orders, and sensitive histograms are identical to the string path's.

// CompileHierarchies compiles every hierarchy that names a column of the
// encoded table over that column's dictionary (in dictionary code order).
// Hierarchies for attributes the table lacks are skipped, matching the
// string path, which never consults them. Names compile in sorted order,
// so a set with several failing hierarchies always reports the same one.
func CompileHierarchies(enc *table.Encoded, hs hierarchy.Set) (hierarchy.CompiledSet, error) {
	chs := make(hierarchy.CompiledSet, len(hs))
	for _, name := range slices.Sorted(maps.Keys(hs)) {
		h := hs[name]
		col := enc.Table.Schema.Index(name)
		if col < 0 {
			continue
		}
		c, err := hierarchy.Compile(h, enc.Dicts[col].Values())
		if err != nil {
			return nil, fmt.Errorf("bucket: %w", err)
		}
		chs[name] = c
	}
	return chs, nil
}

// dim is one quasi-identifier dimension of an encoded grouping: the code
// column, the (optional) generalization LUT for the requested level, and
// the decoding hooks used to materialize bucket keys.
type dim struct {
	col   []uint32
	lut   []uint32 // nil at level 0 (identity over the dictionary)
	card  uint64   // generalized-code cardinality at the level
	level int
	comp  *hierarchy.Compiled // nil at level 0
	dict  *table.Dict
}

// value decodes row's generalized value string in this dimension.
func (d *dim) value(row int) string {
	c := d.col[row]
	if d.lut == nil {
		return d.dict.Value(c)
	}
	return d.comp.Value(d.level, d.lut[c])
}

// buildDims resolves the schema's quasi-identifiers at the given levels
// against the encoded view and the compiled hierarchies.
func buildDims(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) ([]dim, error) {
	s := enc.Table.Schema
	err := validateLevels(s, levels, func(name string) (int, bool) {
		c, ok := chs[name]
		if !ok {
			return 0, false
		}
		return c.Levels(), true
	})
	if err != nil {
		return nil, err
	}
	qi := s.QuasiIdentifiers()
	dims := make([]dim, len(qi))
	for i, col := range qi {
		name := s.Attrs[col].Name
		lvl := levels[name]
		d := dim{col: enc.Cols[col], level: lvl, dict: enc.Dicts[col]}
		if lvl != 0 {
			c, ok := chs[name]
			if !ok {
				return nil, fmt.Errorf("bucket: no hierarchy for attribute %q", name)
			}
			if covered := len(c.Lut(0)); covered < enc.Dicts[col].Len() {
				// The dictionary grew past the compiled domain (an append
				// without a matching Compiled.Extend); indexing the stale
				// LUT would run off its end.
				return nil, fmt.Errorf(
					"bucket: compiled hierarchy for %q covers %d of %d dictionary values; extend it after appends",
					name, covered, enc.Dicts[col].Len())
			}
			d.lut = c.Lut(lvl)
			d.card = uint64(c.Cardinality(lvl))
			d.comp = c
		} else {
			d.card = uint64(enc.Dicts[col].Len())
		}
		dims[i] = d
	}
	return dims, nil
}

// packable reports whether the dimensions' generalized-code product fits a
// uint64, i.e. whether positional multi-radix packing is collision-free.
func packable(dims []dim) bool {
	prod := uint64(1)
	for _, d := range dims {
		if d.card == 0 {
			return true // empty table; no keys will be built
		}
		if prod > ^uint64(0)/d.card {
			return false
		}
		prod *= d.card
	}
	return true
}

// packKey builds the multi-radix packed key of one row.
func packKey(dims []dim, row int) uint64 {
	key := uint64(0)
	for i := range dims {
		d := &dims[i]
		c := d.col[row]
		if d.lut != nil {
			c = d.lut[c]
		}
		key = key*d.card + uint64(c)
	}
	return key
}

// appendTupleKey serializes one row's generalized code tuple into buf
// (the exact fallback when packing would overflow).
func appendTupleKey(dims []dim, row int, buf []byte) {
	for i := range dims {
		d := &dims[i]
		c := d.col[row]
		if d.lut != nil {
			c = d.lut[c]
		}
		binary.BigEndian.PutUint32(buf[4*i:], c)
	}
}

// maxDenseSensitive bounds the sensitive cardinality up to which
// per-group histograms are dense []int32 slices over the code space.
// Above it (e.g. a near-unique sensitive column), dense slices would cost
// O(buckets × cardinality) memory — quadratic at fine lattice nodes where
// buckets ≈ rows — so groups fall back to sparse maps, keeping the total
// O(rows) like the string path.
const maxDenseSensitive = 256

// egroup accumulates one bucket of the encoded grouping: a row count, the
// lowest row and the sensitive histogram. Exactly one of scounts (dense)
// or sparse is non-nil, chosen by sensitive cardinality. Rows are counted,
// not collected; the bucket's row list is derived on demand (bucket.go).
type egroup struct {
	low     int // lowest row; every member generalizes like it
	n       int
	scounts []int32
	sparse  map[uint32]int32
}

// newEgroup allocates a group with the histogram representation suited to
// the sensitive code space.
func newEgroup(low, scard int) *egroup {
	g := &egroup{low: low}
	if scard <= maxDenseSensitive {
		g.scounts = make([]int32, scard)
	} else {
		g.sparse = make(map[uint32]int32, 4)
	}
	return g
}

// addRow counts one row into the group.
func (g *egroup) addRow(row int, sens []uint32) {
	g.n++
	if g.scounts != nil {
		g.scounts[sens[row]]++
	} else {
		g.sparse[sens[row]]++
	}
}

// keyString materializes the bucket key of a group from its
// representative row — the same "v1|v2|…" string the legacy path builds
// per row, built here once per bucket.
func keyString(dims []dim, row int, parts []string) string {
	for i := range dims {
		parts[i] = dims[i].value(row)
	}
	return strings.Join(parts, "|")
}

// valueOrder returns the sensitive dictionary's codes in ascending order
// of their value strings, or nil when histograms over it are sparse. A
// call that finalizes many dense groups computes it once, so each group's
// histogram sorts by integer counts alone.
func valueOrder(sdict *table.Dict) []uint32 {
	if sdict.Len() > maxDenseSensitive {
		return nil
	}
	vals := sdict.Values()
	order := make([]uint32, len(vals))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(vals[a], vals[b]) })
	return order
}

// bucket finalizes the group into a Bucket whose row list comes from src,
// decoding value strings through the sensitive dictionary. The order
// matches table.SortCounts (count desc, value asc), so the freq slice is
// byte-identical to the string path's: a dense histogram is read in
// value order (order, from valueOrder) and then stably sorted by count;
// dictionary values are distinct, so the tie order is the string order.
// Dense groups keep their code histogram on the bucket for later
// coarsening; sparse ones drop it (coarsening merges their freq slices).
func (g *egroup) bucket(key string, src rowSource, order []uint32, sdict *table.Dict) *Bucket {
	var freq []table.ValueCount
	if g.scounts != nil {
		distinct := 0
		for _, n := range g.scounts {
			if n > 0 {
				distinct++
			}
		}
		freq = make([]table.ValueCount, 0, distinct)
		for _, code := range order {
			if n := g.scounts[code]; n > 0 {
				freq = append(freq, table.ValueCount{Value: sdict.Value(code), Count: int(n)})
			}
		}
		slices.SortStableFunc(freq, func(a, b table.ValueCount) int { return b.Count - a.Count })
	} else {
		freq = make([]table.ValueCount, 0, len(g.sparse))
		for code, n := range g.sparse {
			freq = append(freq, table.ValueCount{Value: sdict.Value(code), Count: int(n)})
		}
		slices.SortFunc(freq, func(a, b table.ValueCount) int {
			if a.Count != b.Count {
				return b.Count - a.Count
			}
			return strings.Compare(a.Value, b.Value)
		})
	}
	return derivedBucket(key, g.n, g.low, src, freq, g.scounts)
}

// finishGroups materializes and orders the buckets of an encoded
// grouping of all rows: keys decoded once per group, groups sorted by key
// exactly as the string path sorts. The buckets share one scanRows source
// over the same rows and dims, which derives their row lists.
func finishGroups(enc *table.Encoded, dims []dim, packed bool, groups []*egroup) *Bucketization {
	type keyed struct {
		key string
		g   *egroup
	}
	ks := make([]keyed, len(groups))
	parts := make([]string, len(dims))
	sorted := true
	for i, g := range groups {
		ks[i] = keyed{keyString(dims, g.low, parts), g}
		if i > 0 && ks[i].key < ks[i-1].key {
			sorted = false
		}
	}
	// Groups already in key order (common when the scan order is the key
	// order, e.g. a sorted table) skip the sort outright.
	if !sorted {
		sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	}
	src := &scanRows{dims: dims, packed: packed, rows: enc.Rows(), lows: make([]int, len(ks)), offs: make([]int, len(ks)+1)}
	bz := &Bucketization{Source: enc.Table}
	bz.Buckets = make([]*Bucket, len(ks))
	sdict := enc.SensitiveDict()
	order := valueOrder(sdict)
	for i, k := range ks {
		src.lows[i] = k.g.low
		src.offs[i+1] = src.offs[i] + k.g.n
		bz.Buckets[i] = k.g.bucket(k.key, rowSource{scan: src, off: src.offs[i]}, order, sdict)
	}
	return bz
}

// FromGeneralizationEncoded is FromGeneralization over the encoded view:
// the same partition, keys, tuple order and histograms, computed with one
// LUT index per row and dimension instead of per-row map lookups and
// string joins. It is the one-shard case of the row-sharded scan in
// shard.go, which is the single scan-loop implementation for every shard
// count.
func FromGeneralizationEncoded(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) (*Bucketization, error) {
	return FromGeneralizationEncodedSharded(enc, chs, levels, 1, nil)
}

// Coarsen derives the bucketization at the given levels from an
// already-materialized finer bucketization of the same encoded table,
// without rescanning the rows: every fine bucket is re-keyed through its
// lowest row (the hierarchies' nested-coarsening law guarantees all its
// rows generalize identically), fine buckets with equal coarse keys are
// merged, and their sensitive code histograms are summed. A merged
// bucket's row list is derived from its fine buckets' on first use
// (Bucket.Tuples), so the cost is proportional to the number of fine
// buckets, not the number of rows — this is what makes lattice-wide
// sweeps cheap after the first scan.
//
// Precondition: fine partitions enc.Table at levels that are
// component-wise ≤ the requested levels (on every schema QI attribute).
// The result is then byte-identical to FromGeneralizationEncoded at the
// requested levels.
//
// Coarsen is the one-shot form of CoarsenInto (arena.go): it borrows a
// pooled Arena for the duration of the call. Sweeps that coarsen many
// nodes in a row should hold an Arena across the calls instead.
func Coarsen(fine *Bucketization, enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels) (*Bucketization, error) {
	return CoarsenInto(fine, enc, chs, levels, nil)
}
