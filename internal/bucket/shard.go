package bucket

import (
	"sync"

	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/parallel"
	"ckprivacy/internal/table"
)

// This file is the row-sharded path of bucketization: the encoded table's
// code columns are split into P contiguous row ranges, each range is
// grouped independently (on its own core when the pool can lend one), and
// the per-shard partial groups are merged key-by-key. Because shards are
// contiguous and processed in ascending order, each key's lowest row is
// the one its first shard saw, and row counts and dense sensitive
// histograms sum exactly — so the merged result is byte-identical to the
// single-threaded scan (the randomized parity tests in shard_test.go pin
// this at several shard counts, on both key paths). This is what turns
// bucketize from parallel-across-lattice-nodes into parallel-within-a-
// node, the axis that matters once a single table has millions of rows.

// scratch is one shard's reusable scan state: the grouping maps (cleared,
// not reallocated, between scans — map bucket growth is the dominant
// allocation of a scan), the byte-tuple key buffer, and a free list of
// dense sensitive histograms recycled from merged duplicate groups.
type scratch struct {
	by64  map[uint64]*egroup
	byStr map[string]*egroup
	buf   []byte
	free  [][]int32
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// getScratch returns a scratch with empty (but capacity-retaining) maps.
//
//ckvet:ignore poolleak ownership transfers to the caller: scanRange pairs every getScratch with a deferred scratchPool.Put
func getScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	if sc.by64 == nil {
		sc.by64 = make(map[uint64]*egroup)
	} else {
		clear(sc.by64)
	}
	if sc.byStr == nil {
		sc.byStr = make(map[string]*egroup)
	} else {
		clear(sc.byStr)
	}
	return sc
}

// newEgroup allocates a group like the package-level newEgroup, drawing
// dense histograms from the scratch's free list when one fits.
func (sc *scratch) newEgroup(low, scard int) *egroup {
	if scard <= maxDenseSensitive {
		for n := len(sc.free); n > 0; n = len(sc.free) {
			s := sc.free[n-1]
			sc.free = sc.free[:n-1]
			if cap(s) >= scard {
				s = s[:scard]
				clear(s)
				return &egroup{low: low, scounts: s}
			}
		}
	}
	return newEgroup(low, scard)
}

// releaseScounts returns merged-away dense histograms to the scratch pool
// for the next scan to reuse.
func releaseScounts(freed [][]int32) {
	if len(freed) == 0 {
		return
	}
	sc := scratchPool.Get().(*scratch)
	sc.free = append(sc.free, freed...)
	scratchPool.Put(sc)
}

// shardScan is one shard's grouping result: the groups in first-seen
// (row-scan) order plus, aligned index-for-index, the integer or
// byte-tuple key each group was bucketed under — what the merge phase
// matches groups across shards by.
type shardScan struct {
	groups []*egroup
	keys64 []uint64
	keysS  []string
}

// scanRange groups rows [lo, hi) of the encoded view. Exactly one key
// path is used, chosen by the caller for all shards at once (packable is
// a property of the dimensions, not of the rows).
func scanRange(dims []dim, sens []uint32, scard int, packed bool, lo, hi int) shardScan {
	sc := getScratch()
	defer scratchPool.Put(sc)
	var res shardScan
	if packed {
		by := sc.by64
		for row := lo; row < hi; row++ {
			key := packKey(dims, row)
			g := by[key]
			if g == nil {
				g = sc.newEgroup(row, scard)
				by[key] = g
				res.groups = append(res.groups, g)
				res.keys64 = append(res.keys64, key)
			}
			g.addRow(row, sens)
		}
		return res
	}
	if cap(sc.buf) < 4*len(dims) {
		sc.buf = make([]byte, 4*len(dims))
	}
	buf := sc.buf[:4*len(dims)]
	by := sc.byStr
	for row := lo; row < hi; row++ {
		appendTupleKey(dims, row, buf)
		g := by[string(buf)]
		if g == nil {
			g = sc.newEgroup(row, scard)
			by[string(buf)] = g
			res.groups = append(res.groups, g)
			res.keysS = append(res.keysS, string(buf))
		}
		g.addRow(row, sens)
	}
	return res
}

// mergeShards folds the per-shard partial groups into one global group
// set. Shards are processed in ascending row order, so the first shard
// holding a key contributes the globally lowest row. Dense histograms
// sum slice-to-slice (every shard allocated them over the same sensitive
// code space); sparse ones merge map-to-map. Histograms of merged-away
// duplicates are recycled.
func mergeShards(parts []shardScan, packed bool) []*egroup {
	if len(parts) == 1 {
		return parts[0].groups
	}
	var (
		groups []*egroup
		freed  [][]int32
	)
	fold := func(dst, g *egroup) {
		dst.n += g.n
		if dst.scounts != nil {
			for v, n := range g.scounts {
				dst.scounts[v] += n
			}
			freed = append(freed, g.scounts)
			return
		}
		for v, n := range g.sparse {
			dst.sparse[v] += n
		}
	}
	if packed {
		by := make(map[uint64]*egroup)
		for _, part := range parts {
			for gi, g := range part.groups {
				key := part.keys64[gi]
				if dst := by[key]; dst != nil {
					fold(dst, g)
					continue
				}
				by[key] = g
				groups = append(groups, g)
			}
		}
	} else {
		by := make(map[string]*egroup)
		for _, part := range parts {
			for gi, g := range part.groups {
				key := part.keysS[gi]
				if dst := by[key]; dst != nil {
					fold(dst, g)
					continue
				}
				by[key] = g
				groups = append(groups, g)
			}
		}
	}
	releaseScounts(freed)
	return groups
}

// FromGeneralizationEncodedSharded is FromGeneralizationEncoded with the
// row scan split into `shards` contiguous ranges, scanned concurrently on
// the pool (each shard on its own core when the pool can lend one; a nil
// or saturated pool scans shards on the calling goroutine) and merged.
// The result is byte-identical to the single-threaded scan — keys, bucket
// order, tuple order, histograms — at every shard count and on both key
// paths; shards <= 1 is exactly the single-threaded scan. The returned
// buckets carry their dense code-space histograms like the single scan's,
// so Coarsen and AppendRows compose with sharded-built bucketizations
// unchanged.
func FromGeneralizationEncodedSharded(enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels, shards int, pool *parallel.Pool) (*Bucketization, error) {
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return nil, err
	}
	rows := enc.Rows()
	if shards < 1 {
		shards = 1
	}
	if shards > rows {
		shards = rows
	}
	if shards == 0 {
		shards = 1 // empty table: one (empty) scan keeps the shape uniform
	}
	sens := enc.SensitiveCol()
	scard := enc.SensitiveDict().Len()
	packed := packable(dims)
	parts := make([]shardScan, shards)
	err = pool.ForEach(shards, func(i int) error {
		lo, hi := rows*i/shards, rows*(i+1)/shards
		parts[i] = scanRange(dims, sens, scard, packed, lo, hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return finishGroups(enc, dims, packed, mergeShards(parts, packed)), nil
}

// scanRows is the shared row-list source of a set of buckets over rows
// [0, rows): the buckets of one scan, or those one append rebuilt or
// created. It keeps what the rows were keyed by, plus each bucket's lowest
// row and slab offset, and builds every list on the first request: fill
// re-keys the rows once and scatters those of its buckets' keys into one
// exact-size slab, whose sections are the buckets' lists in ascending row
// order. It reads only its first `rows` rows, through the column views
// and LUTs of its construction; appends neither rewrite those rows nor
// the codes they hold, so a fill after later appends gives the same
// answer.
type scanRows struct {
	once   sync.Once
	dims   []dim
	packed bool
	rows   int
	lows   []int // bucket i's lowest row, keying it
	offs   []int // bucket i's list is slab[offs[i]:offs[i+1]]
	slab   []int
}

// fill builds the slab; it runs once, under once.
func (s *scanRows) fill() {
	cur := make([]int, len(s.lows))
	copy(cur, s.offs)
	slab := make([]int, s.offs[len(s.lows)])
	if s.packed {
		index := make(map[uint64]int, len(s.lows))
		for i, low := range s.lows {
			index[packKey(s.dims, low)] = i
		}
		for row := 0; row < s.rows; row++ {
			if i, ok := index[packKey(s.dims, row)]; ok {
				slab[cur[i]] = row
				cur[i]++
			}
		}
	} else {
		index := make(map[string]int, len(s.lows))
		buf := make([]byte, 4*len(s.dims))
		for i, low := range s.lows {
			appendTupleKey(s.dims, low, buf)
			index[string(buf)] = i
		}
		for row := 0; row < s.rows; row++ {
			appendTupleKey(s.dims, row, buf)
			if i, ok := index[string(buf)]; ok {
				slab[cur[i]] = row
				cur[i]++
			}
		}
	}
	s.slab = slab
	s.dims, s.lows, s.offs = nil, nil, nil
}
