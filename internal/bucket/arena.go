package bucket

import (
	"sort"
	"sync"
	"sync/atomic"

	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/table"
)

// This file is the batch-aware coarsening path the sweep planner executes
// on: CoarsenInto derives a coarser bucketization from a finer one like
// Coarsen, but merges into caller-provided scratch drawn from a pooled
// Arena and precomputes every output size from the source bucketization,
// so a planned sweep materializing dozens of lattice nodes allocates each
// histogram slab exactly once and reuses its grouping maps, cursors,
// permutation and key buffers across the nodes of a frontier slot.
//
// The output contract is Coarsen's, byte for byte: same keys, same bucket
// order, same tuple order, same frequency tables. Coarsening reads only
// per-bucket state — a fine bucket's size, lowest row and histogram — so
// its cost is O(fine buckets), never O(rows):
//
//   - groups that merge no fine buckets (one source bucket → one output
//     bucket) share the source bucket's frequency and histogram storage,
//     and its row list once built, under the re-decoded key;
//   - a merged group records the fine buckets it absorbs; its row list is
//     their lists' sorted union, derived on first use (Bucket.Tuples);
//   - dense sensitive histograms of all merged groups live in one slab
//     sized nGroups × cardinality up front.

// Arena is the pooled scratch of coarsening calls: grouping maps (cleared,
// not reallocated, between calls), the fine-bucket → group table, and the
// key / permutation / cursor buffers. An Arena is not safe for concurrent
// use; obtain one per goroutine with GetArena and return it with PutArena
// when the sweep slot is done. The zero value is ready to use.
type Arena struct {
	by64    map[uint64]int
	byStr   map[string]int
	buf     []byte   // byte-tuple key buffer (unpackable dimension sets)
	groups  []cgroup // per-call group table
	groupOf []int32  // fine-bucket index → group index (-1: empty bucket)
	cursor  []int
	keys    []string
	perm    []int
	parts   []string
}

// cgroup is the pass-one state of one coarse group: its lowest row, how
// many fine buckets and rows it absorbs, the offset of its fine buckets in
// the call's parts slab, and — for groups that actually merge — its
// dense-histogram slot.
type cgroup struct {
	low  int
	nb   int32
	rows int
	off  int
	mi   int32 // merged-group slot; -1 when the group is a single bucket
}

// arenaPool recycles Arenas across sweeps; arenaGets and arenaAllocs feed
// ArenaStats (reuses = gets − pool misses).
var (
	arenaPool   = sync.Pool{New: func() any { arenaAllocs.Add(1); return &Arena{} }}
	arenaGets   atomic.Uint64
	arenaAllocs atomic.Uint64
)

// GetArena returns a pooled Arena for a run of coarsening calls. Pair
// every GetArena with a PutArena when the holder is done (the poolleak
// analyzer enforces this at call sites like it does sync.Pool's own
// Get/Put).
//
//ckvet:ignore poolleak ownership transfers to the caller, which pairs GetArena with a deferred PutArena
func GetArena() *Arena {
	arenaGets.Add(1)
	return arenaPool.Get().(*Arena)
}

// PutArena returns an Arena to the pool. The caller must not use it
// afterwards.
func PutArena(ar *Arena) { arenaPool.Put(ar) }

// ArenaStats reports how many arenas were handed out and how many of those
// were pool reuses rather than fresh allocations — the sweep benchmarks
// export the reuse count and the serving layer graphs both on /metrics.
func ArenaStats() (gets, reuses uint64) {
	g, a := arenaGets.Load(), arenaAllocs.Load()
	if a > g { // a Get is counted before its pool miss; never report negative
		a = g
	}
	return g, g - a
}

// reset prepares the arena for one coarsening call over nFine source
// buckets and nDims dimensions.
func (ar *Arena) reset(nDims, nFine int) {
	if ar.by64 == nil {
		ar.by64 = make(map[uint64]int)
	} else {
		clear(ar.by64)
	}
	if ar.byStr == nil {
		ar.byStr = make(map[string]int)
	} else {
		clear(ar.byStr)
	}
	if cap(ar.buf) < 4*nDims {
		ar.buf = make([]byte, 4*nDims)
	}
	if cap(ar.groupOf) < nFine {
		ar.groupOf = make([]int32, nFine)
	}
	ar.groupOf = ar.groupOf[:nFine]
	if cap(ar.parts) < nDims {
		ar.parts = make([]string, nDims)
	}
	ar.parts = ar.parts[:nDims]
}

// buffers returns the per-group cursor, key and permutation scratch sized
// for n groups.
func (ar *Arena) buffers(n int) (cur []int, keys []string, perm []int) {
	if cap(ar.cursor) < n {
		ar.cursor = make([]int, n)
	}
	if cap(ar.keys) < n {
		ar.keys = make([]string, n)
	}
	if cap(ar.perm) < n {
		ar.perm = make([]int, n)
	}
	return ar.cursor[:n], ar.keys[:n], ar.perm[:n]
}

// CoarsenInto is Coarsen merging through a pooled Arena: byte-identical
// output, with the grouping maps and ordering buffers drawn from ar
// instead of allocated per call, an exact-size histogram slab, and
// storage shared from fine buckets that coarsen alone. A nil ar borrows
// one from the pool for the duration of the call. See Coarsen for the
// derivation's precondition and the byte-identity contract.
func CoarsenInto(fine *Bucketization, enc *table.Encoded, chs hierarchy.CompiledSet, levels Levels, ar *Arena) (*Bucketization, error) {
	if ar == nil {
		ar = GetArena()
		defer PutArena(ar)
	}
	dims, err := buildDims(enc, chs, levels)
	if err != nil {
		return nil, err
	}
	sens := enc.SensitiveCol()
	sdict := enc.SensitiveDict()
	scard := sdict.Len()
	ar.reset(len(dims), len(fine.Buckets))

	// Pass 1: assign every non-empty fine bucket a coarse group through its
	// lowest row (the nested-coarsening law: all its rows generalize
	// identically), accumulating each group's bucket and row counts so
	// every output slab below is allocated at exact size.
	groups := ar.groups[:0]
	groupOf := ar.groupOf
	packed := packable(dims)
	buf := ar.buf[:4*len(dims)]
	nonEmpty := 0
	for fi, b := range fine.Buckets {
		if b.size == 0 {
			groupOf[fi] = -1
			continue
		}
		var gi int
		var ok bool
		if packed {
			key := packKey(dims, b.low)
			if gi, ok = ar.by64[key]; !ok {
				gi = len(groups)
				ar.by64[key] = gi
			}
		} else {
			appendTupleKey(dims, b.low, buf)
			if gi, ok = ar.byStr[string(buf)]; !ok {
				gi = len(groups)
				ar.byStr[string(buf)] = gi
			}
		}
		if !ok {
			groups = append(groups, cgroup{low: b.low, mi: -1})
		}
		g := &groups[gi]
		g.nb++
		g.rows += b.size
		g.low = min(g.low, b.low)
		groupOf[fi] = int32(gi)
		nonEmpty++
	}
	ar.groups = groups

	// Lay out every group's run of fine buckets in one parts slab, and give
	// each merged group (nb ≥ 2) a dense-histogram slot. Groups of one fine
	// bucket (mi = -1) share the source bucket's storage below.
	cur, keys, perm := ar.buffers(len(groups))
	nMerged, off := 0, 0
	for gi := range groups {
		g := &groups[gi]
		g.off, cur[gi] = off, off
		off += int(g.nb)
		if g.nb > 1 {
			g.mi = int32(nMerged)
			nMerged++
		}
	}
	partSlab := make([]*Bucket, nonEmpty)
	for fi, b := range fine.Buckets {
		if gi := groupOf[fi]; gi >= 0 {
			partSlab[cur[gi]] = b
			cur[gi]++
		}
	}

	dense := scard <= maxDenseSensitive
	var histSlab []int32
	var order []uint32
	if nMerged > 0 && dense {
		// Merged dense histograms: one slab, summed slice-to-slice from fine
		// histograms when they carry one (a histogram shorter than the
		// current code space is still exact — it predates an append, and
		// codes are never reassigned), recounted from rows otherwise.
		histSlab = make([]int32, nMerged*scard)
		for fi, b := range fine.Buckets {
			gi := groupOf[fi]
			if gi < 0 || groups[gi].mi < 0 {
				continue
			}
			mi := int(groups[gi].mi)
			hist := histSlab[mi*scard : (mi+1)*scard : (mi+1)*scard]
			if b.scounts != nil && len(b.scounts) <= scard {
				for v, n := range b.scounts {
					hist[v] += n
				}
			} else {
				for _, row := range b.Tuples() {
					hist[sens[row]]++
				}
			}
		}
		order = valueOrder(sdict)
	}

	// Decode the keys once per group and order the output; a monotone
	// re-key leaves the source order intact, in which case the sort is
	// skipped (keysAreSorted is the linear pre-check of finishGroups too).
	parts := ar.parts[:len(dims)]
	for gi := range groups {
		keys[gi] = keyString(dims, groups[gi].low, parts)
	}
	for i := range perm {
		perm[i] = i
	}
	if !keysAreSorted(keys) {
		sort.Slice(perm, func(i, j int) bool { return keys[perm[i]] < keys[perm[j]] })
	}

	bz := &Bucketization{Source: enc.Table, Buckets: make([]*Bucket, len(groups))}
	for oi, gi := range perm {
		g := &groups[gi]
		from := partSlab[g.off : g.off+int(g.nb) : g.off+int(g.nb)]
		if g.nb == 1 {
			bz.Buckets[oi] = rekeyBucket(keys[gi], from)
			continue
		}
		src := rowSource{parts: from}
		if dense {
			mi := int(g.mi)
			eg := egroup{low: g.low, n: g.rows, scounts: histSlab[mi*scard : (mi+1)*scard : (mi+1)*scard]}
			bz.Buckets[oi] = eg.bucket(keys[gi], src, order, sdict)
			continue
		}
		// Sparse histograms are not kept on buckets: merge the fine
		// buckets' decoded frequency tables.
		counts := make(map[string]int, 8)
		for _, b := range from {
			for _, vc := range b.freq {
				counts[vc.Value] += vc.Count
			}
		}
		bz.Buckets[oi] = derivedBucket(keys[gi], g.rows, g.low, src, table.SortCounts(counts), nil)
	}
	return bz, nil
}

// keysAreSorted reports whether keys are already in ascending order — the
// linear pre-check that lets coarsening and finishGroups skip their output
// sort when the re-key map is monotone in the source order.
func keysAreSorted(keys []string) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}
