package core

import (
	"sync"
	"sync/atomic"

	"ckprivacy/internal/bucket"
)

// DefaultMemoMaxBytes is the default capacity bound of an Engine's
// MINIMIZE1 memo: roughly 64 MiB of accounted entry bytes. A memoized
// histogram and its series cost on the order of 150–300 bytes, so the
// default holds a few hundred thousand distinct histograms — far more than
// any one dataset's lattice produces, while keeping a long-lived daemon
// serving an open-ended stream of datasets at a bounded resident size.
const DefaultMemoMaxBytes = 64 << 20

// defaultMemoShards is the default shard count. Must be a power of two so
// the shard index is a mask of the key fingerprint.
const defaultMemoShards = 32

// EngineConfig tunes an Engine's memo.
type EngineConfig struct {
	// MemoMaxBytes bounds the total accounted size of memoized MINIMIZE1
	// series across all shards. Zero means DefaultMemoMaxBytes; a negative
	// value disables the bound entirely (the pre-bound behavior, useful for
	// one-shot batch runs and A/B tests).
	MemoMaxBytes int64
	// Shards is the shard count, rounded up to a power of two. Zero means
	// defaultMemoShards. More shards cut lock contention at a small fixed
	// memory cost.
	Shards int
}

// Engine computes maximum disclosure, memoizing MINIMIZE1 by bucket
// histogram. A histogram's entry holds its MINIMIZE1 series — the values
// for every atom count j = 0..maxJ — for the largest maxJ computed so far.
// No DP state depends on the table size, so a shorter request is answered
// by a prefix that is bit-identical to computing it alone, and a longer one
// replaces the series. A disclosure call fetches one series per bucket
// before its MINIMIZE2 pass. Buckets with equal sensitive-value histograms
// share all DP state, and the cache persists across calls, implementing the
// paper's §3.3.3 remark about incremental recomputation when
// bucketizations share buckets (as the Figure 6 sweep over 72
// generalizations heavily does).
//
// The memo is sharded N ways and keyed by a 64-bit FNV-1a fingerprint of
// the histogram — the hot path never materializes signature strings. Each
// shard is byte-accounted against a per-shard slice of MemoMaxBytes and
// evicted with a CLOCK second-chance policy, so a long-lived engine serving
// many datasets plateaus instead of leaking. Fingerprint hits verify the
// stored histogram, so a (cryptographically unlikely) 64-bit collision
// degrades to an uncached computation, never a wrong value.
//
// An Engine is safe for concurrent use. Workers racing on the same missing
// series deduplicate in flight: the first computes, the rest wait and share
// the result, so each series is computed (and counted as a miss) exactly
// once.
type Engine struct {
	shards    []memoShard
	shardMask uint64
	// perShardMax is the byte budget of one shard; <= 0 means unbounded.
	perShardMax int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// memoEntry is one histogram's memo slot. It enters its shard's map when
// the first lookup of the histogram misses, and the CLOCK ring once its
// first series is stored. The key is immutable; val, pending and ready are
// guarded by the shard lock; ref is atomic so the hit path can set it under
// the read lock.
type memoEntry struct {
	fp   uint64
	hist []int // owned copy of the key histogram, for collision verification
	// val is the longest MINIMIZE1 series computed for hist, val[j] for
	// j = 0..len(val)-1, or nil before the first one lands. A longer
	// series replaces it; a stored series is never modified.
	val []float64
	ref atomic.Bool // CLOCK second-chance bit, set on every hit

	// pending marks a series computation in flight for hist. Lookups that
	// need it wait on ready, which the first of them creates and the
	// computation closes when it ends — stored or panicked — so an
	// uncontended miss allocates no channel. Woken waiters look again, and
	// after a panic the first of them computes (and panics) for itself,
	// which confines the panic per caller as the pre-dedup memo did.
	pending bool
	ready   chan struct{}
}

// memoEntryOverhead approximates the fixed per-entry heap cost beyond the
// two slices: the entry struct, its map bucket share and its ring slot.
const memoEntryOverhead = 96

// entryCost is the accounted size of an entry holding a histogram of
// histLen values and a series of valLen values.
func entryCost(histLen, valLen int) int64 {
	return memoEntryOverhead + int64(histLen+valLen)*8
}

func (me *memoEntry) cost() int64 { return entryCost(len(me.hist), len(me.val)) }

func (me *memoEntry) matches(hist []int) bool {
	if len(me.hist) != len(hist) {
		return false
	}
	for i := range hist {
		if me.hist[i] != hist[i] {
			return false
		}
	}
	return true
}

// memoShard is one lock domain of the memo: a flat fingerprint-keyed map
// of entries and a CLOCK ring over those holding a series. Hits take only
// the read lock (the CLOCK bit is atomic), so concurrent workers hammering
// the same hot entries — the level-wise searches' steady state — never
// serialize; misses, stores and eviction take the write lock.
type memoShard struct {
	mu      sync.RWMutex
	entries map[uint64]*memoEntry
	ring    []*memoEntry
	hand    int

	// bytes/count are atomics so Stats and CacheSize read them without
	// taking the shard lock (a /metrics scrape must not stall DP workers).
	bytes atomic.Int64
	count atomic.Int64
}

// NewEngine returns an empty engine with the default memo bound.
func NewEngine() *Engine {
	return NewEngineWithConfig(EngineConfig{})
}

// NewEngineWithConfig returns an empty engine with the given memo bound and
// shard count.
func NewEngineWithConfig(cfg EngineConfig) *Engine {
	shards := cfg.Shards
	if shards <= 0 {
		shards = defaultMemoShards
	}
	// Round up to a power of two for mask indexing.
	n := 1
	for n < shards {
		n <<= 1
	}
	maxBytes := cfg.MemoMaxBytes
	if maxBytes == 0 {
		maxBytes = DefaultMemoMaxBytes
	}
	e := &Engine{
		shards:    make([]memoShard, n),
		shardMask: uint64(n - 1),
	}
	if maxBytes > 0 {
		e.perShardMax = maxBytes / int64(n)
		if e.perShardMax < 1 {
			e.perShardMax = 1
		}
	}
	for i := range e.shards {
		e.shards[i].entries = make(map[uint64]*memoEntry)
	}
	return e
}

// fingerprint hashes a histogram FNV-1a style over whole 64-bit words — its
// length, then each count — so histograms of different lengths or counts
// can never alias by concatenation. A MurmurHash3 finalizer spreads every
// input bit into the low bits that pick the shard.
func fingerprint(hist []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := (uint64(offset64) ^ uint64(len(hist))) * prime64
	for _, c := range hist {
		h = (h ^ uint64(c)) * prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// CacheStats is a point-in-time snapshot of memo effectiveness and
// residency; the serving layer exports it on /metrics.
type CacheStats struct {
	// Hits counts MINIMIZE1 series lookups answered from the memo —
	// including lookups that waited on another worker's in-flight
	// computation. A disclosure call makes one lookup per bucket.
	Hits uint64
	// Misses counts lookups that had to run the DP: a histogram's first
	// lookup, and a lookup longer than its resident series. With in-flight
	// deduplication each series is computed, and counted, once.
	Misses uint64
	// Evictions counts entries dropped by the CLOCK policy to stay under
	// the configured byte bound.
	Evictions uint64
	// Bytes is the accounted resident size of the memo.
	Bytes int64
	// Entries is the number of resident memo entries, one per distinct
	// histogram.
	Entries int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// series returns the MINIMIZE1 series of hist for atom counts 0..maxJ from
// the memo, computing, caching and deduplicating as needed. The returned
// slice is shared with the memo and must not be modified.
func (e *Engine) series(hist []int, maxJ int) []float64 {
	fp := fingerprint(hist)
	s := &e.shards[fp&e.shardMask]

	// Fast path: a resident hit needs only the read lock.
	s.mu.RLock()
	me := s.entries[fp]
	var val []float64
	if me != nil {
		val = me.val
	}
	s.mu.RUnlock()
	if me != nil && !me.matches(hist) {
		// A true 64-bit fingerprint collision: compute uncached rather than
		// thrash the resident entry.
		e.misses.Add(1)
		return m1Series(hist, maxJ)
	}
	if len(val) > maxJ {
		return e.hit(me, val[:maxJ+1:maxJ+1])
	}
	return e.seriesSlow(s, fp, hist, maxJ)
}

// seriesSlow is series after the read-locked probe found no series long
// enough. Under the write lock it either computes the series itself,
// publishing the computation so later lookups wait for it, or waits for
// the computation in flight and looks again.
func (e *Engine) seriesSlow(s *memoShard, fp uint64, hist []int, maxJ int) []float64 {
	s.mu.Lock()
	for {
		me := s.entries[fp]
		if me == nil {
			me = &memoEntry{fp: fp, hist: append([]int(nil), hist...)}
			s.entries[fp] = me
		} else if !me.matches(hist) {
			s.mu.Unlock()
			e.misses.Add(1)
			return m1Series(hist, maxJ)
		}
		if val := me.val; len(val) > maxJ {
			s.mu.Unlock()
			return e.hit(me, val[:maxJ+1:maxJ+1])
		}
		if !me.pending {
			me.pending = true
			s.mu.Unlock()
			return e.fill(s, me, maxJ)
		}
		if me.ready == nil {
			me.ready = make(chan struct{})
		}
		ready := me.ready
		s.mu.Unlock()
		<-ready
		s.mu.Lock()
	}
}

// hit counts a lookup answered from the memo and gives the entry its
// CLOCK second chance. The bit is only written when clear, so concurrent
// hits on a hot entry do not contend on its cache line.
func (e *Engine) hit(me *memoEntry, val []float64) []float64 {
	if !me.ref.Load() {
		me.ref.Store(true)
	}
	e.hits.Add(1)
	return val
}

// fill runs the computation the caller just marked pending on me and
// stores its series. The completion is deferred so a panic in the DP (or
// in storeLocked) can never strand the pending mark, its waiters or the
// shard lock: the shard would otherwise wedge every worker hashing to it.
func (e *Engine) fill(s *memoShard, me *memoEntry, maxJ int) []float64 {
	e.misses.Add(1)
	var val []float64
	defer func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		me.pending = false
		if me.ready != nil {
			defer close(me.ready)
			me.ready = nil
		}
		if val == nil {
			if me.val == nil && s.entries[me.fp] == me {
				delete(s.entries, me.fp)
			}
			return
		}
		e.storeLocked(s, me, val)
	}()
	val = m1Series(me.hist, maxJ)
	return val
}

// storeLocked records a computed series on its entry: the first series
// admits the entry to the CLOCK ring, and a later one — always longer,
// since a computation starts only when the resident series is too short
// and only one runs per entry — replaces it and is re-accounted. CLOCK
// then evicts until the shard fits its budget. The caller holds s.mu. An
// entry evicted or reset meanwhile stays out, and a series larger than a
// whole shard's budget is not stored — it would evict everything and then
// itself.
func (e *Engine) storeLocked(s *memoShard, me *memoEntry, val []float64) {
	if s.entries[me.fp] != me {
		return
	}
	if e.perShardMax > 0 && entryCost(len(me.hist), len(val)) > e.perShardMax {
		if me.val == nil {
			delete(s.entries, me.fp)
		}
		return
	}
	if me.val == nil {
		s.ring = append(s.ring, me)
		s.count.Add(1)
	} else {
		s.bytes.Add(-me.cost())
	}
	me.val = val
	me.ref.Store(true)
	s.bytes.Add(me.cost())
	for e.perShardMax > 0 && s.bytes.Load() > e.perShardMax && len(s.ring) > 0 {
		e.evictOneLocked(s)
	}
}

// evictOneLocked advances the CLOCK hand, clearing second-chance bits,
// until it drops one entry. The caller holds s.mu and guarantees the ring
// is non-empty.
func (e *Engine) evictOneLocked(s *memoShard) {
	for {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		me := s.ring[s.hand]
		if me.ref.Load() {
			me.ref.Store(false)
			s.hand++
			continue
		}
		last := len(s.ring) - 1
		s.ring[s.hand] = s.ring[last]
		s.ring[last] = nil
		s.ring = s.ring[:last]
		delete(s.entries, me.fp)
		s.bytes.Add(-me.cost())
		s.count.Add(-1)
		e.evictions.Add(1)
		return
	}
}

// CacheSize reports the number of distinct histograms whose series are
// resident in the memo. It reads per-shard atomic counters and never takes
// a shard lock, so a metrics scrape cannot stall DP workers.
func (e *Engine) CacheSize() int {
	n := int64(0)
	for i := range e.shards {
		n += e.shards[i].count.Load()
	}
	return int(n)
}

// Stats snapshots the memo's counters and residency gauges without taking
// any shard lock.
func (e *Engine) Stats() CacheStats {
	st := CacheStats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Evictions: e.evictions.Load(),
	}
	for i := range e.shards {
		st.Bytes += e.shards[i].bytes.Load()
		st.Entries += int(e.shards[i].count.Load())
	}
	return st
}

// Reset drops all memoized state and zeroes every counter.
func (e *Engine) Reset() {
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		s.entries = make(map[uint64]*memoEntry)
		s.ring = nil
		s.hand = 0
		s.bytes.Store(0)
		s.count.Store(0)
		s.mu.Unlock()
	}
	e.hits.Store(0)
	e.misses.Store(0)
	e.evictions.Store(0)
}

// bucketView caches per-run bucket state (histogram, sizes) so the DP's
// inner loops touch plain slices only — no signature strings are built
// anywhere on the disclosure path.
type bucketView struct {
	hist  []int
	n     int
	top   int
	index int
	b     *bucket.Bucket
}

func makeViews(bz *bucket.Bucketization) []bucketView {
	views := make([]bucketView, len(bz.Buckets))
	for i, b := range bz.Buckets {
		views[i] = bucketView{
			hist:  b.Histogram(),
			n:     b.Size(),
			top:   b.TopCount(),
			index: i,
			b:     b,
		}
	}
	return views
}
