package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/parallel"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/table"
)

// levelsFor turns a lattice node into the per-attribute levels the bucket
// layer takes. Schema quasi-identifiers outside qi are suppressed, as the
// anonymize layer does.
func levelsFor(schema *table.Schema, hs hierarchy.Set, qi []string, node lattice.Node) bucket.Levels {
	lv := bucket.Levels{}
	for _, col := range schema.QuasiIdentifiers() {
		name := schema.Attrs[col].Name
		if h, ok := hs[name]; ok {
			lv[name] = h.Levels() - 1
		}
	}
	for i, name := range qi {
		lv[name] = node[i]
	}
	return lv
}

// spaceOf is the generalization lattice of the given hierarchies.
func spaceOf(hs hierarchy.Set, qi []string) (lattice.Space, error) {
	dims := make([]int, len(qi))
	for i, name := range qi {
		dims[i] = hs[name].Levels()
	}
	return lattice.NewSpace(dims)
}

// allocs reads the process's cumulative heap allocations.
func allocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// sweepCost is a planned sweep's wall time and heap allocations.
type sweepCost struct {
	dur     time.Duration
	objects uint64
	bytes   uint64
}

// measureSweep runs sweep and records its time and allocation deltas.
func measureSweep(sweep func() error) (sweepCost, error) {
	o0, b0 := allocs()
	t0 := time.Now()
	err := sweep()
	d := time.Since(t0)
	o1, b1 := allocs()
	return sweepCost{dur: d, objects: o1 - o0, bytes: b1 - b0}, err
}

// probeTotals accumulates timings of the bucket layer's public calls,
// made on traced runs outside any task's timing.
type probeTotals struct {
	scan, coarsen time.Duration
	n             int
}

// probe times the base row scan at the lattice bottom (split into
// shards), then derives every other node, level by level, with the calls
// a planned sweep makes: GetArena, CoarsenInto, PutArena. Each node
// coarsens from the derived node below it with the fewest buckets, the
// cheapest source, which the sweep planner's bucket-count prediction
// aims at.
func (pt *probeTotals) probe(enc *table.Encoded, chs hierarchy.CompiledSet, levels func(lattice.Node) bucket.Levels, space lattice.Space, shards int) error {
	var pool *parallel.Pool
	if shards > 1 {
		pool = parallel.NewPool(shards)
	}
	t0 := time.Now()
	base, err := bucket.FromGeneralizationEncodedSharded(enc, chs, levels(space.Bottom()), shards, pool)
	pt.scan += time.Since(t0)
	if err != nil {
		return err
	}
	type derived struct {
		node lattice.Node
		bz   *bucket.Bucketization
	}
	done := []derived{{space.Bottom(), base}}
	for _, level := range space.Levels()[1:] {
		var next []derived
		for _, n := range level {
			var src *bucket.Bucketization
			for _, d := range done {
				if lattice.Leq(d.node, n) && (src == nil || len(d.bz.Buckets) < len(src.Buckets)) {
					src = d.bz
				}
			}
			t0 := time.Now()
			ar := bucket.GetArena()
			bz, err := bucket.CoarsenInto(src, enc, chs, levels(n), ar)
			bucket.PutArena(ar)
			pt.coarsen += time.Since(t0)
			if err != nil {
				return err
			}
			next = append(next, derived{n, bz})
		}
		done = append(done, next...)
	}
	pt.n++
	return nil
}

// report sets the per-probe mean scan and coarsen times.
func (pt *probeTotals) report(r *report) {
	if pt.n == 0 {
		return
	}
	r.set("bucket.scan_s", "s", pt.scan.Seconds()/float64(pt.n))
	r.set("bucket.coarsen_s", "s", pt.coarsen.Seconds()/float64(pt.n))
}

// timedCriterion wraps a privacy criterion so every Satisfied call the
// lattice search makes is counted and, when tracing, recorded as a
// core.disclosure span under the search span.
type timedCriterion struct {
	privacy.Criterion
	tr     *tracer
	parent int
	task   int
	calls  *atomic.Int64
}

func (c timedCriterion) Satisfied(bz *bucket.Bucketization) (bool, error) {
	id := c.tr.begin("core.disclosure", c.parent, c.task)
	ok, err := c.Criterion.Satisfied(bz)
	c.tr.end(id)
	c.calls.Add(1)
	return ok, err
}

// taskCounters are the library counters one task moved.
type taskCounters struct {
	memo       core.CacheStats
	sweep      anonymize.SweepStats
	arenaGets  uint64
	arenaReuse uint64
}

// countersSince reads a task's counters: its engine's memo, its
// problem's sweep planner, and the arena pool's delta since gets0/reuse0.
func countersSince(eng *core.Engine, p *anonymize.Problem, gets0, reuse0 uint64) taskCounters {
	gets1, reuse1 := bucket.ArenaStats()
	return taskCounters{memo: eng.Stats(), sweep: p.SweepStats(), arenaGets: gets1 - gets0, arenaReuse: reuse1 - reuse0}
}

// taskLayers sets the per-layer metrics audit and sanitize share: span
// times of the encode, compile and disclosure calls and the counters,
// as means over the n traced tasks.
func taskLayers(r *report, spans []span, cs []taskCounters) {
	n := float64(len(cs))
	var hits, misses, bytes, pred, actual, gets, reuse float64
	for _, c := range cs {
		hits += float64(c.memo.Hits)
		misses += float64(c.memo.Misses)
		bytes += float64(c.memo.Bytes)
		pred += float64(c.sweep.PredictedBuckets)
		actual += float64(c.sweep.ActualBuckets)
		gets += float64(c.arenaGets)
		reuse += float64(c.arenaReuse)
	}
	self, tot := selfTimes(spans), totals(spans)
	r.set("table.encode_s", "s", tot["table.encode"].Seconds()/n)
	r.set("hierarchy.compile_s", "s", tot["hierarchy.compile"].Seconds()/n)
	r.set("core.disclosure_s", "s", self["core.disclosure"].Seconds()/n)
	r.set("core.memo_hits", "count", hits/n)
	r.set("core.memo_misses", "count", misses/n)
	r.set("core.memo_hit_ratio", "ratio", ratio(hits, hits+misses))
	r.set("core.memo_bytes", "bytes", bytes/n)
	r.set("anonymize.predicted_over_actual_buckets", "ratio", ratio(pred, actual))
	r.set("bucket.buckets_out", "count", actual/n)
	r.set("bucket.arena_reuse_ratio", "ratio", ratio(reuse, gets))
}
