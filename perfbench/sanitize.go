package main

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"sync/atomic"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/synth"
	"ckprivacy/internal/table"
)

// The sanitize workload is the paper's sanitization at census scale: each
// task encodes a synthetic census table, builds a fresh Problem with a
// worker and shard budget of one per CPU, and finds every minimal
// (c,k)-safe generalization with the Incognito search.

const (
	sanitizeC = 0.8
	sanitizeK = 1
	// sanitizeSetupReps is how many set-up repetitions run before the
	// first task; one more runs after each task.
	sanitizeSetupReps = 3
)

func sanitizeRows(tiny bool) int {
	if tiny {
		return 5000
	}
	return 1_000_000
}

// sanitizeInput is the generated table and its hierarchies.
type sanitizeInput struct {
	tab *table.Table
	hs  hierarchy.Set
	qi  []string
}

func (in sanitizeInput) problem(enc *table.Encoded, eng *core.Engine) (*anonymize.Problem, error) {
	procs := runtime.NumCPU()
	return anonymize.NewProblemFromEncoded(enc, in.hs, in.qi, 1, anonymize.Options{Workers: procs, ShardWorkers: procs, Engine: eng})
}

// sanitizeResult is one task's answer and what it cost.
type sanitizeResult struct {
	nodes    []lattice.Node
	stats    lattice.Stats
	evals    int64
	counters taskCounters
}

func runSanitize(ctx context.Context, e *env) (*report, error) {
	rows := sanitizeRows(e.tiny)
	r := newReport()
	r.sizes["rows"] = rows

	t0 := time.Now()
	cfg := synth.Config{Rows: rows, Seed: e.seed}
	gen, err := synth.New(cfg)
	if err != nil {
		return nil, err
	}
	tab, err := gen.Table()
	if err != nil {
		return nil, err
	}
	in := sanitizeInput{tab: tab, hs: synth.Hierarchies(cfg), qi: synth.QI()}
	r.set("input_s", "s", time.Since(t0).Seconds())

	// Set-up is building the analysis: encoding the table and compiling
	// the problem over it, as every task does first.
	setups := &setupTimer{step: func() error {
		_, err := in.problem(in.tab.Encode(), nil)
		return err
	}}
	if err := setups.run(sanitizeSetupReps); err != nil {
		return nil, err
	}

	// The reference answer, computed once: the MinimalSafe search on the
	// same table, checked in exact arithmetic.
	want, err := sanitizeReference(r, in)
	if err != nil {
		return nil, err
	}

	var results []sanitizeResult
	var pt probeTotals
	var sweeps []sweepCost
	times, err := loop(ctx, e, func(i int) error {
		res, err := sanitizeTask(e, in, i+1)
		if err != nil {
			return err
		}
		results = append(results, res)
		return nil
	}, func(_ int, traced bool) error {
		if traced {
			c, err := sanitizeProbe(&pt, in)
			if err != nil {
				return err
			}
			sweeps = append(sweeps, c)
		}
		return setups.run(1)
	})
	if err != nil {
		return nil, err
	}
	setups.report(r)
	r.attempted = len(results)
	r.set("sanitize_rows_per_s", "1/s", float64(rows*len(results))/taskSeconds(times))
	r.set("failed_frac", "ratio", 0)
	taskStats(r, times)

	if e.tamper {
		last := &results[len(results)-1]
		last.nodes = last.nodes[:len(last.nodes)-1]
	}
	for t, res := range results {
		if fmt.Sprint(res.nodes) != fmt.Sprint(want) {
			r.fail("sanitize: task %d found %v, reference MinimalSafe %v", t+1, res.nodes, want)
		}
	}
	if e.traced {
		sanitizeLayers(r, e, results, times, sweeps)
		pt.report(r)
	}
	return r, nil
}

// sanitizeTask is one sanitization: encode, compile, search.
func sanitizeTask(e *env, in sanitizeInput, task int) (sanitizeResult, error) {
	var res sanitizeResult
	tr := e.tr
	root := tr.begin("task", 0, task)
	defer tr.end(root)
	gets0, reuse0 := bucket.ArenaStats()

	id := tr.begin("table.encode", root, task)
	enc := in.tab.Encode()
	tr.end(id)

	eng := core.NewEngine()
	id = tr.begin("hierarchy.compile", root, task)
	p, err := in.problem(enc, eng)
	tr.end(id)
	if err != nil {
		return res, err
	}

	var calls atomic.Int64
	search := tr.begin("lattice.search", root, task)
	crit := timedCriterion{Criterion: privacy.CKSafety{C: sanitizeC, K: sanitizeK, Engine: eng}, tr: tr, parent: search, task: task, calls: &calls}
	res.nodes, res.stats, err = p.MinimalSafeIncognito(crit)
	tr.end(search)
	if err != nil {
		return res, err
	}
	res.evals = calls.Load()
	res.counters = countersSince(eng, p, gets0, reuse0)
	return res, nil
}

// sanitizeProbe times, outside any task, one planned sweep of the whole
// lattice on a fresh problem and the bucket layer's public calls.
func sanitizeProbe(pt *probeTotals, in sanitizeInput) (sweepCost, error) {
	enc := in.tab.Encode()
	p, err := in.problem(enc, nil)
	if err != nil {
		return sweepCost{}, err
	}
	snap := p.Snapshot()
	runtime.GC()
	cost, err := measureSweep(func() error { return snap.MaterializeNodes(p.Space().All()) })
	if err != nil {
		return cost, err
	}
	chs, err := bucket.CompileHierarchies(enc, in.hs)
	if err != nil {
		return cost, err
	}
	levels := func(n lattice.Node) bucket.Levels { return levelsFor(in.tab.Schema, in.hs, in.qi, n) }
	return cost, pt.probe(enc, chs, levels, p.Space(), runtime.NumCPU())
}

// sanitizeLayers derives the per-layer metrics from the traced tasks and
// the sweep probes.
func sanitizeLayers(r *report, e *env, results []sanitizeResult, times []taskTime, sweeps []sweepCost) {
	spans := e.tr.snapshot()
	var cs []taskCounters
	var evals, evaluated, inferred float64
	for i, res := range results {
		if !times[i].traced {
			continue
		}
		cs = append(cs, res.counters)
		evals += float64(res.evals)
		evaluated += float64(res.stats.Evaluated)
		inferred += float64(res.stats.Inferred)
	}
	taskLayers(r, spans, cs)
	n := float64(len(cs))
	var sweep, objects, mb float64
	for _, c := range sweeps {
		sweep += c.dur.Seconds()
		objects += float64(c.objects)
		mb += float64(c.bytes) / (1 << 20)
	}
	ns := float64(len(sweeps))
	r.set("anonymize.sweep_s", "s", sweep/ns)
	r.set("anonymize.sweep_allocs", "count", objects/ns)
	r.set("anonymize.sweep_alloc_mb", "MB", mb/ns)
	r.set("core.evals", "count", evals/n)
	r.set("lattice.evaluated", "count", evaluated/n)
	r.set("lattice.inferred", "count", inferred/n)
	r.set("lattice.search_self_s", "s", selfTimes(spans)["lattice.search"].Seconds()/n)
}

// sanitizeReference computes the reference answer with MinimalSafe and
// checks it: every node passes the exact-arithmetic (c,k) check, and
// every immediate specialization of a node fails it (so each node is
// minimal). Each task's answer must then equal it.
func sanitizeReference(r *report, in sanitizeInput) ([]lattice.Node, error) {
	ref, err := in.problem(in.tab.Encode(), nil)
	if err != nil {
		return nil, err
	}
	want, _, err := ref.MinimalSafe(ref.CKSafety(sanitizeC, sanitizeK))
	if err != nil {
		return nil, err
	}
	if len(want) == 0 {
		r.fail("sanitize: no safe node at c=%v k=%d", sanitizeC, sanitizeK)
	}
	c := new(big.Rat).SetFloat64(sanitizeC)
	eng := core.NewEngine()
	safe := func(n lattice.Node) (bool, error) {
		bz, err := ref.Bucketize(n)
		if err != nil {
			return false, err
		}
		return eng.IsCKSafeExact(bz, c, sanitizeK)
	}
	for _, n := range want {
		ok, err := safe(n)
		if err != nil {
			return nil, err
		}
		if !ok {
			r.fail("sanitize: node %v fails the exact (c,k) check", n)
		}
		for _, down := range ref.Space().Children(n) {
			ok, err := safe(down)
			if err != nil {
				return nil, err
			}
			if ok {
				r.fail("sanitize: %v passes the exact check, so %v is not minimal", down, n)
			}
		}
	}
	return want, nil
}
