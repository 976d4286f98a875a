package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataload"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/table"
)

// The audit workload is the paper's Figure 6 at paper scale: for every
// node of the Adult generalization lattice, the maximum disclosure for
// each background-knowledge bound k. Each task encodes the table, builds
// a fresh Problem and a fresh Engine, materializes the lattice in one
// planned sweep and evaluates every (node, k) serially.

type auditSizes struct {
	rows         int
	ks           []int
	exactSamples int
}

func auditSize(tiny bool) auditSizes {
	if tiny {
		return auditSizes{rows: 1500, ks: []int{1, 3}, exactSamples: 3}
	}
	return auditSizes{rows: 45222, ks: []int{1, 3, 5, 7, 9, 11}, exactSamples: 3}
}

// auditSetupReps is how many set-up repetitions run before the first
// task; one more runs after each task.
const auditSetupReps = 5

// auditResult is one task's disclosure table, indexed [node][k].
type auditResult struct {
	disclosure [][]float64
	sweep      sweepCost
	counters   taskCounters
}

func runAudit(ctx context.Context, e *env) (*report, error) {
	sz := auditSize(e.tiny)
	r := newReport()
	r.sizes["rows"] = sz.rows
	r.sizes["ks"] = len(sz.ks)

	t0 := time.Now()
	b, err := dataload.Adult("", sz.rows, e.seed)
	if err != nil {
		return nil, err
	}
	r.set("input_s", "s", time.Since(t0).Seconds())
	tab := b.Table

	// Set-up is building the analysis: encoding the table and compiling
	// the problem over it, as every task does first.
	setups := &setupTimer{step: func() error {
		_, err := anonymize.NewProblemFromEncoded(tab.Encode(), b.Hierarchies, b.QI, 1, anonymize.Options{Workers: 1, ShardWorkers: 1})
		return err
	}}
	if err := setups.run(auditSetupReps); err != nil {
		return nil, err
	}

	var results []auditResult
	var pt probeTotals
	times, err := loop(ctx, e, func(i int) error {
		res, err := auditTask(e, b, tab, sz.ks, i+1)
		if err != nil {
			return err
		}
		results = append(results, res)
		return nil
	}, func(_ int, traced bool) error {
		if traced {
			if err := auditProbe(&pt, b, tab); err != nil {
				return err
			}
		}
		return setups.run(1)
	})
	if err != nil {
		return nil, err
	}
	setups.report(r)
	nodes := len(results[0].disclosure)
	evals := len(results) * nodes * len(sz.ks)
	r.attempted = evals
	r.set("audit_evals_per_s", "1/s", float64(evals)/taskSeconds(times))
	r.set("failed_frac", "ratio", 0)
	r.sizes["nodes"] = nodes
	taskStats(r, times)

	if e.tamper {
		results[len(results)-1].disclosure[nodes/2][0] += 1e-9
	}
	if err := checkAudit(r, b, tab, sz, results, e.seed); err != nil {
		return nil, err
	}
	if e.traced {
		auditLayers(r, e, results, times)
		pt.report(r)
	}
	return r, nil
}

// auditTask is one Figure 6 task.
func auditTask(e *env, b *dataload.Bundle, tab *table.Table, ks []int, task int) (auditResult, error) {
	var res auditResult
	tr := e.tr
	root := tr.begin("task", 0, task)
	defer tr.end(root)
	gets0, reuse0 := bucket.ArenaStats()

	id := tr.begin("table.encode", root, task)
	enc := tab.Encode()
	tr.end(id)

	eng := core.NewEngine()
	id = tr.begin("hierarchy.compile", root, task)
	p, err := anonymize.NewProblemFromEncoded(enc, b.Hierarchies, b.QI, 1, anonymize.Options{Workers: 1, ShardWorkers: 1, Engine: eng})
	tr.end(id)
	if err != nil {
		return res, err
	}
	nodes := p.Space().All()
	snap := p.Snapshot()

	id = tr.begin("anonymize.sweep", root, task)
	res.sweep, err = measureSweep(func() error { return snap.MaterializeNodes(nodes) })
	tr.end(id)
	if err != nil {
		return res, err
	}

	res.disclosure = make([][]float64, len(nodes))
	for i, n := range nodes {
		id := tr.begin("anonymize.bucketize", root, task)
		bz, err := snap.Bucketize(n)
		tr.end(id)
		if err != nil {
			return res, err
		}
		row := make([]float64, len(ks))
		for j, k := range ks {
			id := tr.begin("core.disclosure", root, task)
			row[j], err = eng.MaxDisclosure(bz, k)
			tr.end(id)
			if err != nil {
				return res, fmt.Errorf("node %v k=%d: %w", n, k, err)
			}
		}
		res.disclosure[i] = row
	}
	res.counters = countersSince(eng, p, gets0, reuse0)
	return res, nil
}

// auditProbe times the bucket layer's public calls on the task's table,
// outside the task's own timing.
func auditProbe(pt *probeTotals, b *dataload.Bundle, tab *table.Table) error {
	enc := tab.Encode()
	chs, err := bucket.CompileHierarchies(enc, b.Hierarchies)
	if err != nil {
		return err
	}
	space, err := spaceOf(b.Hierarchies, b.QI)
	if err != nil {
		return err
	}
	levels := func(n lattice.Node) bucket.Levels { return levelsFor(tab.Schema, b.Hierarchies, b.QI, n) }
	return pt.probe(enc, chs, levels, space, 1)
}

// auditLayers derives the per-layer metrics from the traced tasks.
func auditLayers(r *report, e *env, results []auditResult, times []taskTime) {
	var cs []taskCounters
	var sweep, objects, mb, evals float64
	for i, res := range results {
		if !times[i].traced {
			continue
		}
		cs = append(cs, res.counters)
		sweep += res.sweep.dur.Seconds()
		objects += float64(res.sweep.objects)
		mb += float64(res.sweep.bytes) / (1 << 20)
		evals += float64(len(res.disclosure) * len(res.disclosure[0]))
	}
	taskLayers(r, e.tr.snapshot(), cs)
	n := float64(len(cs))
	r.set("anonymize.sweep_s", "s", sweep/n)
	r.set("anonymize.sweep_allocs", "count", objects/n)
	r.set("anonymize.sweep_alloc_mb", "MB", mb/n)
	r.set("core.evals", "count", evals/n)
}

// checkAudit verifies the disclosure tables: every task's table is
// byte-identical to the first task's; a seeded sample of (node, k)
// matches the engine's exact rational computation; and disclosure never
// rises up a lattice edge (Theorem 14: generalizing cannot disclose more).
func checkAudit(r *report, b *dataload.Bundle, tab *table.Table, sz auditSizes, results []auditResult, seed int64) error {
	first := results[0].disclosure
	for t, res := range results[1:] {
		for i := range first {
			for j := range first[i] {
				if math.Float64bits(res.disclosure[i][j]) != math.Float64bits(first[i][j]) {
					r.fail("audit: task %d disclosure[%d][k=%d] = %v, first task %v", t+2, i, sz.ks[j], res.disclosure[i][j], first[i][j])
					return nil
				}
			}
		}
	}
	p, err := anonymize.NewProblem(tab, b.Hierarchies, b.QI)
	if err != nil {
		return err
	}
	space := p.Space()
	nodes := space.All()
	index := make(map[string]int, len(nodes))
	for i, n := range nodes {
		index[fmt.Sprint(n)] = i
	}
	for i, n := range nodes {
		for _, up := range space.Parents(n) {
			u := index[fmt.Sprint(up)]
			for j, k := range sz.ks {
				if first[u][j] > first[i][j]+1e-12 {
					r.fail("audit: disclosure rises from %v (%v) to %v (%v) at k=%d", n, first[i][j], up, first[u][j], k)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	eng := core.NewEngine()
	for s := 0; s < sz.exactSamples; s++ {
		i, j := rng.Intn(len(nodes)), rng.Intn(len(sz.ks))
		bz, err := p.Bucketize(nodes[i])
		if err != nil {
			return err
		}
		exact, err := eng.ExactMaxDisclosure(bz, sz.ks[j])
		if err != nil {
			return err
		}
		want, _ := exact.Float64()
		if got := first[i][j]; math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			r.fail("audit: disclosure at %v k=%d is %v, exact %v", nodes[i], sz.ks[j], got, want)
		}
	}
	return nil
}
