package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"ckprivacy/internal/server"
	"ckprivacy/internal/store"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // exactly 10 beyond p99
		{999, 98, true},  // p99 would leave 9
		{200, 95, true},
		{100, 90, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, p) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves %d beyond", tc.n, p, beyond(tc.n, p))
		}
	}
}

// The comparator's quartiles must match Python's
// statistics.quantiles(xs, n=4), the spread readers compute.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
}

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "task", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15 * ms, End: 20 * ms},
		{ID: 5, Parent: 1, Name: "b", Start: 90 * ms, End: 120 * ms}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"task": 100*ms - 50*ms - 10*ms, // children cover 10..60 and 90..100
		"a":    30*ms - 5*ms,
		"b":    30*ms + 30*ms,
		"c":    5 * ms,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	if got := rootCoverage(spans, "task"); got != 0.6 {
		t.Errorf("rootCoverage = %v, want 0.6", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer()
	tr.end(tr.begin("x", 0, 1))
	tr.setOn(true)
	tr.end(tr.begin("y", 0, 1))
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("z", 0, 1))
	if s := tr.snapshot(); len(s) != 1 || s[0].Name != "y" {
		t.Fatalf("spans = %+v, want only y", s)
	}
}

// Lateness is the generator's own delay (dispatch minus due); waiting for
// a free connection (sent minus due) is queueing, charged to the system.
func TestLatenessAccounting(t *testing.T) {
	ms := time.Millisecond
	var outs []outcome
	for i := 0; i < 100; i++ {
		due := time.Duration(i) * 10 * ms
		outs = append(outs, outcome{kind: "disclosure", ok: true, due: due, dispatch: due + ms, sent: due + 3*ms, done: due + 5*ms})
	}
	outs[99].dispatch = outs[99].due + 80*ms
	outs[98].ok, outs[98].shed = false, true
	r := newReport()
	serveLayers(r, outs, nil, nil, false)
	serveMetrics(r, outs, 50)
	if got := r.metrics["gen.lateness_p99_ms"].Value; got != 1 {
		t.Errorf("lateness p99 = %v ms, want 1 (one late dispatch of 100 is beyond p99)", got)
	}
	if got := r.metrics["server.queue_ms"].Value; got != 3 {
		t.Errorf("queue = %v ms, want 3", got)
	}
	if got := r.metrics["server.shed"].Value; got != 1 {
		t.Errorf("shed = %v, want 1", got)
	}
	if got := r.metrics["failed_frac"].Value; got != 0.01 {
		t.Errorf("failed_frac = %v, want 0.01", got)
	}
	if r.failed != 1 || r.attempted != 100 {
		t.Errorf("failed/attempted = %d/%d, want 1/100", r.failed, r.attempted)
	}
	checkLateness(r)
	if len(r.problems) != 0 {
		t.Errorf("on-time generator flagged: %v", r.problems)
	}
	for i := 90; i < 100; i++ {
		outs[i].dispatch = outs[i].due + 60*ms
	}
	r = newReport()
	serveLayers(r, outs, nil, nil, false)
	checkLateness(r)
	if len(r.problems) != 1 {
		t.Errorf("a generator 60 ms late on 10%% of requests was not flagged: %v", r.problems)
	}
}

// Serve's op_p50_ms is the geometric mean of the routes' median response
// times, so the appends move it although most requests are reads, and the
// wait for a connection (sent minus due) is left out of it.
func TestServeOpP50WeighsRoutesEqually(t *testing.T) {
	ms := time.Millisecond
	var outs []outcome
	for _, rt := range routes {
		resp := map[string]time.Duration{"disclosure": 1, "check": 1, "append": 16, "info": 1}[rt.kind] * ms
		for i := 0; i < int(100*rt.share); i++ {
			outs = append(outs, outcome{kind: rt.kind, ok: true, due: 0, sent: 5 * ms, done: 5*ms + resp})
		}
	}
	r := newReport()
	serveMetrics(r, outs, 50)
	if got := r.metrics["op_p50_ms"].Value; math.Abs(got-2) > 1e-12 {
		t.Errorf("op_p50_ms = %v, want 2, the geometric mean of the route medians 1, 1, 16 and 1", got)
	}
	if got := r.metrics["append_p50_ms"].Value; got != 21 {
		t.Errorf("append_p50_ms = %v, want 21, timed from when the request was due", got)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark directory:", err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d] = %v, program has %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

func TestPrintResultCarriesExactlyTheListedMetrics(t *testing.T) {
	row := ledgerRow{Correct: true, Attempted: 3, Metrics: map[string]metric{"extra": {Value: 1}}}
	for _, d := range endToEnd {
		row.Metrics[d.Name] = metric{Value: 2, Unit: d.Unit}
	}
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		if err := printResult(&buf, row, traced); err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct   bool
			Attempted int
			Metrics   map[string]metric
		}
		if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(res.Metrics) != len(want) || !res.Correct || res.Attempted != 3 {
			t.Errorf("traced=%v: %s", traced, buf.String())
		}
	}
	delete(row.Metrics, "setup_s")
	if err := printResult(io.Discard, row, false); err == nil {
		t.Error("a run missing an end-to-end metric printed a result")
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	row := func(cpu string, seed int64, v float64) ledgerRow {
		return ledgerRow{Config: configKey{Workload: "audit", Seed: seed, CPUModel: cpu, GOMAXPROCS: 2, NumCPU: 2},
			Metrics: map[string]metric{"op_p50_ms": {Value: v, Unit: "ms"}}}
	}
	old := []ledgerRow{row("cpu-a", 1, 10), row("cpu-a", 2, 12)}
	var buf bytes.Buffer
	if err := compareRows(old, []ledgerRow{row("cpu-a", 3, 11)}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "op_p50_ms") {
		t.Errorf("comparison lacks the metric:\n%s", buf.String())
	}
	if err := compareRows(old, []ledgerRow{row("cpu-b", 3, 11)}, io.Discard); err == nil {
		t.Error("rows from different machines were compared")
	}
}

// inProcess serves the daemon's handler from the test process, over a
// durable, fsync-on-commit store, as the binary does.
func inProcess(ctx context.Context, dir string) (*target, error) {
	mgr, err := store.Open(store.Options{Dir: dir, Fsync: true})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Store: mgr, MaxRows: 1_000_000})
	ts := httptest.NewServer(srv.Handler())
	return &target{url: ts.URL, pid: os.Getpid(), stop: func() error {
		ts.Close()
		return srv.Shutdown(context.Background())
	}}, nil
}

// Each workload at smoke-test size passes its checks, and fails them
// when one answer is tampered with; traced, it reports the per-layer
// metrics.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, wl := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, mode := range []string{"plain", "tampered", "traced"} {
				e := &env{seed: 7, seconds: time.Second, workdir: t.TempDir(), start: inProcess, tiny: true, log: io.Discard}
				e.tamper = mode == "tampered"
				if mode == "traced" {
					e.traced, e.tr = true, newTracer()
					e.tr.setOn(false)
				}
				r, err := wl(context.Background(), e)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				if r.attempted < 1 || r.failed != 0 {
					t.Errorf("%s: attempted %d, failed %d", mode, r.attempted, r.failed)
				}
				if e.tamper != (len(r.problems) > 0) {
					t.Errorf("%s: check problems %v", mode, r.problems)
				}
				for _, d := range endToEnd {
					if m, ok := r.metrics[d.Name]; !ok || m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", mode, d.Name, m)
					}
				}
				if mode == "traced" {
					cov := rootCoverage(e.tr.snapshot(), "task")
					if (name == "audit" || name == "sanitize") && cov < 0.9 {
						t.Errorf("layer spans cover %.2f of task time, want >= 0.9", cov)
					}
					if _, ok := r.metrics["trace.overhead_pct"]; !ok {
						t.Error("traced run reports no tracing overhead")
					}
				}
			}
		})
	}
}
