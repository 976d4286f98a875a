package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataload"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/synth"
	"ckprivacy/internal/table"
)

// The serve workload drives a ckprivacyd child process with a durable,
// fsync-on-commit data directory through an open loop: seeded Poisson
// arrivals at a fixed rate, a fixed mix of disclosure, check, append and
// info requests, every latency timed from when the request was due.

type serveSizes struct {
	rows        int     // registered rows
	appendBatch int     // rows per append
	rate        float64 // arrivals per second
	setupReps   int     // daemon set-ups measured before the load; the last one serves it
	setupAfter  int     // daemon set-ups measured after the checks
	probes      int     // (levels, k) answers checked against the library
}

func serveSize(tiny bool) serveSizes {
	if tiny {
		return serveSizes{rows: 3000, appendBatch: 4, rate: 40, setupReps: 1, setupAfter: 1, probes: 3}
	}
	return serveSizes{rows: 20_000, appendBatch: 8, rate: 40, setupReps: 3, setupAfter: 4, probes: 4}
}

const (
	serveDataset = "bench"
	// sloMS is the latency limit a request must meet to count towards
	// goodput_per_s; failed and shed requests never meet it.
	sloMS = 100
	// maxLatenessMS bounds the generator's own p99 lateness (dispatch
	// minus due). Beyond it the generator, not the daemon, set the
	// schedule and the run is invalid.
	maxLatenessMS = 50
	clientTimeout = 5 * time.Second
)

// routes are the request kinds of the mix, with their share and the
// route pattern the daemon's metrics label them with.
var routes = []struct {
	kind    string
	share   float64
	pattern string
}{
	{"disclosure", 0.45, "POST /v1/disclosure"},
	{"check", 0.25, "POST /v1/check"},
	{"append", 0.20, "POST /v1/datasets/{name}/rows"},
	{"info", 0.10, "GET /v1/datasets/{name}"},
}

// target is a running daemon the workload talks to.
type target struct {
	url  string
	pid  int
	stop func() error
}

// startFunc starts a daemon over a data directory.
type startFunc func(ctx context.Context, dataDir string) (*target, error)

// execDaemon starts the ckprivacyd binary as a child process.
func execDaemon(bin string, logw io.Writer) startFunc {
	return func(ctx context.Context, dataDir string) (*target, error) {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir, "-wal-fsync=true", "-max-rows", "1000000")
		cmd.Stdout, cmd.Stderr = logw, logw
		// The daemon dies with the benchmark, even if the benchmark is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		var once sync.Once
		var stopErr error
		stop := func() error {
			once.Do(func() {
				_ = cmd.Process.Signal(syscall.SIGTERM)
				select {
				case stopErr = <-done:
				case <-time.After(15 * time.Second):
					_ = cmd.Process.Kill()
					<-done
					stopErr = errors.New("daemon did not stop within 15s; killed")
				}
			})
			return stopErr
		}
		t := &target{url: "http://" + addr, pid: cmd.Process.Pid, stop: stop}
		if err := waitHealthy(ctx, t.url, done); err != nil {
			_ = stop()
			return nil, err
		}
		return t, nil
	}
}

// freePort asks the kernel for an unused local port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until the daemon answers or exits.
func waitHealthy(ctx context.Context, url string, exited <-chan error) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-exited:
			return fmt.Errorf("daemon exited before becoming healthy: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return errors.New("daemon not healthy within 60s")
}

// op is one scheduled request.
type op struct {
	due  time.Duration // offset from the window's start
	kind string
	body map[string]any
}

// outcome is what happened to one op.
type outcome struct {
	kind     string
	ok, shed bool
	dispatch time.Duration // when the generator handed it to a connection worker
	sent     time.Duration
	done     time.Duration
	due      time.Duration
	// append results
	version int64
	rows    []table.Row
	patched int
}

// latencyMS is the request's latency as its caller sees it, from when it
// was due: it includes the wait for a free connection.
func (o outcome) latencyMS() float64 { return float64(o.done-o.due) / 1e6 }

// responseMS is the daemon's response time, from when the request went
// out on its connection.
func (o outcome) responseMS() float64 { return float64(o.done-o.sent) / 1e6 }

// schedule draws the open loop's arrivals: rate × window requests at
// Poisson arrival times (uniform order statistics given the count). The
// mix is stratified, so every seed offers the daemon the same load in a
// different order: each kind gets its exact share of the requests, levels
// follow exact Zipf quotas over a fixed popularity order of the lattice
// nodes, and k and the check criteria rotate evenly.
func schedule(rng *rand.Rand, rate float64, window time.Duration, nodes []bucket.Levels) []op {
	n := int(rate * window.Seconds())
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * window.Seconds()
	}
	sort.Float64s(dues)

	shares := make([]float64, len(routes))
	for i, r := range routes {
		shares[i] = r.share
	}
	var kinds []string
	for i, q := range quotas(shares, n) {
		for j := 0; j < q; j++ {
			kinds = append(kinds, routes[i].kind)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	// bodies returns count request bodies for one kind, levels by Zipf
	// quota, shuffled.
	popular := rand.New(rand.NewSource(0)).Perm(len(nodes))
	zipf := make([]float64, len(nodes))
	for r := range zipf {
		zipf[r] = math.Pow(float64(r+1), -1.2)
	}
	bodies := func(count int, body func(i int, lv bucket.Levels) map[string]any) []map[string]any {
		var out []map[string]any
		for r, q := range quotas(zipf, count) {
			for j := 0; j < q; j++ {
				out = append(out, body(len(out), nodes[popular[r]]))
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	count := make(map[string]int)
	for _, k := range kinds {
		count[k]++
	}
	pending := map[string][]map[string]any{
		"disclosure": bodies(count["disclosure"], func(i int, lv bucket.Levels) map[string]any {
			return map[string]any{"dataset": serveDataset, "levels": lv, "k": 1 + i%4}
		}),
		"check": bodies(count["check"], func(i int, lv bucket.Levels) map[string]any {
			switch i % 3 {
			case 0:
				return map[string]any{"dataset": serveDataset, "levels": lv, "criterion": "ck", "c": 0.8, "k": 1 + i/3%2}
			case 1:
				return map[string]any{"dataset": serveDataset, "levels": lv, "criterion": "k-anonymity", "k": 2 + i/3%4}
			default:
				return map[string]any{"dataset": serveDataset, "levels": lv, "criterion": "distinct-l", "l": 2 + i/3%2}
			}
		}),
	}
	ops := make([]op, n)
	for i, kind := range kinds {
		ops[i] = op{due: time.Duration(dues[i] * float64(time.Second)), kind: kind}
		if q := pending[kind]; len(q) > 0 {
			ops[i].body, pending[kind] = q[0], q[1:]
		}
	}
	return ops
}

// quotas splits n into integer parts proportional to weights, by largest
// remainder, so the parts sum to n exactly.
func quotas(weights []float64, n int) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := w / total * float64(n)
		out[i] = int(exact)
		rem[i] = exact - float64(out[i])
		left -= out[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		out[i]++
	}
	return out
}

// client is the workload's HTTP client: at most nproc connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: clientTimeout}}
}

// do sends one request and decodes a JSON reply into out (if non-nil).
func (c *client) do(ctx context.Context, method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// scrape reads the daemon's /metrics into series → value.
func (c *client) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text exposition into series → value.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// serveState is the workload's input stream and what the load appended.
type serveState struct {
	cfg     synth.Config
	initial []table.Row
	mu      sync.Mutex
	gen     *synth.Generator // rows still to append, guarded by mu
}

func (s *serveState) nextBatch(n int) []table.Row {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen.Next(n)
}

func runServe(ctx context.Context, e *env) (*report, error) {
	sz := serveSize(e.tiny)
	r := newReport()
	r.sizes["rows"] = sz.rows
	r.sizes["append_batch"] = sz.appendBatch
	r.sizes["rate"] = int(sz.rate)

	// Input: the registered rows plus a stream to append, from the seed.
	t0 := time.Now()
	cfg := synth.Config{Rows: sz.rows * 2, Seed: e.seed}
	gen, err := synth.New(cfg)
	if err != nil {
		return nil, err
	}
	st := &serveState{cfg: cfg, gen: gen}
	st.initial = gen.Next(sz.rows)
	register := map[string]any{"name": serveDataset, "spec": synth.Spec(cfg, st.initial)}
	hs, qi := synth.Hierarchies(cfg), synth.QI()
	space, err := spaceOf(hs, qi)
	if err != nil {
		return nil, err
	}
	var nodes []bucket.Levels
	for _, n := range space.All() {
		nodes = append(nodes, nodeLevels(qi, n))
	}
	ops := schedule(rand.New(rand.NewSource(e.seed)), sz.rate, e.seconds, nodes)
	r.set("input_s", "s", time.Since(t0).Seconds())

	start := e.start
	if start == nil {
		logf, err := os.Create(filepath.Join(e.workdir, "daemon.log"))
		if err != nil {
			return nil, err
		}
		defer logf.Close()
		start = execDaemon(e.daemon, logf)
	}

	// Set-up: start the daemon on an empty data directory, register the
	// dataset and warm every lattice node; measured setupReps times before
	// the load and setupAfter times after the checks, so the repetitions
	// spread over the run. The previous repetition's daemon stops before
	// the next one is timed.
	var tgt *target
	var cl *client
	setups := &setupTimer{step: func() error {
		dir, err := os.MkdirTemp(e.workdir, "serve-data-")
		if err != nil {
			return err
		}
		if tgt, err = start(ctx, dir); err != nil {
			return err
		}
		cl = newClient(tgt.url, runtime.NumCPU())
		if _, err := cl.do(ctx, http.MethodPost, "/v1/datasets", register, nil); err != nil {
			return fmt.Errorf("register: %w", err)
		}
		for _, lv := range nodes {
			body := map[string]any{"dataset": serveDataset, "levels": lv, "k": 1}
			if _, err := cl.do(ctx, http.MethodPost, "/v1/disclosure", body, nil); err != nil {
				return fmt.Errorf("warm %v: %w", lv, err)
			}
		}
		return nil
	}}
	stop := func() error {
		if tgt == nil {
			return nil
		}
		err := tgt.stop()
		tgt = nil
		return err
	}
	defer func() {
		if err := stop(); err != nil {
			e.logf("serve: stopping daemon: %v", err)
		}
	}()
	setUp := func(reps int) error {
		for i := 0; i < reps; i++ {
			if err := stop(); err != nil {
				return err
			}
			if err := setups.run(1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := setUp(sz.setupReps); err != nil {
		return nil, err
	}

	before, err := cl.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(tgt.pid)
	if err != nil {
		return nil, err
	}
	e.tr.setOn(true)
	outs, err := openLoop(ctx, e, cl, st, sz, ops)
	e.tr.setOn(false)
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(tgt.pid)
	if err != nil {
		return nil, err
	}
	r.set("cpu_ms_per_op", "ms", float64(cpu1-cpu0)/1e6/float64(len(outs)))
	after, err := cl.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(tgt.pid)
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", "MB", rss)

	serveMetrics(r, outs, sz.rate)
	serveLayers(r, outs, before, after, e.traced)
	if err := checkServe(ctx, r, e, cl, st, outs, nodes, sz); err != nil {
		return nil, err
	}
	if err := setUp(sz.setupAfter); err != nil {
		return nil, err
	}
	setups.report(r)
	return r, nil
}

// nodeLevels is the daemon's levels object for a lattice node.
func nodeLevels(qi []string, n lattice.Node) bucket.Levels {
	lv := bucket.Levels{}
	for i, name := range qi {
		lv[name] = n[i]
	}
	return lv
}

// openLoop sends every op at its due time and returns what happened to
// each, in schedule order. It uses at most nproc connections: one
// carries the appends and the rest the reads, as a client with separate
// write and read paths would, so a read never waits for a free
// connection behind an append's WAL fsync.
func openLoop(ctx context.Context, e *env, cl *client, st *serveState, sz serveSizes, ops []op) ([]outcome, error) {
	outs := make([]outcome, len(ops))
	// Each queue is sized to the number of sends, so the generator never
	// blocks on a busy daemon: a stall shows as lateness of the requests
	// behind it.
	writes, reads := make(chan int, len(ops)), make(chan int, len(ops))
	begin := time.Now()
	var wg sync.WaitGroup
	worker := func(queue <-chan int) {
		defer wg.Done()
		for i := range queue {
			outs[i].sent = time.Since(begin)
			// A traced run traces every other request, so that it can
			// report its own overhead.
			root, id := 0, 0
			if e.traced && i%2 == 0 {
				root = e.tr.begin("task", 0, i+1)
				id = e.tr.begin("http."+ops[i].kind, root, i+1)
			}
			sendOp(ctx, e, cl, st, sz, ops[i], &outs[i])
			e.tr.end(id)
			e.tr.end(root)
			outs[i].done = time.Since(begin)
		}
	}
	wg.Add(1)
	go worker(writes)
	for w := 0; w < max(1, runtime.NumCPU()-1); w++ {
		wg.Add(1)
		go worker(reads)
	}
	for i, o := range ops {
		if d := o.due - time.Since(begin); d > 0 {
			time.Sleep(d)
		}
		outs[i].kind, outs[i].due = o.kind, o.due
		outs[i].dispatch = time.Since(begin)
		if o.kind == "append" {
			writes <- i
		} else {
			reads <- i
		}
	}
	close(writes)
	close(reads)
	wg.Wait()
	return outs, ctx.Err()
}

// sendOp issues one request.
func sendOp(ctx context.Context, e *env, cl *client, st *serveState, sz serveSizes, o op, out *outcome) {
	var status int
	var err error
	switch o.kind {
	case "disclosure":
		status, err = cl.do(ctx, http.MethodPost, "/v1/disclosure", o.body, nil)
	case "check":
		status, err = cl.do(ctx, http.MethodPost, "/v1/check", o.body, nil)
	case "info":
		status, err = cl.do(ctx, http.MethodGet, "/v1/datasets/"+serveDataset, nil, nil)
	case "append":
		rows := st.nextBatch(sz.appendBatch)
		wire := make([][]string, len(rows))
		for i, row := range rows {
			wire[i] = row
		}
		var resp struct {
			Version      int64 `json:"version"`
			PatchedNodes int   `json:"patched_nodes"`
		}
		status, err = cl.do(ctx, http.MethodPost, "/v1/datasets/"+serveDataset+"/rows", map[string]any{"rows": wire}, &resp)
		out.rows, out.version, out.patched = rows, resp.Version, resp.PatchedNodes
	}
	out.ok = err == nil
	out.shed = status == http.StatusServiceUnavailable
	if err != nil && !out.shed {
		e.logf("serve: %s failed: %v", o.kind, err)
	}
}

// serveMetrics computes the end-to-end metrics from the outcomes.
func serveMetrics(r *report, outs []outcome, rate float64) {
	good, failed := 0, 0
	byKind := make(map[string][]float64)
	response := make(map[string][]float64)
	for _, o := range outs {
		if !o.ok {
			failed++
			continue
		}
		ms := o.latencyMS()
		byKind[o.kind] = append(byKind[o.kind], ms)
		response[o.kind] = append(response[o.kind], o.responseMS())
		if ms <= sloMS {
			good++
		}
	}
	r.attempted, r.failed = len(outs), failed
	r.set("failed_frac", "ratio", ratio(float64(failed), float64(len(outs))))
	// Goodput at the offered rate: the share of requests that met the
	// latency limit, times the rate. Normalizing by the requests the seed
	// drew keeps Poisson count noise out of the metric.
	r.set("goodput_per_s", "1/s", rate*ratio(float64(good), float64(len(outs))))
	// op_p50_ms is the geometric mean of the routes' median response
	// times: a route 10% slower moves it by about 2.5%, whichever route it
	// is, so a slower append moves it although most requests are reads,
	// and the slowest route's noise does not swamp the others. Response
	// time leaves out the wait for one of the workload's few connections,
	// which a burst of arrivals or one slow request ahead sets, not the
	// request itself; that wait is server.queue_ms.
	var p50s []float64
	for _, rt := range routes {
		lat := sortedCopy(byKind[rt.kind])
		p50 := percentile(sortedCopy(response[rt.kind]), 50)
		p50s = append(p50s, p50)
		r.set(rt.kind+"_n", "count", float64(len(lat)))
		r.set(rt.kind+"_response_p50_ms", "ms", p50)
		r.set(rt.kind+"_p50_ms", "ms", percentile(lat, 50))
		// The tail is reported at the highest percentile that leaves at
		// least ten samples beyond it, and named by that percentile.
		if p, ok := tailPercentile(len(lat)); ok && p > 50 {
			r.set(fmt.Sprintf("%s_p%s_ms", rt.kind, strconv.FormatFloat(p, 'f', -1, 64)), "ms", percentile(lat, p))
		}
	}
	r.set("op_p50_ms", "ms", geomean(p50s))
}

// serveLayers computes the per-layer metrics from the outcomes and the
// daemon's /metrics before and after the window.
func serveLayers(r *report, outs []outcome, before, after map[string]float64, traced bool) {
	delta := func(series string) float64 { return after[series] - before[series] }
	client := make(map[string][]float64)
	var queue, lateness []float64
	var patched []float64
	appended := 0
	shed := 0
	for _, o := range outs {
		lateness = append(lateness, float64(o.dispatch-o.due)/1e6)
		queue = append(queue, float64(o.sent-o.due)/1e6)
		if o.shed {
			shed++
		}
		if !o.ok {
			continue
		}
		client[o.kind] = append(client[o.kind], float64(o.done-o.sent)/1e6)
		if o.kind == "append" {
			patched = append(patched, float64(o.patched))
			appended += len(o.rows)
		}
	}
	for _, rt := range routes {
		label := fmt.Sprintf("{route=%q}", rt.pattern)
		n := delta("ckprivacyd_request_seconds_count" + label)
		handler := 1000 * ratio(delta("ckprivacyd_request_seconds_sum"+label), n)
		r.set("server."+rt.kind+".handler_ms", "ms", handler)
		r.set("server."+rt.kind+".outside_ms", "ms", mean(client[rt.kind])-handler)
	}
	if traced {
		// Even requests were traced, odd ones not.
		var on, off []float64
		for i, o := range outs {
			if o.ok && o.kind == "disclosure" {
				if i%2 == 0 {
					on = append(on, float64(o.done-o.sent)/1e6)
				} else {
					off = append(off, float64(o.done-o.sent)/1e6)
				}
			}
		}
		r.set("trace.overhead_pct", "%", 100*(median(on)/median(off)-1))
	}
	r.set("server.queue_ms", "ms", mean(queue))
	r.set("server.shed", "count", float64(shed))
	r.set("gen.lateness_p99_ms", "ms", percentile(sortedCopy(lateness), 99))
	ds := fmt.Sprintf("{dataset=%q}", serveDataset)
	hits, misses := delta("ckprivacyd_dataset_cache_hits_total"+ds), delta("ckprivacyd_dataset_cache_misses_total"+ds)
	r.set("anonymize.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	r.set("anonymize.append_patched_nodes", "count", mean(patched))
	fsyncs := delta("ckprivacyd_wal_fsync_seconds_count" + ds)
	r.set("store.fsyncs", "count", fsyncs)
	r.set("store.fsync_mean_ms", "ms", 1000*ratio(delta("ckprivacyd_wal_fsync_seconds_sum"+ds), fsyncs))
	r.set("store.wal_bytes_per_row", "bytes", ratio(delta("ckprivacyd_wal_bytes"+ds), float64(appended)))
	mh, mm := delta("ckprivacyd_engine_memo_hits_total"), delta("ckprivacyd_engine_memo_misses_total")
	r.set("core.memo_hits", "count", mh)
	r.set("core.memo_misses", "count", mm)
	r.set("core.memo_hit_ratio", "ratio", ratio(mh, mh+mm))
	r.set("core.memo_bytes", "bytes", after[`ckprivacyd_engine_memo_bytes{engine="shared"}`])
}

// checkLateness marks the run invalid when the generator itself fell
// behind its schedule.
func checkLateness(r *report) {
	if late := r.metrics["gen.lateness_p99_ms"].Value; late > maxLatenessMS {
		r.fail("serve: generator p99 lateness %.1f ms above %d ms: the run is invalid", late, maxLatenessMS)
	}
}

// checkServe verifies the run. The generator must have kept its
// schedule. At the final version, the daemon's row count and version
// must match the appends it acknowledged, and its disclosure answers for
// fixed (levels, k) must equal the library's on the rows reconstructed
// from the registration plus every append in the order of the versions
// the daemon returned.
func checkServe(ctx context.Context, r *report, e *env, cl *client, st *serveState, outs []outcome, nodes []bucket.Levels, sz serveSizes) error {
	checkLateness(r)
	var appends []outcome
	for _, o := range outs {
		if o.kind == "append" {
			if !o.ok {
				r.fail("serve: an append failed, so the final rows cannot be reconstructed")
				return nil
			}
			appends = append(appends, o)
		}
	}
	sort.Slice(appends, func(i, j int) bool { return appends[i].version < appends[j].version })
	rows := append([]table.Row(nil), st.initial...)
	for i, a := range appends {
		if a.version != int64(i+2) {
			r.fail("serve: append versions are not 2..%d in order (got %d at %d)", len(appends)+1, a.version, i)
			return nil
		}
		rows = append(rows, a.rows...)
	}
	var info struct {
		Version int64 `json:"version"`
		Rows    int   `json:"rows"`
	}
	if _, err := cl.do(ctx, http.MethodGet, "/v1/datasets/"+serveDataset, nil, &info); err != nil {
		return err
	}
	if info.Version != int64(len(appends)+1) || info.Rows != len(rows) {
		r.fail("serve: daemon at version %d with %d rows, want %d with %d", info.Version, info.Rows, len(appends)+1, len(rows))
	}

	b, err := dataload.FromSpec(serveDataset, synth.Spec(st.cfg, rows))
	if err != nil {
		return err
	}
	p, err := anonymize.NewProblem(b.Table, b.Hierarchies, b.QI)
	if err != nil {
		return err
	}
	eng := core.NewEngine()
	for i := 0; i < sz.probes; i++ {
		lv := nodes[(i*len(nodes))/sz.probes]
		k := 1 + i%4
		var got struct {
			Disclosure float64 `json:"disclosure"`
			Buckets    int     `json:"buckets"`
		}
		if _, err := cl.do(ctx, http.MethodPost, "/v1/disclosure", map[string]any{"dataset": serveDataset, "levels": lv, "k": k}, &got); err != nil {
			return err
		}
		n, err := p.NodeForLevels(lv)
		if err != nil {
			return err
		}
		bz, err := p.Bucketize(n)
		if err != nil {
			return err
		}
		want, err := eng.MaxDisclosure(bz, k)
		if err != nil {
			return err
		}
		if e.tamper && i == 0 {
			got.Disclosure = math.Nextafter(got.Disclosure, 2)
		}
		if got.Disclosure != want || got.Buckets != len(bz.Buckets) {
			r.fail("serve: daemon answers %v (%d buckets) at %v k=%d, library %v (%d buckets)", got.Disclosure, got.Buckets, lv, k, want, len(bz.Buckets))
		}
	}
	return nil
}
