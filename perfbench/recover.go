package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"ckprivacy/internal/dataload"
	"ckprivacy/internal/replica"
	"ckprivacy/internal/server"
	"ckprivacy/internal/store"
	"ckprivacy/internal/synth"
)

// The recover workload measures getting back to service: a warm boot of
// a data directory (a columnar snapshot plus a WAL of appends, compaction
// off), then a fresh in-memory follower bootstrapping from that leader
// over HTTP until it has caught up.

type recoverSizes struct {
	rows, appends, appendBatch int
	setupReps                  int
}

func recoverSize(tiny bool) recoverSizes {
	if tiny {
		return recoverSizes{rows: 2000, appends: 30, appendBatch: 4, setupReps: 1}
	}
	return recoverSizes{rows: 100_000, appends: 1500, appendBatch: 4, setupReps: 3}
}

const (
	recoverMaxRows = 1_000_000
	// recoverSetupEvery is how many tasks run between set-up repetitions
	// after the first sz.setupReps; a repetition takes about two tasks'
	// time.
	recoverSetupEvery = 4
)

// handlerTransport serves requests in-process from an http.Handler.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// inProcessClient talks to a server's handler without a listener.
func inProcessClient(h http.Handler) *client {
	return &client{base: "http://in-process", http: &http.Client{Transport: handlerTransport{h}}}
}

// buildDataDir registers the snapshot and appends the WAL records.
func buildDataDir(dir string, spec dataload.Spec, batches [][][]string) error {
	mgr, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	srv := server.New(server.Config{Store: mgr, MaxRows: recoverMaxRows})
	defer srv.Shutdown(context.Background())
	c := inProcessClient(srv.Handler())
	ctx := context.Background()
	if _, err := c.do(ctx, http.MethodPost, "/v1/datasets", map[string]any{"name": serveDataset, "spec": spec}, nil); err != nil {
		return err
	}
	for _, rows := range batches {
		if _, err := c.do(ctx, http.MethodPost, "/v1/datasets/"+serveDataset+"/rows", map[string]any{"rows": rows}, nil); err != nil {
			return err
		}
	}
	return nil
}

// datasetState is what the check compares between servers.
type datasetState struct {
	Version     int64 `json:"version"`
	Rows        int   `json:"rows"`
	Replication *struct {
		AppliedRecords int  `json:"applied_records"`
		LagRecords     int  `json:"lag_records"`
		CaughtUp       bool `json:"caught_up"`
	} `json:"replication"`
	disclosure float64
}

func readState(h http.Handler) (datasetState, error) {
	var st datasetState
	c := inProcessClient(h)
	if _, err := c.do(context.Background(), http.MethodGet, "/v1/datasets/"+serveDataset, nil, &st); err != nil {
		return st, err
	}
	var d struct {
		Disclosure float64 `json:"disclosure"`
	}
	body := map[string]any{"dataset": serveDataset, "levels": synth.DefaultLevels(), "k": 2}
	if _, err := c.do(context.Background(), http.MethodPost, "/v1/disclosure", body, &d); err != nil {
		return st, err
	}
	st.disclosure = d.Disclosure
	return st, nil
}

// countingTransport counts response bytes the follower fetched.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// recoverResult is one task's timings and what it saw.
type recoverResult struct {
	boot, catchup, open time.Duration
	replay              float64
	applied             int
	fetched             int64
	leader, follower    datasetState
}

func runRecover(ctx context.Context, e *env) (*report, error) {
	sz := recoverSize(e.tiny)
	r := newReport()
	r.sizes["rows"] = sz.rows
	r.sizes["appends"] = sz.appends
	r.sizes["append_batch"] = sz.appendBatch

	t0 := time.Now()
	cfg := synth.Config{Rows: sz.rows + sz.appends*sz.appendBatch, Seed: e.seed}
	gen, err := synth.New(cfg)
	if err != nil {
		return nil, err
	}
	spec := synth.Spec(cfg, gen.Next(sz.rows))
	batches := make([][][]string, sz.appends)
	for i := range batches {
		for _, row := range gen.Next(sz.appendBatch) {
			batches[i] = append(batches[i], row)
		}
	}
	r.set("input_s", "s", time.Since(t0).Seconds())

	// Set-up is building the data directory; each task boots the last one
	// built.
	var dir string
	setups := &setupTimer{step: func() error {
		var err error
		if dir, err = os.MkdirTemp(e.workdir, "recover-data-"); err != nil {
			return err
		}
		return buildDataDir(dir, spec, batches)
	}}
	if err := setups.run(sz.setupReps); err != nil {
		return nil, err
	}

	want := datasetState{Version: int64(sz.appends + 1), Rows: sz.rows + sz.appends*sz.appendBatch}
	var results []recoverResult
	var cur *recoverRun
	times, err := loop(ctx, e, func(i int) error {
		var err error
		cur, err = recoverTask(ctx, e, dir, i+1)
		return err
	}, func(i int, _ bool) error {
		res, err := cur.finish()
		cur = nil
		if err != nil {
			return err
		}
		results = append(results, res)
		if i%recoverSetupEvery != recoverSetupEvery-1 {
			return nil
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		return setups.run(1)
	})
	if err != nil {
		return nil, err
	}
	setups.report(r)
	r.attempted = len(results)
	r.set("failed_frac", "ratio", 0)
	taskStats(r, times)

	var boots, catchups, cycles []float64
	for _, res := range results {
		boots = append(boots, float64(res.boot)/1e6)
		catchups = append(catchups, float64(res.catchup)/1e6)
		cycles = append(cycles, float64(res.boot+res.catchup)/1e6)
	}
	r.set("boot_p50_ms", "ms", median(boots))
	r.set("catchup_p50_ms", "ms", median(catchups))
	r.set("op_p50_ms", "ms", median(cycles))

	if e.tamper {
		results[len(results)-1].follower.Version--
	}
	for t, res := range results {
		for _, s := range []struct {
			who string
			got datasetState
		}{{"booted leader", res.leader}, {"follower", res.follower}} {
			if s.got.Version != want.Version || s.got.Rows != want.Rows {
				r.fail("recover: task %d %s at version %d with %d rows, want %d with %d", t+1, s.who, s.got.Version, s.got.Rows, want.Version, want.Rows)
			}
		}
		if res.follower.disclosure != res.leader.disclosure {
			r.fail("recover: task %d follower disclosure %v, leader %v", t+1, res.follower.disclosure, res.leader.disclosure)
		}
	}
	if e.traced {
		recoverLayers(r, results, times)
	}
	return r, nil
}

// recoverRun is a task that has caught up: its timings and the running
// leader and follower, which finish checks and stops outside the task's
// timing.
type recoverRun struct {
	res              recoverResult
	leader, follower *server.Server
	stops            []func() // in start order; stop runs them in reverse
}

func (rr *recoverRun) stop() {
	for i := len(rr.stops) - 1; i >= 0; i-- {
		rr.stops[i]()
	}
	rr.stops = nil
}

// finish reads the leader's and the follower's state for the check, then
// stops both.
func (rr *recoverRun) finish() (recoverResult, error) {
	defer rr.stop()
	var err error
	if rr.res.leader, err = readState(rr.leader.Handler()); err != nil {
		return rr.res, err
	}
	if rr.res.follower, err = readState(rr.follower.Handler()); err != nil {
		return rr.res, err
	}
	if rr.res.follower.Replication == nil {
		return rr.res, errors.New("follower reports no replication state")
	}
	rr.res.applied = rr.res.follower.Replication.AppliedRecords
	return rr.res, nil
}

// recoverTask boots the data directory, serves it, and bootstraps a
// follower from it until caught up. It returns with both still running;
// on error it stops everything it started.
func recoverTask(ctx context.Context, e *env, dir string, task int) (*recoverRun, error) {
	rr := &recoverRun{}
	ok := false
	defer func() {
		if !ok {
			rr.stop()
		}
	}()
	res := &rr.res
	tr := e.tr
	root := tr.begin("task", 0, task)
	defer tr.end(root)

	t0 := time.Now()
	id := tr.begin("store.open", root, task)
	mgr, err := store.Open(store.Options{Dir: dir})
	tr.end(id)
	res.open = time.Since(t0)
	if err != nil {
		return nil, err
	}
	rr.leader = server.New(server.Config{Store: mgr, MaxRows: recoverMaxRows})
	rr.stops = append(rr.stops, func() { _ = rr.leader.Shutdown(context.Background()) })
	id = tr.begin("server.recover", root, task)
	_, err = rr.leader.RecoverAll()
	tr.end(id)
	res.boot = time.Since(t0)
	if err != nil {
		return nil, err
	}
	m, err := inProcessClient(rr.leader.Handler()).scrape(ctx)
	if err != nil {
		return nil, err
	}
	res.replay = m[fmt.Sprintf("ckprivacyd_replay_seconds{dataset=%q}", serveDataset)]

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: rr.leader.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	rr.stops = append(rr.stops, func() {
		_ = hs.Close()
		<-served
	})

	t1 := time.Now()
	id = tr.begin("replica.catchup", root, task)
	defer tr.end(id)
	rr.follower = server.New(server.Config{ReadOnly: true, MaxRows: recoverMaxRows})
	rr.stops = append(rr.stops, func() { _ = rr.follower.Shutdown(context.Background()) })
	counter := &countingTransport{base: &http.Transport{}}
	f, err := replica.New(replica.Options{
		LeaderURL:    "http://" + ln.Addr().String(),
		Server:       rr.follower,
		Client:       &http.Client{Transport: counter, Timeout: 30 * time.Second},
		PollInterval: 20 * time.Millisecond,
		WaitMS:       50,
		RetryMin:     10 * time.Millisecond,
		RetryMax:     100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	fctx, cancel := context.WithCancel(ctx)
	ran := make(chan error, 1)
	go func() { ran <- f.Run(fctx) }()
	rr.stops = append(rr.stops, func() {
		cancel()
		<-ran
	})
	if err := waitCaughtUp(ctx, f, rr.follower); err != nil {
		return nil, err
	}
	res.catchup = time.Since(t1)
	res.fetched = counter.bytes.Load()
	ok = true
	return rr, nil
}

// waitCaughtUp waits for the follower's initial catch-up and then for it
// to report zero lag.
func waitCaughtUp(ctx context.Context, f *replica.Follower, follower *server.Server) error {
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := f.WaitCaughtUp(wctx); err != nil {
		return fmt.Errorf("follower catch-up: %w", err)
	}
	for {
		var st datasetState
		_, err := inProcessClient(follower.Handler()).do(wctx, http.MethodGet, "/v1/datasets/"+serveDataset, nil, &st)
		if err == nil && st.Replication != nil && st.Replication.CaughtUp && st.Replication.LagRecords == 0 {
			return nil
		}
		select {
		case <-wctx.Done():
			return errors.New("follower never reported zero lag")
		case <-time.After(time.Millisecond):
		}
	}
}

// recoverLayers derives the per-layer metrics from the traced tasks.
func recoverLayers(r *report, results []recoverResult, times []taskTime) {
	var n, open, replay, applied, fetched, rate float64
	for i, res := range results {
		if !times[i].traced {
			continue
		}
		n++
		open += res.open.Seconds()
		replay += res.replay
		applied += float64(res.applied)
		fetched += float64(res.fetched)
		rate += float64(res.applied) / res.catchup.Seconds()
	}
	r.set("store.open_s", "s", open/n)
	r.set("store.replay_s", "s", replay/n)
	r.set("replica.records_applied", "count", applied/n)
	r.set("replica.bytes_fetched", "bytes", fetched/n)
	r.set("replica.records_per_s", "1/s", rate/n)
}
