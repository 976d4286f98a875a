package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"ckprivacy/internal/bucket"
)

// metrics collects per-endpoint request counts and latency sums plus job
// counters, and renders them — together with the live cache and queue
// gauges read off the server — in Prometheus text exposition format. Only
// the stdlib is used; the small fixed label space keeps a mutex-protected
// map cheap enough for the request path.
type metrics struct {
	mu sync.Mutex
	// requests counts finished requests by (route pattern, status code).
	requests map[requestKey]uint64
	// latencySum/latencyCount accumulate seconds by route pattern.
	latencySum   map[string]float64
	latencyCount map[string]uint64
	// jobs counts job submissions by terminal state ("queued" counts
	// submissions; "done", "failed", "cancelled" count completions).
	jobs map[string]uint64
}

type requestKey struct {
	pattern string
	code    int
}

func newMetrics() *metrics {
	return &metrics{
		requests:     make(map[requestKey]uint64),
		latencySum:   make(map[string]float64),
		latencyCount: make(map[string]uint64),
		jobs:         make(map[string]uint64),
	}
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler to record count and latency under the route
// pattern label.
func (m *metrics) instrument(pattern string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		begin := time.Now()
		h.ServeHTTP(rec, r)
		elapsed := time.Since(begin).Seconds()
		m.mu.Lock()
		m.requests[requestKey{pattern, rec.code}]++
		m.latencySum[pattern] += elapsed
		m.latencyCount[pattern]++
		m.mu.Unlock()
	})
}

// countJob bumps one job-state counter.
func (m *metrics) countJob(state string) {
	m.mu.Lock()
	m.jobs[state]++
	m.mu.Unlock()
}

// writeTo renders the metrics for the /metrics endpoint. Families are
// sorted so the output is deterministic (and therefore testable).
func (m *metrics) writeTo(w io.Writer, s *Server) {
	m.mu.Lock()
	reqKeys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].pattern != reqKeys[j].pattern {
			return reqKeys[i].pattern < reqKeys[j].pattern
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	latKeys := make([]string, 0, len(m.latencySum))
	for k := range m.latencySum {
		latKeys = append(latKeys, k)
	}
	sort.Strings(latKeys)
	jobKeys := make([]string, 0, len(m.jobs))
	for k := range m.jobs {
		jobKeys = append(jobKeys, k)
	}
	sort.Strings(jobKeys)

	fmt.Fprintln(w, "# HELP ckprivacyd_requests_total Finished HTTP requests by route and status code.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_requests_total counter")
	for _, k := range reqKeys {
		fmt.Fprintf(w, "ckprivacyd_requests_total{route=%q,code=\"%d\"} %d\n", k.pattern, k.code, m.requests[k])
	}
	fmt.Fprintln(w, "# HELP ckprivacyd_request_seconds Summed wall-clock request latency by route.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_request_seconds summary")
	for _, k := range latKeys {
		fmt.Fprintf(w, "ckprivacyd_request_seconds_sum{route=%q} %g\n", k, m.latencySum[k])
		fmt.Fprintf(w, "ckprivacyd_request_seconds_count{route=%q} %d\n", k, m.latencyCount[k])
	}
	fmt.Fprintln(w, "# HELP ckprivacyd_jobs_total Anonymization jobs by lifecycle event.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_jobs_total counter")
	for _, k := range jobKeys {
		fmt.Fprintf(w, "ckprivacyd_jobs_total{event=%q} %d\n", k, m.jobs[k])
	}
	m.mu.Unlock()

	// Live gauges read outside the metrics lock: engine memos, per-dataset
	// bucketization caches, queue depth. Engine stats are per-shard atomic
	// reads — a scrape never takes a memo shard lock, so it cannot stall
	// DP workers mid-request.
	es := s.engine.Stats()
	is := s.inline.Stats()
	fmt.Fprintln(w, "# HELP ckprivacyd_engine_memo_hits_total Disclosure-engine MINIMIZE1 memo hits.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_engine_memo_hits_total counter")
	fmt.Fprintf(w, "ckprivacyd_engine_memo_hits_total %d\n", es.Hits)
	fmt.Fprintln(w, "# HELP ckprivacyd_engine_memo_misses_total Disclosure-engine MINIMIZE1 memo misses.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_engine_memo_misses_total counter")
	fmt.Fprintf(w, "ckprivacyd_engine_memo_misses_total %d\n", es.Misses)
	fmt.Fprintln(w, "# HELP ckprivacyd_engine_memo_entries Distinct histograms with a memoized MINIMIZE1 series.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_engine_memo_entries gauge")
	fmt.Fprintf(w, "ckprivacyd_engine_memo_entries %d\n", es.Entries)
	fmt.Fprintln(w, "# HELP ckprivacyd_engine_memo_bytes Accounted resident bytes of the engine memo, by engine (shared = registered datasets, inline = client-chosen groups).")
	fmt.Fprintln(w, "# TYPE ckprivacyd_engine_memo_bytes gauge")
	fmt.Fprintf(w, "ckprivacyd_engine_memo_bytes{engine=\"shared\"} %d\n", es.Bytes)
	fmt.Fprintf(w, "ckprivacyd_engine_memo_bytes{engine=\"inline\"} %d\n", is.Bytes)
	fmt.Fprintln(w, "# HELP ckprivacyd_engine_memo_evictions_total Memo entries dropped by the CLOCK eviction policy, by engine.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_engine_memo_evictions_total counter")
	fmt.Fprintf(w, "ckprivacyd_engine_memo_evictions_total{engine=\"shared\"} %d\n", es.Evictions)
	fmt.Fprintf(w, "ckprivacyd_engine_memo_evictions_total{engine=\"inline\"} %d\n", is.Evictions)

	fmt.Fprintln(w, "# HELP ckprivacyd_dataset_cache_hits_total Bucketization-cache hits by dataset.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_dataset_cache_hits_total counter")
	infos := s.registry.list()
	for _, info := range infos {
		cs := info.ds.problem.CacheStats()
		fmt.Fprintf(w, "ckprivacyd_dataset_cache_hits_total{dataset=%q} %d\n", info.name, cs.Hits)
	}
	fmt.Fprintln(w, "# HELP ckprivacyd_dataset_cache_misses_total Bucketization-cache misses by dataset.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_dataset_cache_misses_total counter")
	for _, info := range infos {
		cs := info.ds.problem.CacheStats()
		fmt.Fprintf(w, "ckprivacyd_dataset_cache_misses_total{dataset=%q} %d\n", info.name, cs.Misses)
	}
	fmt.Fprintln(w, "# HELP ckprivacyd_dataset_cache_entries Cached bucketizations by dataset.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_dataset_cache_entries gauge")
	for _, info := range infos {
		cs := info.ds.problem.CacheStats()
		fmt.Fprintf(w, "ckprivacyd_dataset_cache_entries{dataset=%q} %d\n", info.name, cs.Entries)
	}
	fmt.Fprintln(w, "# HELP ckprivacyd_dataset_planned_sweeps_total Planned lattice sweeps executed by the dataset's sweep planner.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_dataset_planned_sweeps_total counter")
	for _, info := range infos {
		fmt.Fprintf(w, "ckprivacyd_dataset_planned_sweeps_total{dataset=%q} %d\n", info.name, info.ds.problem.SweepStats().Sweeps)
	}
	fmt.Fprintln(w, "# HELP ckprivacyd_dataset_planned_nodes_total Derivation-DAG nodes scheduled by planned sweeps, by how each was materialized (base_scan = full row scan at a DAG root, coarsened = derived from a parent through a pooled arena, reused = already materialized).")
	fmt.Fprintln(w, "# TYPE ckprivacyd_dataset_planned_nodes_total counter")
	for _, info := range infos {
		ss := info.ds.problem.SweepStats()
		fmt.Fprintf(w, "ckprivacyd_dataset_planned_nodes_total{dataset=%q,path=\"base_scan\"} %d\n", info.name, ss.BaseScans)
		fmt.Fprintf(w, "ckprivacyd_dataset_planned_nodes_total{dataset=%q,path=\"coarsened\"} %d\n", info.name, ss.Coarsened)
		fmt.Fprintf(w, "ckprivacyd_dataset_planned_nodes_total{dataset=%q,path=\"reused\"} %d\n", info.name, ss.Reused)
	}
	fmt.Fprintln(w, "# HELP ckprivacyd_dataset_planned_buckets_total Bucket counts summed over planner-materialized nodes, predicted by the cost model vs actually produced (ratio near 1 means good parent choices).")
	fmt.Fprintln(w, "# TYPE ckprivacyd_dataset_planned_buckets_total counter")
	for _, info := range infos {
		ss := info.ds.problem.SweepStats()
		fmt.Fprintf(w, "ckprivacyd_dataset_planned_buckets_total{dataset=%q,kind=\"predicted\"} %d\n", info.name, ss.PredictedBuckets)
		fmt.Fprintf(w, "ckprivacyd_dataset_planned_buckets_total{dataset=%q,kind=\"actual\"} %d\n", info.name, ss.ActualBuckets)
	}
	arenaGets, arenaReuses := bucket.ArenaStats()
	fmt.Fprintln(w, "# HELP ckprivacyd_arena_gets_total Scratch arenas borrowed from the process-wide coarsening pool.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_arena_gets_total counter")
	fmt.Fprintf(w, "ckprivacyd_arena_gets_total %d\n", arenaGets)
	fmt.Fprintln(w, "# HELP ckprivacyd_arena_reuses_total Arena borrows satisfied without a fresh allocation (gets minus allocs).")
	fmt.Fprintln(w, "# TYPE ckprivacyd_arena_reuses_total counter")
	fmt.Fprintf(w, "ckprivacyd_arena_reuses_total %d\n", arenaReuses)
	fmt.Fprintln(w, "# HELP ckprivacyd_dataset_memo_bytes Accounted bytes of each dataset's problem-scoped engine memo (warmed by anonymize jobs).")
	fmt.Fprintln(w, "# TYPE ckprivacyd_dataset_memo_bytes gauge")
	for _, info := range infos {
		fmt.Fprintf(w, "ckprivacyd_dataset_memo_bytes{dataset=%q} %d\n", info.name, info.ds.problem.Engine().Stats().Bytes)
	}
	fmt.Fprintln(w, "# HELP ckprivacyd_dataset_version Current dataset version (1 at registration, +1 per append).")
	fmt.Fprintln(w, "# TYPE ckprivacyd_dataset_version gauge")
	for _, info := range infos {
		fmt.Fprintf(w, "ckprivacyd_dataset_version{dataset=%q} %d\n", info.name, info.ds.problem.Version())
	}
	fmt.Fprintln(w, "# HELP ckprivacyd_dataset_rows Row count of the current dataset version.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_dataset_rows gauge")
	for _, info := range infos {
		fmt.Fprintf(w, "ckprivacyd_dataset_rows{dataset=%q} %d\n", info.name, info.ds.problem.Rows())
	}
	fmt.Fprintln(w, "# HELP ckprivacyd_dataset_releases Retained recorded releases per dataset.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_dataset_releases gauge")
	for _, info := range infos {
		rs, _ := info.ds.releases.snapshot()
		fmt.Fprintf(w, "ckprivacyd_dataset_releases{dataset=%q} %d\n", info.name, len(rs))
	}

	fmt.Fprintln(w, "# HELP ckprivacyd_dataset_recovered How each dataset entered this process (cold, snapshot or wal_replay); always 1.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_dataset_recovered gauge")
	for _, info := range infos {
		fmt.Fprintf(w, "ckprivacyd_dataset_recovered{dataset=%q,mode=%q} 1\n", info.name, info.ds.recovered)
	}

	// Durability gauges for persisted datasets: live WAL size, compaction
	// recency, boot replay cost and fsync latency.
	persisted := make([]namedDataset, 0, len(infos))
	for _, info := range infos {
		if info.ds.persist != nil {
			persisted = append(persisted, info)
		}
	}
	if len(persisted) > 0 {
		fmt.Fprintln(w, "# HELP ckprivacyd_wal_bytes Bytes in the dataset's live WAL segment (header included).")
		fmt.Fprintln(w, "# TYPE ckprivacyd_wal_bytes gauge")
		for _, info := range persisted {
			fmt.Fprintf(w, "ckprivacyd_wal_bytes{dataset=%q} %d\n", info.name, info.ds.persist.log.Bytes())
		}
		fmt.Fprintln(w, "# HELP ckprivacyd_wal_records Append/release records in the dataset's live WAL segment.")
		fmt.Fprintln(w, "# TYPE ckprivacyd_wal_records gauge")
		for _, info := range persisted {
			fmt.Fprintf(w, "ckprivacyd_wal_records{dataset=%q} %d\n", info.name, info.ds.persist.log.Records())
		}
		fmt.Fprintln(w, "# HELP ckprivacyd_last_compaction_timestamp_seconds Unix time of the dataset's last WAL compaction; 0 if never compacted in this process.")
		fmt.Fprintln(w, "# TYPE ckprivacyd_last_compaction_timestamp_seconds gauge")
		for _, info := range persisted {
			var ts float64
			if lc := info.ds.persist.log.LastCompaction(); !lc.IsZero() {
				ts = float64(lc.UnixNano()) / 1e9
			}
			fmt.Fprintf(w, "ckprivacyd_last_compaction_timestamp_seconds{dataset=%q} %g\n", info.name, ts)
		}
		fmt.Fprintln(w, "# HELP ckprivacyd_replay_seconds Boot recovery time per dataset (snapshot decode + WAL replay); 0 for datasets registered in this process.")
		fmt.Fprintln(w, "# TYPE ckprivacyd_replay_seconds gauge")
		for _, info := range persisted {
			fmt.Fprintf(w, "ckprivacyd_replay_seconds{dataset=%q} %g\n", info.name, info.ds.persist.replaySeconds)
		}
		fmt.Fprintln(w, "# HELP ckprivacyd_wal_fsync_seconds Summed WAL fsync latency per dataset (count is fsyncs performed; both 0 when -wal-fsync is off).")
		fmt.Fprintln(w, "# TYPE ckprivacyd_wal_fsync_seconds summary")
		for _, info := range persisted {
			n, total := info.ds.persist.log.FsyncStats()
			fmt.Fprintf(w, "ckprivacyd_wal_fsync_seconds_sum{dataset=%q} %g\n", info.name, total.Seconds())
			fmt.Fprintf(w, "ckprivacyd_wal_fsync_seconds_count{dataset=%q} %d\n", info.name, n)
		}
	}

	// Replication gauges for follower datasets: applied position, leader
	// position and the resulting lag.
	replicas := make([]namedDataset, 0, len(infos))
	for _, info := range infos {
		if info.ds.repl != nil {
			replicas = append(replicas, info)
		}
	}
	if len(replicas) > 0 {
		type replRow struct {
			name string
			pr   ReplicaProgress
			lag  float64
		}
		rows := make([]replRow, len(replicas))
		for i, info := range replicas {
			pr, lag, _ := info.ds.repl.status()
			rows[i] = replRow{info.name, pr, lag}
		}
		fmt.Fprintln(w, "# HELP ckprivacyd_replica_lag_records WAL records the leader has committed that this follower has not applied.")
		fmt.Fprintln(w, "# TYPE ckprivacyd_replica_lag_records gauge")
		for _, row := range rows {
			fmt.Fprintf(w, "ckprivacyd_replica_lag_records{dataset=%q} %d\n", row.name, row.pr.lagRecords())
		}
		fmt.Fprintln(w, "# HELP ckprivacyd_replica_lag_seconds How long the follower has been behind the leader; 0 when caught up.")
		fmt.Fprintln(w, "# TYPE ckprivacyd_replica_lag_seconds gauge")
		for _, row := range rows {
			fmt.Fprintf(w, "ckprivacyd_replica_lag_seconds{dataset=%q} %g\n", row.name, row.lag)
		}
		fmt.Fprintln(w, "# HELP ckprivacyd_replica_applied_version Dataset version the follower has applied.")
		fmt.Fprintln(w, "# TYPE ckprivacyd_replica_applied_version gauge")
		for _, row := range rows {
			fmt.Fprintf(w, "ckprivacyd_replica_applied_version{dataset=%q} %d\n", row.name, row.pr.AppliedVersion)
		}
		fmt.Fprintln(w, "# HELP ckprivacyd_replica_applied_offset Leader WAL byte offset the follower has applied through.")
		fmt.Fprintln(w, "# TYPE ckprivacyd_replica_applied_offset gauge")
		for _, row := range rows {
			fmt.Fprintf(w, "ckprivacyd_replica_applied_offset{dataset=%q} %d\n", row.name, row.pr.AppliedOffset)
		}
		fmt.Fprintln(w, "# HELP ckprivacyd_replica_leader_offset Leader committed WAL byte size as of the follower's latest fetch.")
		fmt.Fprintln(w, "# TYPE ckprivacyd_replica_leader_offset gauge")
		for _, row := range rows {
			fmt.Fprintf(w, "ckprivacyd_replica_leader_offset{dataset=%q} %d\n", row.name, row.pr.LeaderCommitted)
		}
	}
	if s.cfg.ReadOnly {
		ready := 0
		if s.ready.Load() {
			ready = 1
		}
		fmt.Fprintln(w, "# HELP ckprivacyd_replica_ready Whether the follower has completed initial catch-up (mirrors /readyz).")
		fmt.Fprintln(w, "# TYPE ckprivacyd_replica_ready gauge")
		fmt.Fprintf(w, "ckprivacyd_replica_ready %d\n", ready)
	}

	if boot, ok := s.bootSeconds.Load().(float64); ok {
		fmt.Fprintln(w, "# HELP ckprivacyd_boot_seconds Daemon startup duration (store recovery and preloads included).")
		fmt.Fprintln(w, "# TYPE ckprivacyd_boot_seconds gauge")
		fmt.Fprintf(w, "ckprivacyd_boot_seconds %g\n", boot)
	}

	fmt.Fprintln(w, "# HELP ckprivacyd_datasets_registered Registered datasets.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_datasets_registered gauge")
	fmt.Fprintf(w, "ckprivacyd_datasets_registered %d\n", len(infos))

	fmt.Fprintln(w, "# HELP ckprivacyd_jobs_queue_depth Jobs waiting in the bounded queue.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_jobs_queue_depth gauge")
	fmt.Fprintf(w, "ckprivacyd_jobs_queue_depth %d\n", s.jobs.queueDepth())

	fmt.Fprintln(w, "# HELP ckprivacyd_uptime_seconds Seconds since the server started.")
	fmt.Fprintln(w, "# TYPE ckprivacyd_uptime_seconds gauge")
	fmt.Fprintf(w, "ckprivacyd_uptime_seconds %g\n", time.Since(s.start).Seconds())
}
