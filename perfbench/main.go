// Command perfbench is the repository's benchmark. It runs one named
// workload in its own process, checks every answer the system gave, and
// prints one JSON result line last on standard output:
//
//	perfbench -workload audit -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics derived from spans recorded around the
// calls into each layer. A human-readable report and a config-keyed ledger
// row (see compare.go) go to standard error.
//
// run.sh builds this program and the daemon inside the checkout and is
// the entry point named in BENCHMARK.json.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of each workload sees; every workload
// reports all of them (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer are the metrics of single layers, from the traced run. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"table.encode_s", "s"},
	{"hierarchy.compile_s", "s"},
	{"bucket.scan_s", "s"},
	{"bucket.coarsen_s", "s"},
	{"bucket.buckets_out", "count"},
	{"bucket.arena_reuse_ratio", "ratio"},
	{"anonymize.sweep_s", "s"},
	{"anonymize.sweep_allocs", "count"},
	{"anonymize.sweep_alloc_mb", "MB"},
	{"anonymize.predicted_over_actual_buckets", "ratio"},
	{"anonymize.cache_hit_ratio", "ratio"},
	{"anonymize.append_patched_nodes", "count"},
	{"core.disclosure_s", "s"},
	{"core.evals", "count"},
	{"core.memo_hits", "count"},
	{"core.memo_misses", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.memo_bytes", "bytes"},
	{"lattice.evaluated", "count"},
	{"lattice.inferred", "count"},
	{"lattice.search_self_s", "s"},
	{"server.disclosure.handler_ms", "ms"},
	{"server.disclosure.outside_ms", "ms"},
	{"server.check.handler_ms", "ms"},
	{"server.check.outside_ms", "ms"},
	{"server.append.handler_ms", "ms"},
	{"server.append.outside_ms", "ms"},
	{"server.info.handler_ms", "ms"},
	{"server.info.outside_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.shed", "count"},
	{"store.fsyncs", "count"},
	{"store.fsync_mean_ms", "ms"},
	{"store.wal_bytes_per_row", "bytes"},
	{"store.open_s", "s"},
	{"store.replay_s", "s"},
	{"replica.records_applied", "count"},
	{"replica.bytes_fetched", "bytes"},
	{"replica.records_per_s", "1/s"},
	{"gen.lateness_p99_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload measured and checked.
type report struct {
	attempted, failed int
	// problems lists every failed correctness check; empty means correct.
	problems []string
	// metrics holds the end-to-end metrics, the workload's own named
	// metrics and, on traced runs, the per-layer metrics.
	metrics map[string]metric
	// sizes are the input sizes, part of the ledger row's config key.
	sizes map[string]int
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), sizes: make(map[string]int)}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// env is what every workload receives.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	tr      *tracer
	workdir string // scratch space inside the checkout
	daemon  string // path of the ckprivacyd binary (serve)
	// start, when non-nil, replaces starting the daemon binary (tests
	// serve the daemon's handler in-process).
	start startFunc
	tiny  bool // smoke-test sizes
	// tamper corrupts one answer before it is checked; tests use it to
	// show that each workload's check can fail.
	tamper bool
	log    io.Writer
}

// logf writes a progress line to the log.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: "+format+"\n", args...)
}

// workload runs one named workload.
type workload func(ctx context.Context, e *env) (*report, error)

var workloads = map[string]workload{
	"audit":    runAudit,
	"sanitize": runSanitize,
	"serve":    runServe,
	"recover":  runRecover,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses flags, runs the workload and prints the result line.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: audit, sanitize, serve or recover")
		seed    = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", 15, "how long to measure")
		trace   = fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
		workdir = fs.String("workdir", ".bench_build/run", "scratch directory for data directories and traces")
		daemon  = fs.String("daemon", ".bench_build/bin/ckprivacyd", "ckprivacyd binary the serve workload starts")
		ledger  = fs.String("ledger", "", "append the config-keyed result row to this JSONL file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want audit, sanitize, serve or recover)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workdir, *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workdir: dir,
		daemon:  *daemon,
		log:     stderr,
	}
	if e.traced {
		e.tr = newTracer()
	}
	// Every run must end well inside three minutes; the workloads stop
	// measuring at -seconds and this bounds their set-up and checks.
	ctx, cancel := context.WithTimeout(context.Background(), e.seconds+120*time.Second)
	defer cancel()
	rep, err := wl(ctx, e)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if e.traced {
		spans := e.tr.snapshot()
		rep.set("trace.spans", "count", float64(len(spans)))
		rep.set("trace.coverage", "ratio", rootCoverage(spans, "task"))
		if err := e.tr.write(filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.json", *name, *seed))); err != nil {
			return err
		}
	}
	row := ledgerRow{
		Config:    newConfigKey(*name, *seed, *seconds, e.traced, rep.sizes),
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	printReport(stderr, row, rep.problems)
	if *ledger != "" {
		if err := appendRow(*ledger, row); err != nil {
			return err
		}
	}
	return printResult(stdout, row, e.traced)
}

// printResult writes the result line, last on standard output: the end-to-end
// metrics, or on a traced run every per-layer metric (0 where the
// workload does not exercise the layer).
func printResult(w io.Writer, row ledgerRow, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := row.Metrics[d.Name]
		if !ok {
			if !traced {
				return fmt.Errorf("workload did not measure %s", d.Name)
			}
			m = metric{Unit: d.Unit}
		}
		out[d.Name] = m
	}
	attempted := row.Attempted
	if attempted < 1 {
		return errors.New("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{row.Correct, attempted, row.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// printReport writes every metric the run measured, by name and unit,
// plus any failed check.
func printReport(w io.Writer, row ledgerRow, problems []string) {
	names := make([]string, 0, len(row.Metrics))
	for n := range row.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench: %s seed=%d attempted=%d failed=%d correct=%v\n",
		row.Config.Workload, row.Config.Seed, row.Attempted, row.Failed, row.Correct)
	for _, n := range names {
		m := row.Metrics[n]
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// configKey identifies what a result row measured and where: rows are
// only comparable when everything but Seed and GitSHA agrees.
type configKey struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Traced     bool           `json:"traced"`
	Sizes      map[string]int `json:"sizes"`
	GitSHA     string         `json:"git_sha"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
}

func newConfigKey(workload string, seed int64, seconds int, traced bool, sizes map[string]int) configKey {
	return configKey{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		Sizes:      sizes,
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// gitSHA is the revision the binary was built from: the build's VCS
// stamp, else $BENCH_GIT_SHA, else "unknown" (a source checkout without
// .git carries no revision).
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if v := os.Getenv("BENCH_GIT_SHA"); v != "" {
		return v
	}
	return "unknown"
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads a process's high-water resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// minTasks is how many tasks a run completes even past its deadline, so
// every check has a second task to compare against the first.
const minTasks = 2

// taskTime is one task's wall and CPU time, its peak resident set and
// whether it was traced.
type taskTime struct {
	wall, cpu time.Duration
	rssMB     float64
	traced    bool
}

// loop runs task until the measuring window closes (always at least
// minTasks times) and returns each task's times. On a traced run every
// other task is untraced, so the run can report its own tracing overhead.
// After each task, outside its timing, after (if non-nil) runs with the
// task's index and whether it was traced: the workloads' per-task checks,
// teardown, probes and interleaved set-up repetitions go there.
func loop(ctx context.Context, e *env, task func(i int) error, after func(i int, traced bool) error) ([]taskTime, error) {
	var times []taskTime
	begin := time.Now()
	for i := 0; i < minTasks || time.Since(begin) < e.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		on := e.traced && i%2 == 0
		// Every task starts from a collected heap with the resident-set
		// high-water mark reset, so no task pays for the previous one's
		// garbage and each task's peak is its own.
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		e.tr.setOn(on)
		c0, t0 := cpuTime(), time.Now()
		err := task(i)
		t := taskTime{wall: time.Since(t0), cpu: cpuTime() - c0, traced: on}
		e.tr.setOn(false)
		if err != nil {
			return nil, err
		}
		if t.rssMB, err = peakRSSMB(os.Getpid()); err != nil {
			return nil, err
		}
		times = append(times, t)
		if after != nil {
			if err := after(i, on); err != nil {
				return nil, err
			}
		}
	}
	return times, nil
}

// resetPeakRSS resets this process's VmHWM to its current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is a process's user plus system CPU time from /proc, in
// USER_HZ (100 per second) ticks.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, v := range f[11:13] { // utime, stime
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// taskStats sets op_p50_ms, cpu_ms_per_op and peak_rss_mb (the median
// task's peak) from loop's task times and, on traced runs, the tracing
// overhead: the median traced task against the median untraced one.
func taskStats(r *report, times []taskTime) {
	var all, cpu, rss, on, off []float64
	for _, t := range times {
		ms := float64(t.wall) / 1e6
		all = append(all, ms)
		cpu = append(cpu, float64(t.cpu)/1e6)
		rss = append(rss, t.rssMB)
		if t.traced {
			on = append(on, ms)
		} else {
			off = append(off, ms)
		}
	}
	r.set("op_p50_ms", "ms", median(all))
	r.set("cpu_ms_per_op", "ms", median(cpu))
	r.set("peak_rss_mb", "MB", median(rss))
	if len(on) > 0 && len(off) > 0 {
		r.set("trace.overhead_pct", "%", 100*(median(on)/median(off)-1))
	}
}

// taskSeconds is the tasks' total wall time, the denominator of the
// throughput figures.
func taskSeconds(times []taskTime) float64 {
	var d time.Duration
	for _, t := range times {
		d += t.wall
	}
	return d.Seconds()
}

// setupTimer times repetitions of a set-up step, each from a collected
// heap; setup_s is their median. Workloads run some repetitions before
// the first task and, where a repetition can run between tasks, one
// after each task, so the repetitions spread over the whole run and a
// slow spell of the machine moves only a few of them.
type setupTimer struct {
	step func() error
	ts   []float64
}

// run times reps more repetitions.
func (s *setupTimer) run(reps int) error {
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := s.step(); err != nil {
			return err
		}
		s.ts = append(s.ts, time.Since(t0).Seconds())
	}
	return nil
}

// report sets setup_s and the number of repetitions behind it.
func (s *setupTimer) report(r *report) {
	r.set("setup_s", "s", median(s.ts))
	r.set("setup_reps", "count", float64(len(s.ts)))
}
