// Command perfbench is TEA's benchmark: it generates seeded inputs, runs one
// workload against the engine and its serving layers, checks the outputs,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. Run it from the repository root through
// perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-short --seed 1 --seconds 26 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them (PLAN.md says what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_bytes", "bytes"},
	{"steps_per_s", "1/s"},
	{"max_rps", "1/s"},
	{"walk_p50_ms", "ms"},
}

// perLayer lists the per-layer metrics of a traced run. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.walk_p99_ms", "ms"},
	{"temporal.build_s", "s"},
	{"core.prep.candidates_s", "s"},
	{"core.prep.weights_s", "s"},
	{"hpat.index_build_s", "s"},
	{"hpat.aux_index_s", "s"},
	{"hpat.index_bytes", "bytes"},
	{"sampling.edges_per_step", "count"},
	{"sampling.ns_per_call", "ns"},
	{"core.ns_per_step", "ns"},
	{"core.steps_per_walk", "count"},
	{"core.dead_end_share", "share"},
	{"core.run_us", "us"},
	{"server.handler_us", "us"},
	{"server.fixed_us", "us"},
	{"server.response_bytes", "bytes"},
	{"net.transport_us", "us"},
	{"runtime.allocs_per_request", "count"},
	{"runtime.alloc_bytes_per_request", "bytes"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.cpu_us_per_op", "us"},
	{"router.handler_us", "us"},
	{"router.shard_calls_per_request", "count"},
	{"router.useful_call_share", "share"},
	{"router.merge_us", "us"},
	{"shard.handler_us", "us"},
	{"shard.rounds_per_request", "count"},
	{"wire.step_rpc_p50_us", "us"},
	{"wire.step_rpc_p99_us", "us"},
	{"wire.migrations_per_step", "share"},
	{"wire.bytes_per_hop", "bytes"},
	{"wire.step_errors", "count"},
	{"stream.append_us", "us"},
	{"stream.expire_us", "us"},
	{"stream.walk_us", "us"},
	{"stream.memory_bytes", "bytes"},
	{"stream.ingest_p50_ms", "ms"},
	{"stream.ingest_p90_ms", "ms"},
	{"vfs.sync_p50_us", "us"},
	{"vfs.sync_p90_us", "us"},
	{"vfs.syncs_per_batch", "count"},
	{"vfs.write_bytes_per_edge", "bytes"},
	{"vfs.snapshot_bytes", "bytes"},
	{"tracing.overhead_pct", "%"},
}

// env is one invocation's configuration.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	nproc    int
	outDir   string // build and scratch directory inside the checkout
}

// report collects a workload's results.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	checks    []checkResult
}

type checkResult struct {
	Name   string
	OK     bool
	Detail string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0
}

func (r *report) count(ps phaseStats) {
	r.attempted += int64(ps.Attempted)
	r.failed += int64(ps.Failed)
}

var workloads = map[string]func(*env) (*report, error){
	"bulk-long":     runBulkLong,
	"serve-short":   runServeShort,
	"serve-sharded": runServeSharded,
	"ingest-mixed":  runIngestMixed,
}

func main() {
	workload := flag.String("workload", "", "bulk-long, serve-short, serve-sharded or ingest-mixed")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 26, "measured time of the run")
	traced := flag.Int("trace", 0, "1 runs with per-layer wrappers on and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload {bulk-long|serve-short|serve-sharded|ingest-mixed}, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traced == 1,
		nproc:    runtime.NumCPU(),
		outDir:   filepath.Join(".bench_build", "perfbench"),
	}
	runtime.GOMAXPROCS(e.nproc)
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d go=%s\n",
		e.workload, e.seed, e.seconds, e.traced, runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(emit(e, rep))
}

// emit prints the checks, every metric, and the result line; it returns
// the exit code.
func emit(e *env, rep *report) int {
	for _, c := range rep.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Printf("# check %-28s %-6s %s\n", c.Name, status, c.Detail)
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	out := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%-34s %16.6g %s\n", d.Name, v, d.Unit)
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	share := 0.0
	if rep.attempted > 0 {
		share = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("# attempted=%d failed=%d failed_share=%g\n", rep.attempted, rep.failed, share)
	line, err := json.Marshal(map[string]any{
		"correct":   rep.correct(),
		"attempted": max64(rep.attempted, 1),
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// listener serves one handler on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed on close
		close(l.done)
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

// timedSetups builds the system k times and returns each build's time in
// seconds with the last system; each earlier one is torn down first. The
// metric is the median of several set-ups, so one slow build does not
// decide it.
func timedSetups[T any](k int, build func() (T, error), teardown func(T)) ([]float64, T, error) {
	var last T
	var times []float64
	for i := 0; i < k; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		t0 := time.Now()
		sys, err := build()
		if err != nil {
			return nil, last, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = sys
	}
	return times, last, nil
}

// cpuTime returns the process's user plus system CPU time. Unlike wall
// time it does not grow while the host runs other guests on our CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap returns the live heap after a full collection. heap_bytes is
// its growth over set-up, so the benchmark's own generated input, which
// stays reachable, is not counted.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// rtSample reads the Go runtime counters the per-layer metrics difference.
type rtSample struct{ allocs, allocBytes, gcCPU, totalCPU float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{val(0), val(1), val(2), val(3)}
}

// runtimeLayer records allocation and GC metrics between two samples
// spanning ops requests.
func runtimeLayer(m map[string]float64, a, b rtSample, ops int) {
	if ops <= 0 {
		return
	}
	m["runtime.allocs_per_request"] = (b.allocs - a.allocs) / float64(ops)
	m["runtime.alloc_bytes_per_request"] = (b.allocBytes - a.allocBytes) / float64(ops)
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = (b.gcCPU - a.gcCPU) / cpu
	}
}

// writeTrace writes the run's spans and prints the self-time table.
func writeTrace(e *env, t *tracer) ([]span, map[string]*layerTime) {
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	path := filepath.Join(e.outDir, fmt.Sprintf("trace-%s-%d.json", e.workload, e.seed))
	if err := writeChrome(path, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
	} else {
		fmt.Printf("# trace: %d spans (%d dropped) in %s\n", len(spans), t.dropped, path)
	}
	rows := selfTimes(spans)
	printSelfTimes(os.Stdout, rows)
	return spans, rows
}

// overhead prints and records the tracing overhead: how much worse the
// traced pass measured than the untraced one, in percent.
func overhead(m map[string]float64, what string, untraced, traced float64, higherBetter bool) {
	pct := 100 * (traced - untraced) / untraced
	if higherBetter {
		pct = 100 * (untraced - traced) / untraced
	}
	fmt.Printf("# tracing overhead on %s: untraced %.4g, traced %.4g, %+.1f%%\n", what, untraced, traced, pct)
	m["tracing.overhead_pct"] = pct
}
