package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// bulk-long: offline corpus generation, R exponential walks of length 80
// from every vertex of the layered long-walk graph, with one thread per
// core and the default kernel. The only workload where the engine's walk
// loop and the sampler do nearly all the work.
var bulkPlan = struct {
	WalksPerVertex, Length int
	MinStepsPerWalk        float64
	CheckSources           int // sources of the determinism check runs
}{WalksPerVertex: 1, Length: 80, MinStepsPerWalk: 50, CheckSources: 4096}

type bulkRun struct {
	dur   time.Duration
	steps int64
	cost  float64 // steps per walk
	dead  float64
	evals float64
}

func runBulkLong(e *env) (*report, error) {
	rep := newReport()
	sd := seeds(e.seed, 4)
	edges := longGraph.edges(sd[0])
	app := core.ExponentialWalk(lambdaFor(edges))
	var buildS float64
	build := func() (*core.Engine, error) {
		t0 := time.Now()
		g, err := temporal.FromEdges(edges, temporal.WithNumVertices(longGraph.numVertices()))
		if err != nil {
			return nil, err
		}
		buildS = time.Since(t0).Seconds()
		return core.NewEngine(g, app, core.Options{})
	}
	k := 3
	if e.traced {
		k = 1
	}
	heap0 := liveHeap()
	setups, eng, err := timedSetups(k, build, func(*core.Engine) {})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["heap_bytes"] = liveHeap() - heap0
	layerPrep(rep.metrics, eng, buildS)
	fmt.Printf("# bulk-long: layered V=%d E=%d (%d layers), R=%d L=%d, threads=%d\n",
		longGraph.numVertices(), len(edges), longGraph.Layers, bulkPlan.WalksPerVertex, bulkPlan.Length, e.nproc)

	unfinished := 0 // runs whose walks were not all classified
	measure := func(eng *core.Engine, budget time.Duration, seed uint64) ([]bulkRun, error) {
		var runs []bulkRun
		r := xrand.New(seed)
		t0 := time.Now()
		for len(runs) == 0 || time.Since(t0) < budget {
			res, err := eng.RunContext(context.Background(), core.WalkConfig{
				WalksPerVertex: bulkPlan.WalksPerVertex,
				Length:         bulkPlan.Length,
				Threads:        e.nproc,
				Seed:           r.Uint64(),
			})
			rep.attempted++
			if err != nil {
				rep.failed++
				return runs, err
			}
			c := res.Cost
			if c.WalksStarted != c.WalksFinished() {
				rep.failed++
				unfinished++
			}
			runs = append(runs, bulkRun{
				dur:   res.Duration,
				steps: c.Steps,
				cost:  float64(c.Steps) / float64(c.WalksStarted),
				dead:  float64(c.WalksDeadEnded) / float64(c.WalksStarted),
				evals: c.EdgesPerStep(),
			})
		}
		return runs, nil
	}
	stepsPerS := func(runs []bulkRun) []float64 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = float64(r.steps) / r.dur.Seconds()
		}
		return v
	}
	checkSources := sampleSources(sd[2], longGraph.numVertices(), bulkPlan.CheckSources)

	if !e.traced {
		before := time.Now()
		runs, err := measure(eng, time.Duration(e.seconds*float64(time.Second)), sd[1])
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(before)
		var ms, spw []float64
		for _, r := range runs {
			ms = append(ms, float64(r.dur)/1e6)
			spw = append(spw, r.cost)
		}
		rep.metrics["steps_per_s"] = median(stepsPerS(runs))
		rep.metrics["walk_p50_ms"] = median(ms)
		rep.metrics["max_rps"] = float64(len(runs)) / elapsed.Seconds()
		fmt.Printf("# %d corpus runs, slowest %.1fms\n", len(runs), quantile(ms, 1))
		minSPW := quantile(spw, 0)
		rep.check("steps per walk >= 50", minSPW >= bulkPlan.MinStepsPerWalk, "lowest run mean %.2f", minSPW)
		rep.check("walks started == finished", unfinished == 0, "%d of %d runs differ", unfinished, len(runs))
		d1, err1 := pathDigest(eng, checkSources, sd[3])
		d2, err2 := pathDigest(eng, checkSources, sd[3])
		rep.check("same seed, same paths", err1 == nil && err2 == nil && d1 == d2, "%016x vs %016x", d1, d2)
		return rep, nil
	}

	// Traced run: half the time on the plain engine, half on an engine whose
	// sampler is wrapped to time every draw; both share the HPAT index.
	half := time.Duration(e.seconds / 2 * float64(time.Second))
	cpu0 := cpuTime()
	plain, err := measure(eng, half, sd[1])
	if err != nil {
		return nil, err
	}
	rep.metrics["runtime.cpu_us_per_op"] = float64((cpuTime() - cpu0).Microseconds()) / float64(len(plain))
	bs, _ := eng.Sampler().(core.BatchSampler)
	ts := &timedSampler{inner: bs}
	teng, err := core.NewEngine(eng.Graph(), app, core.Options{ExternalSampler: ts, ExternalWeights: eng.Weights()})
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	rt0 := readRuntime()
	var traced []bulkRun
	t0 := time.Now()
	for len(traced) == 0 || time.Since(t0) < half {
		sp := tr.begin("core.run", fmt.Sprintf("corpus-%d", len(traced)), 0, "")
		runs, err := measure(teng, 0, sd[1]+uint64(len(traced)))
		if err != nil {
			return nil, err
		}
		tr.finish(sp, "")
		traced = append(traced, runs...)
	}
	rt1 := readRuntime()
	runtimeLayer(rep.metrics, rt0, rt1, len(traced))
	dU, errU := pathDigest(eng, checkSources, sd[3])
	dT, errT := pathDigest(teng, checkSources, sd[3])
	rep.check("traced digest == untraced", errU == nil && errT == nil && dU == dT, "%016x vs %016x", dU, dT)
	rep.check("walks started == finished", unfinished == 0, "%d of %d runs differ", unfinished, len(plain)+len(traced))

	var spw, dead, evals, nsPerStep []float64
	for _, r := range plain {
		spw = append(spw, r.cost)
		dead = append(dead, r.dead)
		evals = append(evals, r.evals)
		nsPerStep = append(nsPerStep, float64(r.dur.Nanoseconds())*float64(e.nproc)/float64(r.steps))
	}
	rep.metrics["core.steps_per_walk"] = median(spw)
	rep.metrics["core.dead_end_share"] = median(dead)
	rep.metrics["sampling.edges_per_step"] = median(evals)
	rep.metrics["core.ns_per_step"] = median(nsPerStep)
	rep.metrics["sampling.ns_per_call"] = ts.nsPerCall()
	rep.metrics["core.run_us"] = float64(median(durations(plain))) / 1e3
	rep.check("steps per walk >= 50", median(spw) >= bulkPlan.MinStepsPerWalk, "median run mean %.2f", median(spw))
	overhead(rep.metrics, "steps/s", median(stepsPerS(plain)), median(stepsPerS(traced)), true)
	writeTrace(e, tr)
	// The walk loop and the sampler run on every thread at once, so their
	// split is in thread time: run wall time times threads, of which the
	// timed draws are the sampler's share.
	var threadNS float64
	for _, r := range traced {
		threadNS += float64(r.dur.Nanoseconds()) * float64(e.nproc)
	}
	sampNS := float64(ts.ns.Load())
	fmt.Printf("# thread-time self split: core %.1f ms, sampling %.1f ms (%.1f%% sampling)\n",
		(threadNS-sampNS)/1e6, sampNS/1e6, 100*sampNS/threadNS)
	return rep, nil
}

func durations(runs []bulkRun) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = float64(r.dur.Nanoseconds())
	}
	return v
}

// sampleSources draws n distinct seeded sources from [0, numV), sorted.
func sampleSources(seed uint64, numV, n int) []temporal.Vertex {
	r := xrand.New(seed)
	seen := make(map[temporal.Vertex]bool, n)
	out := make([]temporal.Vertex, 0, n)
	for len(out) < n && len(out) < numV {
		v := temporal.Vertex(r.IntN(numV))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pathDigest runs the check corpus with paths kept and hashes them in
// walk order.
func pathDigest(eng *core.Engine, sources []temporal.Vertex, seed uint64) (uint64, error) {
	res, err := eng.RunContext(context.Background(), core.WalkConfig{
		WalksPerVertex: bulkPlan.WalksPerVertex,
		Length:         bulkPlan.Length,
		StartVertices:  sources,
		Seed:           seed,
		KeepPaths:      true,
	})
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for k := range b {
			b[k] = byte(v >> (8 * k))
		}
		h.Write(b[:])
	}
	for _, p := range res.Paths {
		put(uint64(len(p.Vertices)))
		for i, v := range p.Vertices {
			put(uint64(v))
			if i > 0 {
				put(uint64(p.Times[i-1]))
			}
		}
	}
	return h.Sum64(), nil
}
