package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/server"
	"github.com/tea-graph/tea/internal/temporal"
)

// serve-short: one server.New over the growth profile. Walks there average
// about two steps, so per-request fixed cost (HTTP, run set-up, JSON,
// GC) dominates and the sampler does almost nothing.
var serveShortPlan = struct {
	FixedRate     float64
	Count         int
	Length        int
	LimitMS       float64
	SetupsPerRung int
}{FixedRate: 2000, Count: 10, Length: 80, LimitMS: 150, SetupsPerRung: 3}

type shortSys struct {
	eng *core.Engine
	srv *server.Server
	l   *listener
	sp  *timedSampler
}

func runServeShort(e *env) (*report, error) {
	rep := newReport()
	sd := seeds(e.seed, 4)
	edges := growth(sd[0]).Generate()
	app := core.ExponentialWalk(lambdaFor(edges))
	var tr *tracer
	if e.traced {
		tr = newTracer()
	}
	var buildS float64
	build := func() (*shortSys, error) {
		t0 := time.Now()
		g, err := temporal.FromEdges(edges)
		if err != nil {
			return nil, err
		}
		buildS = time.Since(t0).Seconds()
		eng, err := core.NewEngine(g, app, core.Options{})
		if err != nil {
			return nil, err
		}
		sys := &shortSys{eng: eng}
		srvEng := eng
		if tr != nil {
			bs, _ := eng.Sampler().(core.BatchSampler)
			sys.sp = &timedSampler{inner: bs}
			srvEng, err = core.NewEngine(g, app, core.Options{ExternalSampler: sys.sp, ExternalWeights: eng.Weights()})
			if err != nil {
				return nil, err
			}
		}
		sys.srv = server.New(srvEng)
		var h http.Handler = sys.srv.Handler()
		if tr != nil {
			h = &handlerSpans{t: tr, layer: "server", next: h, facts: runFacts(tr)}
		}
		sys.l, err = serve(h)
		return sys, err
	}
	k := 9
	if e.traced {
		k = 1
	}
	closeSys := func(s *shortSys) { s.l.close() }
	heap0 := liveHeap()
	setups, sys, err := timedSetups(k, build, closeSys)
	if err != nil {
		return nil, err
	}
	defer sys.l.close()
	rep.metrics["heap_bytes"] = liveHeap() - heap0
	layerPrep(rep.metrics, sys.eng, buildS)

	mix := walkMix{NumV: sys.eng.Graph().NumVertices(), Count: serveShortPlan.Count, Lengths: []int{serveShortPlan.Length}, KeepEvery: 40}
	plan := servePlan{
		FixedRate: serveShortPlan.FixedRate,
		Ladder:    ladder{Base: 100, Ratio: 1.05, Start: 78, Coarse: 4, MaxProbes: 14},
		Limits:    rungLimits{P99MS: serveShortPlan.LimitMS, MinSamples: 1000, Conns: e.nproc},
		schedule: func(phase int, rate float64, dur time.Duration) []request {
			return constantRate(rate, dur, mix.builder(sd[1]+uint64(phase)))
		},
	}
	fmt.Printf("# serve-short: growth V=%d E=%d, GET /walk count=%d length=%d, fixed %.0f/s, limit p99<=%gms, %d connections\n",
		sys.eng.Graph().NumVertices(), len(edges), mix.Count, serveShortPlan.Length, plan.FixedRate, plan.Limits.P99MS, e.nproc)

	if !e.traced {
		// A set-up here takes about 9 ms, the length of a host stall, and
		// the host's load drifts within a run; so set-ups are also timed
		// in small groups before every ladder rung, and the median spans
		// the whole run.
		var setupErr error
		plan.betweenRungs = func() {
			more, s, err := timedSetups(serveShortPlan.SetupsPerRung, build, closeSys)
			if err != nil {
				setupErr = err
				return
			}
			closeSys(s)
			setups = append(setups, more...)
			runtime.GC()
		}
		lg := newLoadgen(sys.l.url, e.nproc, 0, nil, parseResponse)
		defer lg.close()
		res := measureServing(e, lg, plan, 0.4, false)
		if setupErr != nil {
			return nil, setupErr
		}
		rep.metrics["setup_s"] = median(setups)
		fmt.Printf("# %d set-ups\n", len(setups))
		recordServing(rep, res)
		n, err := verifyAgainstEngine(sys.eng, res.fixedReqs, res.fixedOut)
		rep.check("served walks == RunContext", err == nil && n > 0, "%d sampled bodies replayed (%v)", n, err)
		return rep, nil
	}

	// Traced run: the same fixed-rate schedule twice, first untraced through
	// the plain engine, then through the wrappers.
	plain, err := serveUntraced(sys.eng, e, plan)
	if err != nil {
		return nil, err
	}
	before := readRuntime()
	lg := newLoadgen(sys.l.url, e.nproc, 0, tr, parseResponse)
	defer lg.close()
	lg.ridPrefix = "t"
	res := measureServing(e, lg, plan, 0.4, true)
	after := readRuntime()
	rep.count(res.fixed)
	rep.count(plain.fixed)
	runtimeLayer(rep.metrics, before, after, res.fixed.Attempted)
	layerLoadgen(rep.metrics, res.fixed, plain)
	rep.check("traced digest == untraced", runDigest(res.fixedOut) == runDigest(plain.fixedOut),
		"%016x vs %016x", runDigest(res.fixedOut), runDigest(plain.fixedOut))
	rep.check("fixed-rate phases ok", res.fixed.Failed == 0 && plain.fixed.Failed == 0,
		"%d + %d failed", res.fixed.Failed, plain.fixed.Failed)
	overhead(rep.metrics, "walk p50 (ms)", plain.fixed.Lat["walk"].P50, res.fixed.Lat["walk"].P50, false)
	spans, rows := writeTrace(e, tr)
	layerServer(rep.metrics, spans, rows, "server.walk", "client.walk")
	rep.metrics["sampling.ns_per_call"] = sys.sp.nsPerCall()
	rep.metrics["sampling.edges_per_step"] = sys.sp.evalsPerCall()
	return rep, nil
}

// serveUntraced runs the fixed-rate phase against a second, unwrapped
// server over eng: the untraced half of a traced run's comparison.
func serveUntraced(eng *core.Engine, e *env, plan servePlan) (servingResult, error) {
	l, err := serve(server.New(eng).Handler())
	if err != nil {
		return servingResult{}, err
	}
	defer l.close()
	lg := newLoadgen(l.url, e.nproc, 0, nil, parseResponse)
	defer lg.close()
	lg.ridPrefix = "u"
	return measureServing(e, lg, plan, 0.4, true), nil
}

// runFacts returns the server-span hook that reads the engine's own run
// time from a /walk body and records it as a core.run child span. The
// engine reports only the duration, so the span is placed at its parent's
// start.
func runFacts(tr *tracer) func(kind string, body []byte, sp *span) {
	return func(kind string, body []byte, sp *span) {
		if kind != "walk" {
			return
		}
		sp.Steps = intAfter(body, stepsKey)
		if d, ok := durationAfter(body, durationKey); ok {
			child := span{ID: tr.next.Add(1), Parent: sp.ID, Name: "core.run", RID: sp.RID,
				Start: sp.Start, End: sp.Start + int64(d), Bytes: -1, Steps: sp.Steps}
			tr.add(child, "")
		}
	}
}

// layerPrep records graph build and preprocessing metrics of an engine.
func layerPrep(m map[string]float64, eng *core.Engine, buildS float64) {
	p := eng.Preprocess()
	m["temporal.build_s"] = buildS
	m["core.prep.candidates_s"] = p.CandidateSearch.Seconds()
	m["core.prep.weights_s"] = p.WeightBuild.Seconds()
	m["hpat.index_build_s"] = p.IndexBuild.Seconds()
	m["hpat.aux_index_s"] = p.AuxIndexBuild.Seconds()
	m["hpat.index_bytes"] = float64(eng.Sampler().MemoryBytes())
}

// layerServer records the server-side per-layer metrics of a traced run
// from the handler spans named handler and the client spans named client.
func layerServer(m map[string]float64, spans []span, rows map[string]*layerTime, handler, client string) {
	h, run := rows[handler], rows["core.run"]
	if h == nil {
		return
	}
	m["server.handler_us"] = median(h.Durations)
	m["server.response_bytes"] = median(h.Bytes)
	m["net.transport_us"] = median(pairedDiff(spans, client, handler))
	if run != nil {
		m["core.run_us"] = median(run.Durations)
		m["server.fixed_us"] = median(h.SelfDurs)
		m["core.steps_per_walk"] = mean(run.Steps) / float64(serveShortPlan.Count)
	}
}
