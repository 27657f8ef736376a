package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/server"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/temporal"
)

// serve-sharded: server.NewRouter over two server.NewShard servers whose
// step-RPCs cross wire loopback TCP, on the layered long-walk graph.
// Requests are count=1, 80% length 4 and 20% length 80: the median falls in
// the short class, where the router's fan-out and merge dominate, and the
// p99 in the long class, where about 80 rounds of step-RPCs dominate.
var shardedPlan = struct {
	Partitions int
	FixedRate  float64
	Lengths    []int
	LimitMS    float64
}{Partitions: 2, FixedRate: 1000, Lengths: []int{4, 4, 4, 4, 80}, LimitMS: 150}

type shardedSys struct {
	nodes   []*shard.Node
	wires   []*wire.Server
	peers   []*shard.Peers
	callers []*tracedCaller
	shards  []*listener
	router  *server.Router
	rl      *listener
	buildS  float64 // FromEdges time
}

func (s *shardedSys) close() {
	if s.rl != nil {
		s.rl.close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, l := range s.shards {
		l.close()
	}
	for _, p := range s.peers {
		p.Close()
	}
	for _, w := range s.wires {
		_ = w.Close()
	}
}

func buildSharded(edges []temporal.Edge, app core.App, tr *tracer) (*shardedSys, error) {
	P := shardedPlan.Partitions
	sys := &shardedSys{}
	t0 := time.Now()
	g, err := temporal.FromEdges(edges, temporal.WithNumVertices(longGraph.numVertices()))
	if err != nil {
		return nil, err
	}
	sys.buildS = time.Since(t0).Seconds()
	addrs := make([]string, P)
	for i := 0; i < P; i++ {
		node, err := shard.NewNode(g, app.Weight, shard.Config{ShardID: i, Partitions: P})
		if err != nil {
			sys.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sys.close()
			return nil, err
		}
		var h wire.Handler = node
		if tr != nil {
			h = &tracedStepHandler{t: tr, node: node}
		}
		sys.nodes = append(sys.nodes, node)
		sys.wires = append(sys.wires, wire.NewServer(ln, h, nil))
		addrs[i] = ln.Addr().String()
	}
	var urls []string
	for i, node := range sys.nodes {
		others := make(map[int]string)
		for j, a := range addrs {
			if j != i {
				others[j] = a
			}
		}
		peers := shard.NewPeers(others, wire.ClientConfig{})
		sys.peers = append(sys.peers, peers)
		var caller shard.StepCaller = peers
		if tr != nil {
			tc := &tracedCaller{t: tr, inner: peers}
			sys.callers = append(sys.callers, tc)
			caller = tc
		}
		ss := server.NewShard(node, caller, server.Config{Instance: fmt.Sprintf("shard-%d", i), ShardID: i})
		var hh http.Handler = ss.Handler()
		if tr != nil {
			hh = &handlerSpans{t: tr, layer: "shard", next: hh,
				parentKey: func(rid string) string { return "router/" + rid },
				facts: func(kind string, body []byte, sp *span) {
					if kind == "walk" {
						sp.Steps = intAfter(body, stepsKey)
					}
				}}
		}
		l, err := serve(hh)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.shards = append(sys.shards, l)
		urls = append(urls, l.url)
	}
	sys.router, err = server.NewRouter(server.RouterConfig{Shards: urls})
	if err != nil {
		sys.close()
		return nil, err
	}
	var h http.Handler = sys.router.Handler()
	if tr != nil {
		h = &handlerSpans{t: tr, layer: "router", next: h}
	}
	sys.rl, err = serve(h)
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

var (
	migrationsKey = []byte(`"migrations":"`)
	migBytesKey   = []byte(`"migration_bytes":`)
)

// parseRouted also reads the migration counts of a routed /walk body.
func parseRouted(r *request, body []byte, o *outcome) {
	parseResponse(r, body, o)
	o.Migrations = intAfter(body, migrationsKey)
	o.MigrationBytes = intAfter(body, migBytesKey)
}

func runServeSharded(e *env) (*report, error) {
	rep := newReport()
	sd := seeds(e.seed, 4)
	edges := longGraph.edges(sd[0])
	app := core.ExponentialWalk(lambdaFor(edges))
	var tr *tracer
	if e.traced {
		tr = newTracer()
	}
	k := 3
	if e.traced {
		k = 1
	}
	heap0 := liveHeap()
	setups, sys, err := timedSetups(k, func() (*shardedSys, error) { return buildSharded(edges, app, tr) },
		func(s *shardedSys) { s.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["heap_bytes"] = liveHeap() - heap0
	rep.metrics["temporal.build_s"] = sys.buildS

	mix := walkMix{NumV: longGraph.numVertices(), Count: 1, Lengths: shardedPlan.Lengths, KeepEvery: 25}
	if e.traced {
		mix.Extra = "&cost=1"
	}
	plan := servePlan{
		FixedRate: shardedPlan.FixedRate,
		Ladder:    ladder{Base: 100, Ratio: 1.05, Start: 58, Coarse: 3, MaxProbes: 14},
		Limits:    rungLimits{P99MS: shardedPlan.LimitMS, MinSamples: 1000, Conns: e.nproc},
		schedule: func(phase int, rate float64, dur time.Duration) []request {
			return constantRate(rate, dur, mix.builder(sd[1]+uint64(phase)))
		},
	}
	fmt.Printf("# serve-sharded: layered V=%d E=%d, router + %d shards over wire, count=1 lengths=%v, fixed %.0f/s, limit p99<=%gms\n",
		longGraph.numVertices(), len(edges), shardedPlan.Partitions, shardedPlan.Lengths, plan.FixedRate, plan.Limits.P99MS)

	var res, plain servingResult
	var rt0, rt1 rtSample
	if !e.traced {
		lg := newLoadgen(sys.rl.url, e.nproc, 0, nil, parseRouted)
		defer lg.close()
		res = measureServing(e, lg, plan, 0.4, false)
		recordServing(rep, res)
	} else {
		lg := newLoadgen(sys.rl.url, e.nproc, 0, nil, parseRouted)
		lg.ridPrefix = "u"
		// The untraced pass reuses the traced system with its wrappers
		// switched off, rather than building a second one as the other
		// workloads do: a set-up here takes about a second.
		tr.on.Store(false)
		plain = measureServing(e, lg, plan, 0.4, true)
		tr.on.Store(true)
		lg.close()
		rep.count(plain.fixed)
		lg = newLoadgen(sys.rl.url, e.nproc, 0, tr, parseRouted)
		defer lg.close()
		lg.ridPrefix = "t"
		rt0 = readRuntime()
		res = measureServing(e, lg, plan, 0.4, true)
		rt1 = readRuntime()
		rep.count(res.fixed)
		rep.check("traced digest == untraced", runDigest(res.fixedOut) == runDigest(plain.fixedOut),
			"%016x vs %016x", runDigest(res.fixedOut), runDigest(plain.fixedOut))
		rep.check("fixed-rate phases ok", res.fixed.Failed == 0 && plain.fixed.Failed == 0,
			"%d + %d failed", res.fixed.Failed, plain.fixed.Failed)
		overhead(rep.metrics, "walk p50 (ms)", plain.fixed.Lat["walk"].P50, res.fixed.Lat["walk"].P50, false)
	}

	// The routed answers must equal a single-process engine over the same
	// graph; the engine is built after the timed phases.
	g, err := temporal.FromEdges(edges, temporal.WithNumVertices(longGraph.numVertices()))
	if err != nil {
		return nil, err
	}
	ref, err := core.NewEngine(g, app, core.Options{})
	if err != nil {
		return nil, err
	}
	n, err := verifyAgainstEngine(ref, res.fixedReqs, res.fixedOut)
	rep.check("routed walks == one engine", err == nil && n > 0, "%d sampled bodies replayed (%v)", n, err)
	if !e.traced {
		return rep, nil
	}

	m := rep.metrics
	runtimeLayer(m, rt0, rt1, res.fixed.Attempted)
	layerLoadgen(m, res.fixed, plain)
	spans, rows := writeTrace(e, tr)
	if r := rows["router.walk"]; r != nil {
		m["router.handler_us"] = median(r.Durations)
		m["router.merge_us"] = median(r.SelfDurs)
		if s := rows["shard.walk"]; s != nil {
			m["router.shard_calls_per_request"] = float64(s.Count) / float64(r.Count)
			useful := 0
			var coord []float64
			for i, st := range s.Steps {
				if st > 0 {
					useful++
					coord = append(coord, s.Durations[i])
				}
			}
			m["router.useful_call_share"] = float64(useful) / float64(len(s.Steps))
			m["shard.handler_us"] = median(coord)
		}
		if w := rows["wire.step"]; w != nil {
			m["shard.rounds_per_request"] = float64(w.Count) / float64(r.Count)
			m["wire.step_rpc_p50_us"] = quantile(w.Durations, 0.5)
			m["wire.step_rpc_p99_us"] = quantile(w.Durations, 0.99)
		}
		m["net.transport_us"] = median(pairedDiff(spans, "client.walk", "router.walk"))
	}
	var steps, migs, migBytes int64
	for i := range res.fixedOut {
		o := &res.fixedOut[i]
		steps += o.Steps
		migs += o.Migrations
		migBytes += o.MigrationBytes
	}
	if steps > 0 {
		m["wire.migrations_per_step"] = float64(migs) / float64(steps)
		m["core.steps_per_walk"] = float64(steps) / float64(len(res.fixedOut))
	}
	if migs > 0 {
		m["wire.bytes_per_hop"] = float64(migBytes) / float64(migs)
	}
	var errs int64
	for _, c := range sys.callers {
		errs += c.errors.Load()
	}
	m["wire.step_errors"] = float64(errs)
	return rep, nil
}
