package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/server"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/vfs"
	"github.com/tea-graph/tea/internal/wal"
	"github.com/tea-graph/tea/internal/xrand"
)

// ingest-mixed: a durable streaming graph (WAL with fsync on every commit,
// periodic snapshots) behind server.NewDurable, fed POST /edges batches in
// stream order beside GET /walk, with a periodic POST /expire holding a
// sliding window. The only workload where wal, vfs, stream segment merges
// and expiry run; writes share the graph lock with walks.
var ingestPlan = struct {
	StreamFactor  int     // stream length in multiples of the growth profile
	BatchEdges    int     // edges per POST /edges
	WalkRate      float64 // walks per second in the fixed-rate phase
	WriteRate     float64 // writes (batches and expiries) per second there
	ExpireEvery   int     // every n-th write is an expiry
	Window        int64   // sliding window, in time units (one per edge)
	SnapshotEvery int     // logged mutations between snapshots
	PreloadChunk  int
	Count, Length int
	LimitMS       float64
	Probes        int
}{
	StreamFactor: 5, BatchEdges: 100, WalkRate: 1500, WriteRate: 100, ExpireEvery: 10,
	Window: 60_000, SnapshotEvery: 150, PreloadChunk: 10_000, Count: 10, Length: 80,
	LimitMS: 150, Probes: 20,
}

// edgeStream is the seeded, time-ordered growth-shaped stream, repeated
// with shifted timestamps so a run never exhausts it.
type edgeStream struct {
	base []temporal.Edge
	span temporal.Time
	next int // global index of the next edge to send
}

func (s *edgeStream) at(j int) temporal.Edge {
	e := s.base[j%len(s.base)]
	e.Time += temporal.Time(j/len(s.base)) * s.span
	return e
}

type ingestSys struct {
	dir string
	d   *stream.DurableGraph
	l   *listener
	io  *ioStats
}

func (s *ingestSys) close() {
	s.l.close()
	_ = s.d.Close()
	_ = os.RemoveAll(s.dir)
}

func runIngestMixed(e *env) (*report, error) {
	rep := newReport()
	sd := seeds(e.seed, 4)
	prof := growth(sd[0])
	prof.Edges *= ingestPlan.StreamFactor
	base := prof.Generate()
	preload := len(base) / 2
	spec := sampling.Exponential(50 / float64(ingestPlan.Window))
	tmp := filepath.Join(e.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}

	build := func(tr *tracer) (*ingestSys, error) {
		dir, err := os.MkdirTemp(tmp, "ingest-")
		if err != nil {
			return nil, err
		}
		sys := &ingestSys{dir: dir}
		cfg := stream.DurableConfig{
			Graph:         stream.Config{Weight: spec, NumVertices: prof.Vertices},
			WAL:           wal.Options{Policy: wal.SyncAlways},
			SnapshotEvery: ingestPlan.SnapshotEvery,
		}
		if tr != nil {
			sys.io = &ioStats{snapshotFiles: make(map[string]bool)}
			cfg.FS = &countingFS{inner: vfs.OS, t: tr, st: sys.io}
		}
		sys.d, err = stream.OpenDurable(dir, cfg)
		if err != nil {
			_ = os.RemoveAll(dir)
			return nil, err
		}
		for lo := 0; lo < preload; lo += ingestPlan.PreloadChunk {
			hi := min(lo+ingestPlan.PreloadChunk, preload)
			if err := sys.d.AppendBatch(base[lo:hi]); err != nil {
				_ = sys.d.Close()
				_ = os.RemoveAll(dir)
				return nil, err
			}
		}
		srv := server.NewDurable(server.Config{})
		srv.SetDurable(sys.d)
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = &handlerSpans{t: tr, layer: "stream", next: h}
		}
		if sys.l, err = serve(h); err != nil {
			_ = sys.d.Close()
			_ = os.RemoveAll(dir)
			return nil, err
		}
		return sys, nil
	}

	// plan returns the serving plan over one system; the stream cursor
	// starts after the preload, so two passes see identical traffic.
	// Writes keep their fixed rate on the ladder too, which raises only
	// the walks: the single ordered write connection waits on an fsync per
	// batch, so scaling the writes with the walks made the device's fsync
	// latency, not the program, set max_rps.
	plan := func() servePlan {
		es := &edgeStream{base: base, span: temporal.Time(len(base)), next: preload}
		writes := 0
		mix := walkMix{NumV: prof.Vertices, Count: ingestPlan.Count, Lengths: []int{ingestPlan.Length}}
		return servePlan{
			FixedRate: ingestPlan.WalkRate + ingestPlan.WriteRate,
			Ladder:    ladder{Base: 100, Ratio: 1.05, Start: 78, Coarse: 3, MaxProbes: 14},
			Limits:    rungLimits{P99MS: ingestPlan.LimitMS, MinSamples: 1000, Conns: e.nproc},
			schedule: func(phase int, rate float64, dur time.Duration) []request {
				walks := constantRate(max(rate-ingestPlan.WriteRate, 1), dur, mix.builder(sd[1]+uint64(phase)))
				ws := constantRate(ingestPlan.WriteRate, dur, func(int) request {
					writes++
					if writes%ingestPlan.ExpireEvery == 0 {
						horizon := es.at(es.next-1).Time - temporal.Time(ingestPlan.Window)
						return request{Lane: laneWrite, Kind: "expire", Method: "POST",
							Path: "/expire?before=" + strconv.FormatInt(int64(horizon), 10)}
					}
					var b strings.Builder
					b.WriteString(`{"edges":[`)
					for i := 0; i < ingestPlan.BatchEdges; i++ {
						ed := es.at(es.next)
						es.next++
						if i > 0 {
							b.WriteByte(',')
						}
						fmt.Fprintf(&b, `{"src":%d,"dst":%d,"t":%d}`, ed.Src, ed.Dst, ed.Time)
					}
					b.WriteString(`]}`)
					return request{Lane: laneWrite, Kind: "edges", Method: "POST", Path: "/edges", Body: []byte(b.String())}
				})
				return merge(walks, ws)
			},
		}
	}
	// Walks get one connection per CPU, like the other serving workloads,
	// and writes one more: the ordered write lane cannot share them, and a
	// single walk connection turned every host stall into a queue.
	fmt.Printf("# ingest-mixed: growth-shaped stream E=%d (preload %d), fsync always, snapshot every %d mutations, "+
		"%d-edge batches, fixed %.0f walks/s + %.0f writes/s, limit p99<=%gms, %d walk + 1 write connections\n",
		len(base), preload, ingestPlan.SnapshotEvery, ingestPlan.BatchEdges, ingestPlan.WalkRate, ingestPlan.WriteRate,
		ingestPlan.LimitMS, e.nproc)

	// pass sends one plan's traffic to sys and checks the outcome.
	type passResult struct {
		res    servingResult
		digest uint64
		live   int
	}
	pass := func(sys *ingestSys, tr *tracer, prefix string, skipLadder bool, fixedShare float64) passResult {
		var acked, expired atomic.Int64
		acked.Store(int64(preload))
		lg := newLoadgen(sys.l.url, e.nproc, 1, tr, func(r *request, body []byte, o *outcome) {
			parseResponse(r, body, o)
			switch r.Kind {
			case "edges":
				acked.Add(o.Count)
			case "expire":
				expired.Add(o.Count)
			}
		})
		defer lg.close()
		if prefix != "" {
			lg.ridPrefix = prefix[:1]
		}
		res := measureServing(e, lg, plan(), fixedShare, skipLadder)
		live := sys.d.NumEdges()
		a, x := acked.Load(), expired.Load()
		rep.check(prefix+"acked - expired == live", a-x == int64(live),
			"%d acked - %d expired = %d, graph holds %d", a, x, a-x, live)
		dg, err := probeWalks(sys, sd[2])
		rep.check(prefix+"served walks == durable graph", err == nil, "%d probes (%v)", ingestPlan.Probes, err)
		return passResult{res: res, digest: dg, live: live}
	}

	if !e.traced {
		heap0 := liveHeap()
		setups, sys, err := timedSetups(3, func() (*ingestSys, error) { return build(nil) }, func(s *ingestSys) { s.close() })
		if err != nil {
			return nil, err
		}
		defer sys.close()
		rep.metrics["setup_s"] = median(setups)
		rep.metrics["heap_bytes"] = liveHeap() - heap0
		pr := pass(sys, nil, "", false, 0.4)
		recordServing(rep, pr.res)
		ing := kindLatencies(pr.res.fixedOut, "edges")
		fmt.Printf("# fixed phase: POST /edges p50=%.4fms p90=%.4fms n=%d\n", quantile(ing, 0.5), quantile(ing, 0.9), len(ing))
		return rep, nil
	}

	// Traced run: the same traffic against two fresh systems, the first
	// untraced, the second through the wrappers.
	sysU, err := build(nil)
	if err != nil {
		return nil, err
	}
	prU := pass(sysU, nil, "untraced ", true, 0.4)
	sysU.close()
	rep.count(prU.res.fixed)

	tr := newTracer()
	t0 := time.Now()
	sys, err := build(tr)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep.metrics["temporal.build_s"] = time.Since(t0).Seconds()
	io0 := sys.io.snapshot()
	rt0 := readRuntime()
	prT := pass(sys, tr, "traced ", true, 0.4)
	rt1 := readRuntime()
	io1 := sys.io.snapshot()
	rep.count(prT.res.fixed)
	rep.check("traced digest == untraced", prT.digest == prU.digest && prT.live == prU.live,
		"%016x (%d edges) vs %016x (%d edges)", prT.digest, prT.live, prU.digest, prU.live)
	rep.check("fixed-rate phases ok", prT.res.fixed.Failed == 0 && prU.res.fixed.Failed == 0,
		"%d + %d failed", prT.res.fixed.Failed, prU.res.fixed.Failed)
	overhead(rep.metrics, "walk p50 (ms)", prU.res.fixed.Lat["walk"].P50, prT.res.fixed.Lat["walk"].P50, false)

	m := rep.metrics
	fx := prT.res.fixed
	runtimeLayer(m, rt0, rt1, fx.Attempted)
	layerLoadgen(m, fx, prU.res)
	// About 600 batches fall in the fixed phase: too few for a p99 under
	// the sample-count rule, enough for a p90.
	ingest := kindLatencies(prU.res.fixedOut, "edges")
	m["stream.ingest_p50_ms"] = quantile(ingest, 0.5)
	m["stream.ingest_p90_ms"] = quantile(ingest, 0.9)
	m["stream.memory_bytes"] = float64(sys.d.Stats().MemoryBytes)
	_, rows := writeTrace(e, tr)
	for name, metric := range map[string]string{"stream.append": "stream.append_us", "stream.expire": "stream.expire_us", "stream.walk": "stream.walk_us"} {
		if r := rows[name]; r != nil {
			m[metric] = median(r.Durations)
		}
	}
	var batches, edges, walkSteps, walks int64
	for i := range prT.res.fixedOut {
		o := &prT.res.fixedOut[i]
		switch o.Kind {
		case "edges":
			batches++
			edges += o.Count
		case "walk":
			walks++
			walkSteps += o.Steps
		}
	}
	if walks > 0 {
		m["core.steps_per_walk"] = float64(walkSteps) / float64(walks*int64(ingestPlan.Count))
	}
	m["vfs.sync_p50_us"] = quantile(io1.syncUS[len(io0.syncUS):], 0.5)
	m["vfs.sync_p90_us"] = quantile(io1.syncUS[len(io0.syncUS):], 0.9)
	if batches > 0 {
		m["vfs.syncs_per_batch"] = float64(io1.walSyncs-io0.walSyncs) / float64(batches)
	}
	if edges > 0 {
		m["vfs.write_bytes_per_edge"] = float64(io1.walBytes-io0.walBytes) / float64(edges)
	}
	if n := io1.snapshots - io0.snapshots; n > 0 {
		m["vfs.snapshot_bytes"] = float64(io1.snapBytes-io0.snapBytes) / float64(n)
	}
	return rep, nil
}

// probeWalks checks seeded walks served over HTTP against the durable
// graph's own WalkSeeded, after the traffic has stopped, and digests them.
func probeWalks(sys *ingestSys, seed uint64) (uint64, error) {
	r := xrand.New(seed)
	h := fnv.New64a()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for p := 0; p < ingestPlan.Probes; p++ {
		from := temporal.Vertex(r.IntN(sys.d.NumVertices()))
		ws := r.Uint64() >> 2
		path := fmt.Sprintf("/walk?from=%d&length=%d&count=3&seed=%d", from, ingestPlan.Length, ws)
		req, err := http.NewRequestWithContext(context.Background(), "GET", sys.l.url+path, nil)
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		walks, err := decodeWalks(body)
		if err != nil {
			return 0, err
		}
		if len(walks) != 3 {
			return 0, fmt.Errorf("%s: %d walks", path, len(walks))
		}
		for i, w := range walks {
			vs, ts := sys.d.WalkSeeded(from, temporal.MinTime, ingestPlan.Length, ws+uint64(i))
			if !samePath(w, vs, ts) {
				return 0, fmt.Errorf("%s: walk %d differs from WalkSeeded", path, i)
			}
			for _, v := range vs {
				fmt.Fprintf(h, "%d,", v)
			}
			for _, t := range ts {
				fmt.Fprintf(h, "%d;", t)
			}
		}
	}
	return h.Sum64(), nil
}
