package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

var (
	walksKey    = []byte(`"walks":`)
	costKey     = []byte(`,"cost":`)
	stepsKey    = []byte(`"steps":"`)
	appendedKey = []byte(`"appended":`)
	droppedKey  = []byte(`"dropped":`)
	durationKey = []byte(`"duration":"`)
)

// parseResponse is the load generator's parse hook: it digests the walks of
// a /walk body (their bytes, so equal digests mean equal paths) and reads
// the step count, or reads what a write appended or dropped.
func parseResponse(r *request, body []byte, o *outcome) {
	switch r.Kind {
	case "walk":
		i, j := bytes.Index(body, walksKey), bytes.Index(body, costKey)
		if i >= 0 && j > i {
			h := fnv.New64a()
			h.Write(body[i:j])
			o.Digest = h.Sum64()
		}
		o.Steps = intAfter(body, stepsKey)
	case "edges":
		o.Count = intAfter(body, appendedKey)
	case "expire":
		o.Count = intAfter(body, droppedKey)
	}
}

// intAfter parses the decimal integer that follows key in body (0 if none).
func intAfter(body, key []byte) int64 {
	i := bytes.Index(body, key)
	if i < 0 {
		return 0
	}
	var v int64
	for _, c := range body[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int64(c-'0')
	}
	return v
}

// durationAfter parses the Go duration string that follows key in body.
func durationAfter(body, key []byte) (time.Duration, bool) {
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return 0, false
	}
	d, err := time.ParseDuration(string(rest[:j]))
	return d, err == nil
}

// runDigest folds the per-request digests in schedule order.
func runDigest(out []outcome) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range out {
		v := out[i].Digest
		for k := range b {
			b[k] = byte(v >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// walkMix builds seeded /walk requests: sources uniform over the vertex
// space, walk lengths drawn from Lengths, a fresh walk seed per request.
type walkMix struct {
	NumV    int
	Count   int
	Lengths []int
	// KeepEvery keeps every n-th body for the output checks (0: none).
	KeepEvery int
	// Extra is appended to every query (the traced run asks for cost=1).
	Extra string
}

func (w walkMix) builder(seed uint64) func(i int) request {
	r := xrand.New(seed)
	return func(i int) request {
		from := r.IntN(w.NumV)
		length := w.Lengths[r.IntN(len(w.Lengths))]
		walkSeed := r.Uint64() >> 2 // the server parses seed as a signed int
		return request{
			Lane:   laneWalk,
			Kind:   "walk",
			Method: "GET",
			Path:   fmt.Sprintf("/walk?from=%d&length=%d&count=%d&seed=%d%s", from, length, w.Count, walkSeed, w.Extra),
			Keep:   w.KeepEvery > 0 && i%w.KeepEvery == 0,
		}
	}
}

// walkQuery is the part of a /walk request the output checks replay.
type walkQuery struct {
	From          temporal.Vertex
	Length, Count int
	Seed          uint64
}

func parseWalkQuery(path string) (walkQuery, error) {
	var q walkQuery
	var from uint32
	_, err := fmt.Sscanf(path, "/walk?from=%d&length=%d&count=%d&seed=%d", &from, &q.Length, &q.Count, &q.Seed)
	q.From = temporal.Vertex(from)
	return q, err
}

type hop struct {
	V uint32 `json:"v"`
	T *int64 `json:"t"`
}

// decodeWalks returns a /walk body's paths.
func decodeWalks(body []byte) ([][]hop, error) {
	var wb struct {
		Walks [][]hop `json:"walks"`
	}
	err := json.Unmarshal(body, &wb)
	return wb.Walks, err
}

// samePath reports whether a decoded walk equals a path sampled directly.
func samePath(h []hop, vs []temporal.Vertex, ts []temporal.Time) bool {
	if len(h) != len(vs) || len(ts) != len(vs)-1 {
		return false
	}
	for i := range h {
		if h[i].V != uint32(vs[i]) {
			return false
		}
		if i == 0 {
			if h[i].T != nil {
				return false
			}
		} else if h[i].T == nil || *h[i].T != int64(ts[i-1]) {
			return false
		}
	}
	return true
}

// verifyAgainstEngine replays every kept /walk body with a direct
// RunContext on eng and checks the paths are identical. It returns the
// number of bodies checked and the first mismatch.
func verifyAgainstEngine(eng *core.Engine, reqs []request, out []outcome) (int, error) {
	n := 0
	for i := range out {
		if out[i].Body == nil {
			continue
		}
		q, err := parseWalkQuery(reqs[i].Path)
		if err != nil {
			return n, err
		}
		walks, err := decodeWalks(out[i].Body)
		if err != nil {
			return n, fmt.Errorf("request %d: %v", i, err)
		}
		res, err := eng.RunContext(context.Background(), core.WalkConfig{
			WalksPerVertex: q.Count,
			Length:         q.Length,
			StartVertices:  []temporal.Vertex{q.From},
			Seed:           q.Seed,
			KeepPaths:      true,
		})
		if err != nil {
			return n, err
		}
		if len(res.Paths) != len(walks) {
			return n, fmt.Errorf("request %d: %d walks served, %d sampled directly", i, len(walks), len(res.Paths))
		}
		for j, p := range res.Paths {
			if !samePath(walks[j], p.Vertices, p.Times) {
				return n, fmt.Errorf("request %d (%s): walk %d differs from a direct run", i, reqs[i].Path, j)
			}
		}
		n++
	}
	return n, nil
}

// servePlan fixes a serving workload's load: a warm-up, a fixed-rate phase
// whose walk latencies are the reported percentiles, and the max-rate
// ladder.
type servePlan struct {
	FixedRate float64 // requests per second in the fixed-rate phase
	Ladder    ladder
	Limits    rungLimits
	// schedule lays out dur of traffic at rate from the seeded builders;
	// phase distinguishes the seeds of different phases.
	schedule func(phase int, rate float64, dur time.Duration) []request
	// betweenRungs, if set, runs before every ladder rung, outside its
	// timing.
	betweenRungs func()
}

// servingResult is what measureServing saw.
type servingResult struct {
	fixedReqs []request
	fixedOut  []outcome
	fixed     phaseStats
	best      rung
	found     bool
	tried     []rung
	cpuPerOp  float64 // process CPU microseconds per fixed-phase request
}

// The fixed-rate phase runs in fixedSegments pieces, segmentsPerRung of
// them before each ladder rung until they run out.
const (
	fixedSegments   = 24
	segmentsPerRung = 2
)

// fixedSegment is what one piece of the fixed-rate phase saw.
type fixedSegment struct {
	walkMS []float64 // walk latencies from due time
	lagUS  float64   // wakeLagP90US of the piece
}

// calmHalfP50 is the walk p50 over the half of the segments in which the
// generator woke most promptly. On a shared virtual machine the host
// sometimes withholds the CPUs for seconds at a time; the generator then
// wakes milliseconds late and every request waits as long for its
// wake-ups. Choosing the segments by the generator's own lateness, not by
// their latency, leaves out those spells without favouring fast segments.
func calmHalfP50(segs []fixedSegment) float64 {
	order := make([]int, len(segs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return segs[order[a]].lagUS < segs[order[b]].lagUS })
	var ms []float64
	for _, i := range order[:(len(order)+1)/2] {
		ms = append(ms, segs[i].walkMS...)
	}
	return quantile(ms, 0.5)
}

// measureServing runs the warm-up, the fixed-rate phase and, unless
// skipLadder, the ladder. The fixed-rate phase lasts fixedShare of the
// run's seconds in fixedSegments segments spread between the ladder
// rungs, the rest after the ladder; the reported walk p50 is calmHalfP50
// of the segments. Each ladder rung lasts at least 6% of the run's
// seconds and long enough for 1.5 times the rung's minimum sample count,
// so that a mix in which writes take a sixth of the requests still has
// enough walks.
func measureServing(e *env, lg *loadgen, p servePlan, fixedShare float64, skipLadder bool) servingResult {
	ctx := context.Background()
	var res servingResult
	warm := p.schedule(0, p.FixedRate, 500*time.Millisecond)
	lg.run(ctx, "warm", warm)

	segDur := time.Duration(fixedShare * e.seconds * float64(time.Second) / fixedSegments)
	var segs []fixedSegment
	var cpu time.Duration
	segment := func() {
		n := len(segs)
		reqs := p.schedule(1+n, p.FixedRate, segDur)
		cpu0 := cpuTime()
		out := lg.run(ctx, "fixed"+strconv.Itoa(n), reqs)
		cpu += cpuTime() - cpu0
		segs = append(segs, fixedSegment{walkMS: kindLatencies(out, "walk"), lagUS: wakeLagP90US(out)})
		res.fixedReqs = append(res.fixedReqs, reqs...)
		res.fixedOut = append(res.fixedOut, out...)
	}
	segment()
	if !skipLadder {
		minRung := time.Duration(0.06 * e.seconds * float64(time.Second))
		res.best, res.found, res.tried = p.Ladder.climb(func(k int, rate float64) rung {
			if p.betweenRungs != nil {
				p.betweenRungs()
			}
			for i := 0; i < segmentsPerRung && len(segs) < fixedSegments; i++ {
				segment()
			}
			dur := time.Duration(1.5 * float64(p.Limits.MinSamples) / rate * float64(time.Second))
			if dur < minRung {
				dur = minRung
			}
			reqs := p.schedule(1+fixedSegments+k, rate, dur)
			out := lg.run(ctx, "rung"+strconv.Itoa(k), reqs)
			pass, ps := p.Limits.judge(rate, out)
			steps := float64(ps.Steps) / ps.Span.Seconds()
			fmt.Printf("# ladder k=%d rate=%.0f/s pass=%v walk_p99=%.3fms backlog_max=%d grew=%v failed=%d n=%d\n",
				k, rate, pass, quantile(kindLatencies(out, "walk"), 0.99), ps.BacklogMax, ps.BacklogGrew, ps.Failed, ps.Attempted)
			return rung{Pass: pass, Stats: ps, StepsPerS: steps}
		})
	}
	for len(segs) < fixedSegments {
		segment()
	}
	fmt.Print("# fixed-phase segments, walk p50 (ms) / generator wake lag p90 (us):")
	for _, s := range segs {
		fmt.Printf(" %.4g/%.0f", quantile(s.walkMS, 0.5), s.lagUS)
	}
	fmt.Println()
	res.fixed = summarizePhase(res.fixedOut, p.Limits.Conns)
	walk := res.fixed.Lat["walk"]
	walk.P50 = calmHalfP50(segs)
	res.fixed.Lat["walk"] = walk
	res.cpuPerOp = float64(cpu.Microseconds()) / float64(len(res.fixedOut))
	return res
}

// recordServing turns a serving result into the end-to-end metrics and the
// checks every serving workload shares.
func recordServing(rep *report, res servingResult) {
	rep.count(res.fixed)
	for _, r := range res.tried {
		rep.count(r.Stats)
	}
	walk := res.fixed.Lat["walk"]
	rep.metrics["walk_p50_ms"] = walk.P50
	rep.check("fixed-rate phase ok", res.fixed.Failed == 0,
		"%d of %d requests failed (first: %v)", res.fixed.Failed, res.fixed.Attempted, res.fixed.FirstErr)
	rep.check("p99 sample count", tailOK(walk.N, 0.99), "%d walk samples (need >= 1000)", walk.N)
	fmt.Printf("# fixed phase: walk p50=%.4fms p99=%.4fms n=%d late_p99=%.3fms backlog_max=%d\n",
		walk.P50, walk.P99, walk.N, res.fixed.LateP99MS, res.fixed.BacklogMax)

	if len(res.tried) == 0 {
		return
	}
	rep.check("ladder found a passing rate", res.found, "%d rungs tried", len(res.tried))
	rep.metrics["max_rps"] = res.best.Rate
	rep.metrics["steps_per_s"] = res.best.StepsPerS
}

// layerLoadgen records the load generator's validity metrics of the traced
// pass, and the walk p99 and CPU cost per request of the untraced one.
func layerLoadgen(m map[string]float64, traced phaseStats, untraced servingResult) {
	m["loadgen.late_p99_ms"] = traced.LateP99MS
	m["loadgen.backlog_max"] = float64(traced.BacklogMax)
	m["loadgen.walk_p99_ms"] = untraced.fixed.Lat["walk"].P99
	m["runtime.cpu_us_per_op"] = untraced.cpuPerOp
}
