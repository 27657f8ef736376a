package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/temporal"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 500}, {0.99, 990}, {1, 1000}, {0, 1}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Fatal("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSummarizeWindowedP99(t *testing.T) {
	// Three windows of 1000; one holds a stall of 30 slow samples.
	ms := make([]float64, 3000)
	for i := range ms {
		ms[i] = 1
	}
	for i := 1000; i < 1030; i++ {
		ms[i] = 100
	}
	l := summarize(ms)
	if l.N != 3000 || l.P50 != 1 {
		t.Fatalf("got %+v", l)
	}
	if l.P99 != 1 {
		t.Errorf("p99 = %v: a stall confined to one window moved the median window", l.P99)
	}
	// Below 2000 samples there is one window and the plain p99.
	if got := summarize(ms[:1500]).P99; got != quantile(ms[:1500], 0.99) {
		t.Errorf("one-window p99 = %v, want %v", got, quantile(ms[:1500], 0.99))
	}
}

func TestBacklogAccounting(t *testing.T) {
	flat := make([]outcome, 100)
	for i := range flat {
		flat[i].Backlog = i % 3
	}
	if summarizePhase(flat, 2).BacklogGrew {
		t.Error("a bounded backlog was reported as growing")
	}
	rising := make([]outcome, 100)
	for i := range rising {
		rising[i].Backlog = i / 4
	}
	if !summarizePhase(rising, 2).BacklogGrew {
		t.Error("a rising backlog was not reported")
	}
	want := 0.0
	for i := 0; i < 25; i++ {
		want += float64((75+i)/4 - i/4)
	}
	if got := backlogRise(rising); got != want/25 {
		t.Errorf("backlog rise = %v, want %v", got, want/25)
	}
}

// A rung offered 5% more than the system completes fails the backlog rule,
// one offered less passes it.
func TestBacklogRuleCatchesSmallOverload(t *testing.T) {
	const rate, conns = 10000.0, 2
	rung := func(overload float64) []outcome {
		out := make([]outcome, int(rate)) // one second
		for i := range out {
			due := int64(i) * int64(time.Second) / int64(rate)
			out[i] = outcome{Kind: "walk", Status: http.StatusOK, Due: due, Sent: due, Done: due + int64(time.Millisecond),
				Backlog: int(overload * float64(i))}
		}
		return out
	}
	lim := rungLimits{P99MS: 150, MinSamples: 0, Conns: conns}
	if pass, _ := lim.judge(rate, rung(0.05)); pass {
		t.Error("a 5% overload passed the backlog rule")
	}
	if pass, ps := lim.judge(rate, rung(0)); !pass || ps.BacklogGrew {
		t.Errorf("a steady backlog failed: pass=%v grew=%v", pass, ps.BacklogGrew)
	}
}

// slowServer answers after a fixed service time, one request at a time per
// connection.
func slowServer(t *testing.T, service time.Duration) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte(`{"walks":[],"cost":{"steps":"3"}}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func schedule(rate float64, dur time.Duration) []request {
	return constantRate(rate, dur, func(int) request {
		return request{Lane: laneWalk, Kind: "walk", Method: "GET", Path: "/walk"}
	})
}

func TestOpenLoopLatenessUnderOverload(t *testing.T) {
	// One connection, 5ms service: 400/s offered against 200/s served. The
	// generator must keep sending on schedule, so requests queue, run late
	// and are timed from their due time.
	lg := newLoadgen(slowServer(t, 5*time.Millisecond).URL, 1, 0, nil, parseResponse)
	defer lg.close()
	reqs := schedule(400, 400*time.Millisecond)
	out := lg.run(context.Background(), "t", reqs)
	lim := rungLimits{P99MS: 20, MinSamples: 1, Conns: 1}
	pass, ps := lim.judge(400, out)
	if pass {
		t.Fatalf("overloaded rung passed: %+v", ps)
	}
	if !ps.BacklogGrew || ps.BacklogMax < 20 {
		t.Errorf("backlog max %d grew %v, want a growing backlog", ps.BacklogMax, ps.BacklogGrew)
	}
	last := out[len(out)-1]
	if last.lateMS() < 100 {
		t.Errorf("last request only %.1fms late; expected it to wait behind the queue", last.lateMS())
	}
	if last.latencyMS() < last.lateMS() {
		t.Error("latency must be measured from the due time, not the send time")
	}
	if ps.Steps != int64(3*len(out)) {
		t.Errorf("steps %d, want %d", ps.Steps, 3*len(out))
	}
}

func TestOpenLoopOnScheduleUnderLightLoad(t *testing.T) {
	lg := newLoadgen(slowServer(t, time.Millisecond).URL, 2, 0, nil, parseResponse)
	defer lg.close()
	reqs := schedule(50, 400*time.Millisecond)
	out := lg.run(context.Background(), "t", reqs)
	pass, ps := rungLimits{P99MS: 50, MinSamples: 1, Conns: 2}.judge(50, out)
	if !pass || ps.Failed != 0 || ps.BacklogMax > 1 {
		t.Fatalf("light load failed: pass=%v %+v", pass, ps)
	}
	if ps.LateP99MS > 20 {
		t.Errorf("generator ran %.1fms late at 50/s", ps.LateP99MS)
	}
}

func TestFailedRequestsMissTheLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	lg := newLoadgen(srv.URL, 1, 0, nil, parseResponse)
	defer lg.close()
	reqs := schedule(100, 100*time.Millisecond)
	out := lg.run(context.Background(), "t", reqs)
	pass, ps := rungLimits{P99MS: 1000, MinSamples: 1, Conns: 1}.judge(100, out)
	if pass || ps.Failed != len(out) || !math.IsInf(ps.Lat["walk"].P99, 1) {
		t.Fatalf("refused requests were not counted against the limit: pass=%v %+v", pass, ps)
	}
}

func TestLadderFindsHighestPassingRung(t *testing.T) {
	l := ladder{Base: 100, Ratio: 1.05, Start: 10, Coarse: 4, MaxProbes: 40}
	for _, capacity := range []float64{90, 100, 170, 400, 1000} {
		best, ok, _ := l.climb(func(k int, rate float64) rung { return rung{Pass: rate <= capacity+1e-9} })
		want := -1
		for k := 0; l.rate(k) <= capacity+1e-9; k++ {
			want = k
		}
		if want < 0 {
			if ok {
				t.Errorf("capacity %v: found rung %d below the grid", capacity, best.K)
			}
			continue
		}
		if !ok || best.K != want {
			t.Errorf("capacity %v: got k=%d ok=%v, want k=%d", capacity, best.K, ok, want)
		}
	}
}

func TestLadderRetriesAFailedRung(t *testing.T) {
	l := ladder{Base: 100, Ratio: 1.05, Start: 0, Coarse: 1, MaxProbes: 40}
	calls := map[int]int{}
	best, ok, _ := l.climb(func(k int, rate float64) rung {
		calls[k]++
		// Rung 2 fails once by chance; rung 4 is beyond capacity.
		return rung{Pass: k < 4 && !(k == 2 && calls[k] == 1)}
	})
	if !ok || best.K != 3 {
		t.Fatalf("got k=%d ok=%v, want 3", best.K, ok)
	}
	if calls[2] != 2 || calls[4] != 2 {
		t.Errorf("probes per rung %v: a failing rung must be probed twice", calls)
	}
}

func TestLayeredGraphSustainsLongWalks(t *testing.T) {
	spec := longGraph
	spec.PerLayer = 50
	edges := spec.edges(7)
	for _, e := range edges {
		ls, ld := int(e.Src)/spec.PerLayer, int(e.Dst)/spec.PerLayer
		if ld != ls+1 {
			t.Fatalf("edge %v leaves layer %d for layer %d", e, ls, ld)
		}
		if lo := int64(ls) * spec.Period; int64(e.Time) < lo || int64(e.Time) >= lo+2*spec.Period {
			t.Fatalf("edge %v outside its layer's time band", e)
		}
	}
	again := spec.edges(7)
	if len(again) != len(edges) || again[len(again)/2] != edges[len(edges)/2] {
		t.Fatal("same seed gave a different graph")
	}
	g, err := temporal.FromEdges(edges, temporal.WithNumVertices(spec.numVertices()))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, core.ExponentialWalk(lambdaFor(edges)), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(core.WalkConfig{Length: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if spw := float64(res.Cost.Steps) / float64(res.Cost.WalksStarted); spw < 50 {
		t.Errorf("%.1f steps per walk, want >= 50", spw)
	}
}

func TestGrowthWalksStayShort(t *testing.T) {
	edges := growth(7).Generate()
	g, err := temporal.FromEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, core.ExponentialWalk(lambdaFor(edges)), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(core.WalkConfig{Length: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if spw := float64(res.Cost.Steps) / float64(res.Cost.WalksStarted); spw > 5 {
		t.Errorf("%.1f steps per walk on growth; serve-short relies on about 2", spw)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 150}, // runs past its parent
	}
	rows := selfTimes(spans)
	if got := rows["a"].SelfNS; got != 100-50-10 {
		t.Errorf("self time of a = %d, want 40", got)
	}
	if got := rows["b"].SelfNS; got != 60 {
		t.Errorf("self time of b = %d, want 60", got)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

func TestCalmHalfP50(t *testing.T) {
	seg := func(ms, lagUS float64) fixedSegment {
		v := make([]float64, 100)
		for i := range v {
			v[i] = ms
		}
		return fixedSegment{walkMS: v, lagUS: lagUS}
	}
	// The two segments the generator woke late in are slow; the calm
	// half pools 100 samples of 1 ms and 100 of 1.2 ms.
	if got := calmHalfP50([]fixedSegment{seg(5, 3000), seg(1, 80), seg(4, 2500), seg(1.2, 90)}); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	// Segments are chosen by lag, not latency: a fast one the generator
	// woke late in is left out too.
	if got := calmHalfP50([]fixedSegment{seg(0.5, 3000), seg(1, 80), seg(1, 90)}); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
}

func TestWakeLagP90(t *testing.T) {
	out := make([]outcome, 10)
	for i := range out {
		out[i].Due = int64(i) * int64(time.Millisecond)
		out[i].Dispatched = out[i].Due + int64(i+1)*int64(time.Microsecond)
	}
	if got := wakeLagP90US(out); got != 9 {
		t.Errorf("lag p90 = %vus, want 9", got)
	}
}
