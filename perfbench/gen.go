package main

import (
	"math"

	"github.com/tea-graph/tea/internal/gen"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// layered describes the long-walk graph of bulk-long and serve-sharded.
// Vertices sit in Layers layers of PerLayer each; layer l sends out-edges
// only to layer l+1, with Zipf-distributed out-degrees of mean MeanDegree.
// Edge times of layer l fall in [l*Period, (l+2)*Period): consecutive bands
// overlap, so a walker that arrived at time t still finds the later part of
// the next layer's band, and every candidate set is a strict newest-first
// prefix of the out-edges. Walks therefore run until the last layer or the
// length limit instead of dead-ending after a couple of steps as they do on
// the growth-shaped profiles.
type layered struct {
	Layers, PerLayer int
	MeanDegree       float64
	Skew             float64
	Period           int64
}

var longGraph = layered{Layers: 200, PerLayer: 500, MeanDegree: 20, Skew: 0.8, Period: 1000}

func (l layered) numVertices() int { return l.Layers * l.PerLayer }

// edges generates the graph's edge list from seed.
func (l layered) edges(seed uint64) []temporal.Edge {
	r := xrand.New(seed)
	w := make([]float64, l.PerLayer)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -l.Skew)
		sum += w[i]
	}
	scale := l.MeanDegree * float64(l.PerLayer) / sum
	perm := make([]int, l.PerLayer)
	out := make([]temporal.Edge, 0, int(l.MeanDegree*float64(l.numVertices())*1.05))
	for layer := 0; layer < l.Layers-1; layer++ {
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := r.IntN(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		base := int64(layer) * l.Period
		for j := 0; j < l.PerLayer; j++ {
			want := w[perm[j]] * scale
			deg := int(want)
			if r.Float64() < want-float64(deg) {
				deg++
			}
			if deg < 1 {
				deg = 1
			}
			src := temporal.Vertex(layer*l.PerLayer + j)
			for k := 0; k < deg; k++ {
				out = append(out, temporal.Edge{
					Src:  src,
					Dst:  temporal.Vertex((layer+1)*l.PerLayer + r.IntN(l.PerLayer)),
					Time: temporal.Time(base + int64(r.IntN(int(2*l.Period)))),
				})
			}
		}
	}
	return out
}

// growth returns the growth profile (1,870 vertices, 39,953 edges) with
// its randomness drawn from seed.
func growth(seed uint64) gen.Profile {
	p := gen.Growth()
	p.Seed = seed
	return p
}

// lambdaFor calibrates the exponential walk's decay to the graph's time
// span the way teaserve does by default.
func lambdaFor(edges []temporal.Edge) float64 {
	lo, hi := edges[0].Time, edges[0].Time
	for _, e := range edges {
		if e.Time < lo {
			lo = e.Time
		}
		if e.Time > hi {
			hi = e.Time
		}
	}
	span := float64(hi - lo)
	if span <= 0 {
		span = 1
	}
	return 50 / span
}

// seeds derives independent seeds for the parts of one invocation, so that
// the graph, the schedule and the walk seeds do not share a stream.
func seeds(seed uint64, n int) []uint64 {
	r := xrand.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}
