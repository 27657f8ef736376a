package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Lanes of the open-loop generator. Walk requests share a pool of
// connections and may complete out of order; writes go through one
// connection strictly in schedule order, because the durable graph refuses
// a batch that is not newer than everything before it.
const (
	laneWalk = iota
	laneWrite
	numLanes
)

// request is one scheduled operation.
type request struct {
	Due    time.Duration // offset from the schedule's start
	Lane   int
	Kind   string // "walk", "edges" or "expire"
	Method string
	Path   string // path and query
	Body   []byte
	Keep   bool // keep the response body for the output checks
}

// outcome is what happened to one request. Times are nanoseconds from the
// schedule's start.
type outcome struct {
	Kind            string
	Due, Sent, Done int64
	Dispatched      int64 // when the generator woke and handed it to its lane
	Backlog         int   // requests of its lane due but not yet sent when it fell due
	Status          int
	Err             error
	Bytes           int
	Body            []byte // when the request asked to keep it
	// Filled by the workload's parse hook.
	Steps  int64
	Digest uint64
	Count  int64 // edges appended or dropped by a write
	// Migration counts of a routed walk (cost=1 responses).
	Migrations, MigrationBytes int64
}

func (o *outcome) ok() bool { return o.Err == nil && o.Status == http.StatusOK }

// latencyMS is the request's latency from its due time, in milliseconds.
// Timing from the due time rather than the send time charges a stall to
// every request it delays (no coordinated omission).
func (o *outcome) latencyMS() float64 { return float64(o.Done-o.Due) / 1e6 }

func (o *outcome) lateMS() float64 { return float64(o.Sent-o.Due) / 1e6 }

// wakeLagP90US is the 90th percentile of how late the generator woke for
// the requests of out, in microseconds. Its own sleep does not wait on the
// server, so it measures how promptly the host runs the process.
func wakeLagP90US(out []outcome) float64 {
	lag := make([]float64, len(out))
	for i := range out {
		lag[i] = float64(out[i].Dispatched-out[i].Due) / 1e3
	}
	return quantile(lag, 0.9)
}

// loadgen sends schedules to one base URL over a fixed set of connections
// per lane.
type loadgen struct {
	base  string
	trace *tracer
	// parse extracts workload facts from a successful response body; it
	// runs on the sending goroutine and must be safe for concurrent use.
	parse func(r *request, body []byte, o *outcome)
	// ridPrefix makes request ids unique across the phases of a run.
	ridPrefix string
	clients   [numLanes][]*http.Client
}

func newLoadgen(base string, walkConns, writeConns int, tr *tracer, parse func(*request, []byte, *outcome)) *loadgen {
	lg := &loadgen{base: base, trace: tr, parse: parse}
	conns := [numLanes]int{laneWalk: walkConns, laneWrite: writeConns}
	for lane := range lg.clients {
		for i := 0; i < conns[lane]; i++ {
			lg.clients[lane] = append(lg.clients[lane], &http.Client{
				Timeout: 30 * time.Second,
				Transport: &http.Transport{
					MaxConnsPerHost:     1,
					MaxIdleConnsPerHost: 1,
					DisableCompression:  true,
				},
			})
		}
	}
	return lg
}

func (lg *loadgen) close() {
	for _, cs := range lg.clients {
		for _, c := range cs {
			c.CloseIdleConnections()
		}
	}
}

// run sends reqs (sorted by Due) open loop: each request is handed to its
// lane when due, whether or not earlier ones have completed.
func (lg *loadgen) run(ctx context.Context, phase string, reqs []request) []outcome {
	out := make([]outcome, len(reqs))
	var chans [numLanes]chan int
	var dispatched, started [numLanes]atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for lane := range chans {
		// Sized to every request so the dispatcher never blocks: a slow
		// server shows up as lateness and backlog, not as a slower schedule.
		chans[lane] = make(chan int, len(reqs))
		for _, c := range lg.clients[lane] {
			wg.Add(1)
			go func(lane int, c *http.Client) {
				defer wg.Done()
				for i := range chans[lane] {
					started[lane].Add(1)
					lg.send(ctx, c, phase, i, &reqs[i], &out[i], start)
				}
			}(lane, c)
		}
	}
	for i := range reqs {
		waitUntil(start.Add(reqs[i].Due))
		lane := reqs[i].Lane
		out[i].Dispatched = int64(time.Since(start))
		out[i].Due = int64(reqs[i].Due)
		out[i].Kind = reqs[i].Kind
		out[i].Backlog = int(dispatched[lane].Load() - started[lane].Load())
		dispatched[lane].Add(1)
		chans[lane] <- i
	}
	for lane := range chans {
		close(chans[lane])
	}
	wg.Wait()
	return out
}

// waitUntil returns at t. It sleeps in the kernel rather than on a runtime
// timer: an otherwise idle Go process wakes from time.Sleep up to a
// millisecond late, which at a few thousand requests per second would make
// the generator, not the server, set the latency.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

func (lg *loadgen) send(ctx context.Context, c *http.Client, phase string, i int, r *request, o *outcome, start time.Time) {
	o.Sent = int64(time.Since(start))
	rid := lg.ridPrefix + phase + "-" + strconv.Itoa(i)
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, lg.base+r.Path, body)
	if err != nil {
		o.Err = err
		o.Done = int64(time.Since(start))
		return
	}
	req.Header.Set("X-Request-ID", rid)
	var sp span
	if lg.trace != nil {
		sp = lg.trace.begin("client."+r.Kind, rid, 0, "")
		req.Header.Set("X-Bench-Span", strconv.FormatUint(sp.ID, 10))
	}
	resp, err := c.Do(req)
	if err == nil {
		var b []byte
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.Status = resp.StatusCode
		o.Bytes = len(b)
		if err == nil && o.Status == http.StatusOK {
			if lg.parse != nil {
				lg.parse(r, b, o)
			}
			if r.Keep {
				o.Body = b
			}
		} else if err == nil {
			err = fmt.Errorf("%s %s: status %d: %.200s", r.Method, r.Path, o.Status, b)
		}
	}
	o.Err = err
	o.Done = int64(time.Since(start))
	if lg.trace != nil {
		sp.Bytes, sp.Steps = int64(o.Bytes), o.Steps
		lg.trace.finish(sp, "")
	}
}

// constantRate lays out n requests dur long at rate per second, evenly
// spaced, each built by mk(i).
func constantRate(rate float64, dur time.Duration, mk func(i int) request) []request {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	out := make([]request, n)
	for i := range out {
		r := mk(i)
		r.Due = time.Duration(float64(i) / rate * 1e9)
		out[i] = r
	}
	return out
}

// merge interleaves schedules by due time; ties keep argument order.
func merge(scheds ...[]request) []request {
	var out []request
	idx := make([]int, len(scheds))
	for {
		best := -1
		for s, sched := range scheds {
			if idx[s] < len(sched) && (best < 0 || sched[idx[s]].Due < scheds[best][idx[best]].Due) {
				best = s
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, scheds[best][idx[best]])
		idx[best]++
	}
}

// kindLatencies returns the latencies from due time of the requests of one
// kind. A failed request misses any latency limit, so it counts as
// infinitely late.
func kindLatencies(out []outcome, kind string) []float64 {
	var v []float64
	for i := range out {
		if out[i].Kind != kind {
			continue
		}
		if out[i].ok() {
			v = append(v, out[i].latencyMS())
		} else {
			v = append(v, math.Inf(1))
		}
	}
	return v
}

// phaseStats summarises a phase of outcomes.
type phaseStats struct {
	Attempted, Failed int
	Lat               map[string]latency // by request kind, from due time
	LateP99MS         float64
	BacklogMax        int
	BacklogGrew       bool
	Steps             int64
	Span              time.Duration // first due to last completion
	FirstErr          error
	backlogRise       float64 // last-quarter mean backlog minus first-quarter mean
}

func summarizePhase(out []outcome, conns int) phaseStats {
	ps := phaseStats{Lat: make(map[string]latency)}
	var late []float64
	var last int64
	for i := range out {
		o := &out[i]
		ps.Attempted++
		if !o.ok() {
			ps.Failed++
			if ps.FirstErr == nil {
				ps.FirstErr = o.Err
			}
		} else {
			ps.Steps += o.Steps
		}
		if _, seen := ps.Lat[o.Kind]; !seen {
			ps.Lat[o.Kind] = summarize(kindLatencies(out, o.Kind))
		}
		late = append(late, o.lateMS())
		if o.Backlog > ps.BacklogMax {
			ps.BacklogMax = o.Backlog
		}
		if o.Done > last {
			last = o.Done
		}
	}
	ps.LateP99MS = quantile(late, 0.99)
	ps.backlogRise = backlogRise(out)
	ps.BacklogGrew = ps.backlogRise > float64(conns)
	if len(out) > 0 {
		ps.Span = time.Duration(last - out[0].Due)
	}
	return ps
}

// backlogRise is how much longer the queue of due-but-unsent requests was
// over the last quarter of the schedule than over the first, on average.
// It exceeds one request per connection when the offered rate is more
// than the system completes.
func backlogRise(out []outcome) float64 {
	q := len(out) / 4
	if q == 0 {
		return 0
	}
	var first, last float64
	for i := 0; i < q; i++ {
		first += float64(out[i].Backlog)
		last += float64(out[len(out)-q+i].Backlog)
	}
	return (last - first) / float64(q)
}

// rung is one probe of the max-rate ladder.
type rung struct {
	K         int
	Rate      float64
	Pass      bool
	Stats     phaseStats
	StepsPerS float64
}

// ladder finds the highest rate on the grid Base*Ratio^k that a probe
// passes: it climbs Coarse grid steps at a time from Start until a probe
// fails, then bisects the last bracket on the grid.
type ladder struct {
	Base, Ratio   float64
	Start, Coarse int
	MaxProbes     int
}

func (l ladder) rate(k int) float64 { return l.Base * math.Pow(l.Ratio, float64(k)) }

// climb runs probes and returns the best passing rung (ok false when even
// grid step 0 fails) and every rung tried, in order.
func (l ladder) climb(probe func(k int, rate float64) rung) (best rung, ok bool, tried []rung) {
	results := make(map[int]rung)
	try := func(k int) bool {
		if r, seen := results[k]; seen {
			return r.Pass
		}
		r := probe(k, l.rate(k))
		r.K, r.Rate = k, l.rate(k)
		tried = append(tried, r)
		if !r.Pass {
			// A single stall on a shared host can fail a rung the system
			// sustains; a rate fails only when a second probe fails too.
			r = probe(k, l.rate(k))
			r.K, r.Rate = k, l.rate(k)
			tried = append(tried, r)
		}
		results[k] = r
		return r.Pass
	}
	lo, hi := -1, -1
	k := l.Start
	if try(k) {
		lo = k
		for len(tried) < l.MaxProbes {
			k += l.Coarse
			if !try(k) {
				hi = k
				break
			}
			lo = k
		}
	} else {
		hi = k
		for k > 0 && len(tried) < l.MaxProbes {
			k -= l.Coarse
			if k < 0 {
				k = 0
			}
			if try(k) {
				lo = k
				break
			}
			hi = k
		}
	}
	if lo < 0 {
		return rung{}, false, tried
	}
	for hi > lo+1 && len(tried) < l.MaxProbes {
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return results[lo], true, tried
}

// rungLimits decide whether a probe passed.
type rungLimits struct {
	P99MS      float64
	MinSamples int
	Conns      int
}

// judge evaluates a probe at rate: it passes when every request
// succeeded, the walks' p99 from due time is within the limit over enough
// samples, and the backlog did not grow. A backlog counts as grown when it
// rose by more than one request per connection plus the arrivals of one
// host stall (stallAllowance): over a rung of a second, an offered rate a
// few percent above what the system completes fails. Writes are held to
// the backlog rule only: their tail follows the device's fsync latency,
// which on shared hosts varies more than the program does.
func (lim rungLimits) judge(rate float64, out []outcome) (bool, phaseStats) {
	ps := summarizePhase(out, lim.Conns)
	ps.BacklogGrew = ps.backlogRise > float64(lim.Conns)+rate*stallAllowance.Seconds()
	walks := kindLatencies(out, "walk")
	if ps.Failed > 0 || ps.BacklogGrew || len(walks) < lim.MinSamples {
		return false, ps
	}
	return quantile(walks, 0.99) <= lim.P99MS, ps
}

// stallAllowance is the longest stall of the host a rung's backlog rule
// forgives; shared virtual machines stall their guests for up to about
// 15 ms.
const stallAllowance = 15 * time.Millisecond
