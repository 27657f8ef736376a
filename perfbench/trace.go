package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is 0 for a root.
type span struct {
	ID, Parent uint64
	Name       string
	RID        string
	Start, End int64
	// Optional facts recorded at the boundary; -1 when not known.
	Bytes, Steps int64
}

// tracer keeps spans in memory for one traced run. A nil *tracer is the
// untraced configuration: the benchmark installs no wrappers then, so no
// method is ever called on it.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	// on lets wrappers built into a system pass straight through while the
	// untraced half of a traced run measures the same system.
	on atomic.Bool

	mu      sync.Mutex
	spans   []span
	open    map[string]uint64 // boundary key -> span id, for cross-goroutine parents
	dropped int
}

// maxSpans bounds the memory a traced run may spend on spans.
const maxSpans = 400_000

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), open: make(map[string]uint64)}
	t.on.Store(true)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; key, when non-empty, lets another goroutine find it
// as a parent with lookup while it is open.
func (t *tracer) begin(name, rid string, parent uint64, key string) span {
	s := span{ID: t.next.Add(1), Parent: parent, Name: name, RID: rid, Start: t.now(), Bytes: -1, Steps: -1}
	if key != "" {
		t.mu.Lock()
		t.open[key] = s.ID
		t.mu.Unlock()
	}
	return s
}

// finish closes s and keeps it.
func (t *tracer) finish(s span, key string) {
	s.End = t.now()
	t.add(s, key)
}

func (t *tracer) add(s span, key string) {
	t.mu.Lock()
	if key != "" && t.open[key] == s.ID {
		delete(t.open, key)
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) lookup(key string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open[key]
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name         string
	Count        int
	TotalNS      int64
	SelfNS       int64
	Durations    []float64 // per span, microseconds
	SelfDurs     []float64 // per span self time, microseconds
	Bytes, Steps []float64 // per span, where recorded
}

// selfTimes reduces spans to per-name totals. A span's self time is its
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[uint64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		self := covered(s, spans, children[s.ID])
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalNS += dur
		lt.SelfNS += self
		lt.Durations = append(lt.Durations, float64(dur)/1e3)
		lt.SelfDurs = append(lt.SelfDurs, float64(self)/1e3)
		if s.Bytes >= 0 {
			lt.Bytes = append(lt.Bytes, float64(s.Bytes))
		}
		if s.Steps >= 0 {
			lt.Steps = append(lt.Steps, float64(s.Steps))
		}
	}
	return out
}

// covered returns s's duration minus the union of its children's
// intervals clipped to s.
func covered(s span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < s.Start {
			a = s.Start
		}
		if b > s.End {
			b = s.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var cov, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			cov += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		cov += curB - curA
	}
	return (s.End - s.Start) - cov
}

// writeChrome writes spans as Chrome trace_event JSON (load it in Perfetto
// or chrome://tracing). Spans of one request share a thread row.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := encodeChrome(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encodeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	rows := make(map[string]int)
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	for i, s := range spans {
		tid, ok := rows[s.RID]
		if !ok {
			tid = len(rows) + 1
			rows[s.RID] = tid
		}
		b, err := json.Marshal(event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "rid": s.RID},
		})
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// layerOf maps a span name ("server.handler") to its layer ("server").
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, rows map[string]*layerTime) {
	names := make([]string, 0, len(rows))
	var total int64
	for n, r := range rows {
		names = append(names, n)
		total += r.SelfNS
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# self time by span (duration minus time covered by child spans)\n")
	fmt.Fprintf(w, "# %-18s %8s %12s %12s %12s %7s\n", "span", "count", "mean_us", "self_mean_us", "self_tot_ms", "share")
	for _, n := range names {
		r := rows[n]
		share := 0.0
		if total > 0 {
			share = float64(r.SelfNS) / float64(total)
		}
		fmt.Fprintf(w, "# %-18s %8d %12.1f %12.1f %12.2f %6.1f%%\n", n, r.Count,
			float64(r.TotalNS)/float64(r.Count)/1e3, float64(r.SelfNS)/float64(r.Count)/1e3,
			float64(r.SelfNS)/1e6, 100*share)
	}
}

// pairedDiff returns, per request id, the duration of its outer span minus
// that of its inner span, in microseconds: for a client span around a
// handler span, the time spent outside the handler (transport, client).
func pairedDiff(spans []span, outer, inner string) []float64 {
	in := make(map[string]int64)
	for _, s := range spans {
		if s.Name == inner {
			in[s.RID] = s.End - s.Start
		}
	}
	var out []float64
	for _, s := range spans {
		if d, ok := in[s.RID]; ok && s.Name == outer {
			out = append(out, float64(s.End-s.Start-d)/1e3)
		}
	}
	return out
}
