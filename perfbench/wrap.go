package main

import (
	"bytes"
	"context"
	"io/fs"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/vfs"
	"github.com/tea-graph/tea/internal/xrand"
)

// The wrappers below measure each layer from outside, at the seams the
// program's constructors already take. They are installed only in traced
// runs.

// handlerSpans wraps an http.Handler with one span per request named
// layer+"."+kind, where kind comes from the request. The span's parent is
// the client span named in X-Bench-Span, or else the open span registered
// under parentKey(rid). The response body is captured for the facts hook.
type handlerSpans struct {
	t         *tracer
	layer     string
	next      http.Handler
	parentKey func(rid string) string
	facts     func(kind string, body []byte, sp *span)
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.t.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	rid := r.Header.Get("X-Request-ID")
	var parent uint64
	if p := r.Header.Get("X-Bench-Span"); p != "" {
		parent, _ = strconv.ParseUint(p, 10, 64)
	} else if h.parentKey != nil {
		parent = h.t.lookup(h.parentKey(rid))
	}
	kind := requestKind(r)
	key := h.layer + "/" + rid
	sp := h.t.begin(h.layer+"."+kind, rid, parent, key)
	rec := &recorder{ResponseWriter: w}
	h.next.ServeHTTP(rec, r.WithContext(withSpan(r.Context(), sp.ID)))
	sp.End = h.t.now()
	sp.Bytes = int64(rec.body.Len())
	if h.facts != nil && rec.status < 300 {
		h.facts(kind, rec.body.Bytes(), &sp)
	}
	h.t.add(sp, key)
}

// requestKind names the operation a request performs.
func requestKind(r *http.Request) string {
	switch r.URL.Path {
	case "/walk":
		return "walk"
	case "/edges":
		return "append"
	case "/expire":
		return "expire"
	}
	return "other"
}

type recorder struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.body.Write(b)
	return r.ResponseWriter.Write(b)
}

// tracedCaller wraps a shard.StepCaller: one wire.step span per step-RPC,
// child of the shard handler span carried in ctx. It stays registered under
// stepKey while in flight so the serving side can name it as its parent.
type tracedCaller struct {
	t      *tracer
	inner  shard.StepCaller
	errors atomic.Int64
}

func stepKey(rid string, shardID int) string { return "step/" + rid + "/" + strconv.Itoa(shardID) }

func (c *tracedCaller) Step(ctx context.Context, shardID int, req *wire.StepRequest) (*wire.StepResponse, error) {
	if !c.t.on.Load() {
		return c.inner.Step(ctx, shardID, req)
	}
	key := stepKey(req.RequestID, shardID)
	sp := c.t.begin("wire.step", req.RequestID, spanFrom(ctx), key)
	resp, err := c.inner.Step(ctx, shardID, req)
	if err != nil {
		c.errors.Add(1)
	}
	c.t.finish(sp, key)
	return resp, err
}

// tracedStepHandler wraps the wire.Handler a shard serves peers with.
type tracedStepHandler struct {
	t    *tracer
	node *shard.Node
}

func (h *tracedStepHandler) HandleStep(ctx context.Context, req *wire.StepRequest) (*wire.StepResponse, error) {
	if !h.t.on.Load() {
		return h.node.HandleStep(ctx, req)
	}
	sp := h.t.begin("shard.serve_step", req.RequestID, h.t.lookup(stepKey(req.RequestID, h.node.ShardID())), "")
	resp, err := h.node.HandleStep(ctx, req)
	h.t.finish(sp, "")
	return resp, err
}

// ioStats accumulates what the storage layer asked of the filesystem.
type ioStats struct {
	mu            sync.Mutex
	walBytes      int64
	snapBytes     int64
	walSyncs      int64
	syncUS        []float64
	snapshotFiles map[string]bool
}

// countingFS wraps a vfs.FS to time syncs and count bytes by file kind.
type countingFS struct {
	inner vfs.FS
	t     *tracer
	st    *ioStats
}

func (c *countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return f, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	return c.wrap(c.inner.OpenFile(name, flag, perm))
}

func (c *countingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return c.wrap(c.inner.CreateTemp(dir, pattern))
}

func (c *countingFS) Rename(oldpath, newpath string) error { return c.inner.Rename(oldpath, newpath) }
func (c *countingFS) Remove(name string) error             { return c.inner.Remove(name) }
func (c *countingFS) Stat(name string) (fs.FileInfo, error) {
	return c.inner.Stat(name)
}
func (c *countingFS) MkdirAll(path string, perm fs.FileMode) error {
	return c.inner.MkdirAll(path, perm)
}
func (c *countingFS) Glob(pattern string) ([]string, error) { return c.inner.Glob(pattern) }
func (c *countingFS) SyncDir(dir string) error              { return c.inner.SyncDir(dir) }

type countingFile struct {
	vfs.File
	fs *countingFS
}

// kind classifies a file by the names the WAL and snapshot code give them.
func (f *countingFile) kind() string {
	base := filepath.Base(f.Name())
	switch {
	case strings.HasPrefix(base, "wal-"):
		return "wal"
	case strings.Contains(base, "snapshot"):
		return "snapshot"
	}
	return "other"
}

func (f *countingFile) count(n int) {
	st := f.fs.st
	st.mu.Lock()
	switch f.kind() {
	case "wal":
		st.walBytes += int64(n)
	case "snapshot":
		st.snapBytes += int64(n)
		st.snapshotFiles[f.Name()] = true
	}
	st.mu.Unlock()
}

func (f *countingFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.count(n)
	return n, err
}

func (f *countingFile) WriteAt(b []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(b, off)
	f.count(n)
	return n, err
}

func (f *countingFile) Sync() error {
	kind := f.kind()
	sp := f.fs.t.begin("vfs.sync_"+kind, "", 0, "")
	err := f.File.Sync()
	sp.End = f.fs.t.now()
	f.fs.t.add(sp, "")
	st := f.fs.st
	st.mu.Lock()
	if kind == "wal" {
		st.walSyncs++
		st.syncUS = append(st.syncUS, float64(sp.End-sp.Start)/1e3)
	}
	st.mu.Unlock()
	return err
}

// timedSampler wraps the engine's sampler to time every draw. It keeps the
// inner sampler's batch entry point so the engine picks the same kernel as
// in an untraced run.
type timedSampler struct {
	inner core.BatchSampler
	calls atomic.Int64
	ns    atomic.Int64
	evals atomic.Int64
}

func (s *timedSampler) Name() string       { return s.inner.Name() }
func (s *timedSampler) MemoryBytes() int64 { return s.inner.MemoryBytes() }

func (s *timedSampler) Sample(u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	t0 := time.Now()
	e, ev, ok := s.inner.Sample(u, k, r)
	s.ns.Add(int64(time.Since(t0)))
	s.calls.Add(1)
	s.evals.Add(ev)
	return e, ev, ok
}

func (s *timedSampler) SampleBatch(ctx context.Context, us []temporal.Vertex, ks []int32, rs []*xrand.Rand, edges []int32, evals []int64, oks []bool) {
	t0 := time.Now()
	s.inner.SampleBatch(ctx, us, ks, rs, edges, evals, oks)
	s.ns.Add(int64(time.Since(t0)))
	s.calls.Add(int64(len(us)))
	var ev int64
	for _, v := range evals {
		ev += v
	}
	s.evals.Add(ev)
}

func (s *timedSampler) evalsPerCall() float64 {
	c := s.calls.Load()
	if c == 0 {
		return 0
	}
	return float64(s.evals.Load()) / float64(c)
}

func (s *timedSampler) nsPerCall() float64 {
	c := s.calls.Load()
	if c == 0 {
		return 0
	}
	return float64(s.ns.Load()) / float64(c)
}

// ioTotals is a point-in-time copy of ioStats.
type ioTotals struct {
	walBytes, snapBytes, walSyncs int64
	snapshots                     int
	syncUS                        []float64
}

func (st *ioStats) snapshot() ioTotals {
	st.mu.Lock()
	defer st.mu.Unlock()
	return ioTotals{
		walBytes: st.walBytes, snapBytes: st.snapBytes, walSyncs: st.walSyncs,
		snapshots: len(st.snapshotFiles), syncUS: append([]float64(nil), st.syncUS...),
	}
}
