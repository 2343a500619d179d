package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mrl/internal/faultfs"
)

// The traced run measures the layers from outside, through seams the
// program already exposes: the filesystem (serve.Options.FS), the binary
// listener, the HTTP handlers (Server.Handler, Coordinator.Handler) and the
// coordinator's node client (cluster.Config.Client). Spans are kept in
// memory and written out when the run ends.

// spanHeader carries the caller's span id across an HTTP hop: the driver
// sets it on its requests, the coordinator's traced transport on its node
// requests.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	// Counters taken at the same boundaries as the spans.
	walBytes, walSyncs, walSyncNs atomic.Int64
	binRead, binWrites, binAcks   atomic.Int64
	snapBytes                     atomic.Int64

	ckpts []ckptWrite // guarded by mu
}

// ckptWrite is one checkpoint landed through the FS seam.
type ckptWrite struct {
	start, end int64
	bytes      int64
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) id() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer's clock.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handler wraps an HTTP handler in a span per request, linked to the
// caller through spanHeader and handed to the handler's outgoing requests
// through the request context.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		id := t.id()
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.add(span{ID: id, Parent: parent, Name: layer + " " + r.Method + " " + r.URL.Path, Start: start, End: t.now()})
	})
}

// transport is the coordinator's node client: one span per node request,
// ending when the response body is closed, child of the coordinator
// handler span found in the request context.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (rt transport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	id := rt.t.id()
	start := rt.t.now()
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	name := "cluster.node " + req.Method + " " + req.URL.Path
	resp, err := rt.base.RoundTrip(out)
	if err != nil {
		rt.t.add(span{ID: id, Parent: parent, Name: name, Start: start, End: rt.t.now()})
		return nil, err
	}
	snapshot := req.URL.Path == "/snapshot"
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		if snapshot {
			rt.t.snapBytes.Add(n)
		}
		rt.t.add(span{ID: id, Parent: parent, Name: name, Start: start, End: rt.t.now()})
	}}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// listener counts what binary ingest connections read and write: bytes
// read, Write calls, and ack frames written.
type listener struct {
	net.Listener
	t *tracer
}

func (l listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: l.t}, nil
}

type countingConn struct {
	net.Conn
	t *tracer
	// frame parser state over the written stream, which is a sequence of
	// [u32 len][u32 crc][payload] frames that may split across writes.
	hdr       [8]byte
	hn        int
	skip      int
	typeFirst bool
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.binRead.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.t.binWrites.Add(1)
	for q := p; len(q) > 0; {
		if c.skip > 0 {
			if c.typeFirst {
				if q[0] == 3 { // ack frame
					c.t.binAcks.Add(1)
				}
				c.typeFirst = false
			}
			n := min(c.skip, len(q))
			c.skip -= n
			q = q[n:]
			continue
		}
		n := copy(c.hdr[c.hn:], q)
		c.hn += n
		q = q[n:]
		if c.hn == len(c.hdr) {
			c.skip = int(binary.LittleEndian.Uint32(c.hdr[:4]))
			c.hn = 0
			c.typeFirst = true
		}
	}
	return c.Conn.Write(p)
}

// tracedFS records WAL segment lifetimes, fsyncs and bytes, and checkpoint
// reads and writes, as background spans.
type tracedFS struct {
	faultfs.FS
	t *tracer

	mu      sync.Mutex
	tmpOpen map[string]*tracedFile // checkpoint temp path -> its writer
}

func newTracedFS(inner faultfs.FS, t *tracer) *tracedFS {
	return &tracedFS{FS: inner, t: t, tmpOpen: map[string]*tracedFile{}}
}

func isWALSegment(path string) bool {
	b := filepath.Base(path)
	return strings.HasPrefix(b, "wal-") && strings.HasSuffix(b, ".seg")
}

func (f *tracedFS) OpenFile(path string, flag int, perm fs.FileMode) (faultfs.File, error) {
	start := f.t.now()
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	tf := &tracedFile{File: file, fs: f, start: start}
	switch {
	case isWALSegment(path) && flag&(os.O_WRONLY|os.O_RDWR) != 0:
		tf.kind = "wal.segment.write"
	case isWALSegment(path):
		tf.kind = "wal.segment.read"
	case strings.HasSuffix(path, ".tmp"):
		tf.kind = "checkpoint.tmp"
		f.mu.Lock()
		f.tmpOpen[path] = tf
		f.mu.Unlock()
	case flag&(os.O_WRONLY|os.O_RDWR) == 0:
		tf.kind = "checkpoint.read"
	}
	return tf, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	f.mu.Lock()
	tf, ok := f.tmpOpen[oldpath]
	delete(f.tmpOpen, oldpath)
	f.mu.Unlock()
	if ok && err == nil {
		t := f.t
		end := t.now()
		t.add(span{ID: t.id(), Name: "checkpoint.write", Start: tf.start, End: end})
		t.mu.Lock()
		t.ckpts = append(t.ckpts, ckptWrite{start: tf.start, end: end, bytes: tf.written})
		t.mu.Unlock()
	}
	return err
}

type tracedFile struct {
	faultfs.File
	fs      *tracedFS
	kind    string
	start   int64
	written int64 // checkpoint temp files: bytes written
}

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	switch f.kind {
	case "wal.segment.write":
		f.fs.t.walBytes.Add(int64(n))
	case "checkpoint.tmp":
		f.written += int64(n)
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	if f.kind != "wal.segment.write" {
		return f.File.Sync()
	}
	t := f.fs.t
	start := t.now()
	err := f.File.Sync()
	end := t.now()
	t.walSyncs.Add(1)
	t.walSyncNs.Add(end - start)
	t.add(span{ID: t.id(), Name: "wal.fsync", Start: start, End: end})
	return err
}

func (f *tracedFile) Close() error {
	err := f.File.Close()
	if f.kind != "" && f.kind != "checkpoint.tmp" {
		t := f.fs.t
		t.add(span{ID: t.id(), Name: f.kind, Start: f.start, End: t.now()})
	}
	return err
}

// idleListener is a listener that never yields a connection. The traced
// run hands it to Server.Serve, which starts the server's background loops
// and arms Shutdown, while the real listener serves the wrapped handler.
type idleListener struct {
	once   sync.Once
	closed chan struct{}
}

func newIdleListener() *idleListener { return &idleListener{closed: make(chan struct{})} }

func (l *idleListener) Accept() (net.Conn, error) {
	<-l.closed
	return nil, net.ErrClosed
}

func (l *idleListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *idleListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }
