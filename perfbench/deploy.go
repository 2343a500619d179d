package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"mrl/internal/cluster"
	"mrl/internal/faultfs"
	"mrl/internal/serve"
	"mrl/internal/wal"
)

// cmd/quantiled's defaults.
const (
	defEpsilon   = 0.001
	defN         = 50_000_000
	defWindows   = 5
	defPerWindow = 1_000_000
	defBackend   = "mrl"
)

// nodeSpec is one quantiled node: cmd/quantiled's defaults, durable state
// under dir on the deployment's filesystem.
type nodeSpec struct {
	eps         float64
	n           int64
	dir         string
	checkpoint  bool          // restore from and write dir/state.ckpt
	ckptEvery   time.Duration // periodic checkpoint period
	rotateEvery time.Duration
	binary      bool // serve the persistent binary ingest listener
}

type node struct {
	reg     *serve.Registry
	srv     *serve.Server
	url     string
	binAddr string
	own     *http.Server // traced runs serve the wrapped handler themselves
	errc    chan error
}

func (s nodeSpec) options(fsys faultfs.FS) serve.Options {
	opt := serve.Options{
		RotateEvery: s.rotateEvery,
		WALDir:      s.dir + "/wal",
		WALSync:     wal.SyncEveryBatch,
		FS:          fsys,
	}
	if s.checkpoint {
		opt.CheckpointPath = s.dir + "/state.ckpt"
		opt.CheckpointEvery = s.ckptEvery
	}
	return opt
}

// startNode builds a node from the public constructors, recovering whatever
// durable state fsys holds under spec.dir, and starts its listeners.
func startNode(fsys faultfs.FS, spec nodeSpec, tr *tracer) (*node, error) {
	reg, err := serve.NewRegistry(serve.Config{
		Epsilon:   spec.eps,
		N:         spec.n,
		Windows:   defWindows,
		PerWindow: defPerWindow,
		Backend:   defBackend,
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		fsys = newTracedFS(fsys, tr)
	}
	newStart := time.Now()
	srv, err := serve.New(reg, spec.options(fsys))
	if err != nil {
		reg.Close()
		return nil, err
	}
	if tr != nil {
		tr.add(span{ID: tr.id(), Name: "setup.recover", Start: tr.at(newStart), End: tr.now()})
	}
	nd := &node{reg: reg, srv: srv, errc: make(chan error, 3)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		nd.stop()
		return nil, err
	}
	nd.url = "http://" + ln.Addr().String()
	if tr == nil {
		go func() { nd.errc <- srv.Serve(ln) }()
	} else {
		// Serve on a listener that never connects, for the background
		// loops; the real one serves the wrapped route table.
		go func() { nd.errc <- srv.Serve(newIdleListener()) }()
		nd.own = &http.Server{Handler: tr.handler("node", srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := nd.own.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				nd.errc <- err
			}
		}()
	}
	if spec.binary {
		bln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			nd.stop()
			return nil, err
		}
		nd.binAddr = bln.Addr().String()
		var l net.Listener = bln
		if tr != nil {
			l = listener{Listener: bln, t: tr}
		}
		go func() { nd.errc <- srv.ServeBinary(l) }()
	}
	return nd, nil
}

// stop shuts the node down gracefully: requests drain, and with a
// checkpoint configured a final one is written.
func (nd *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	if nd.own != nil {
		first = nd.own.Shutdown(ctx)
	}
	if err := nd.srv.Shutdown(ctx); err != nil && first == nil {
		first = err
	}
	return first
}

// kill crash-stops the node: no final checkpoint, the WAL left as is.
func (nd *node) kill() {
	if nd.own != nil {
		_ = nd.own.Close()
	}
	nd.srv.Kill()
	nd.reg.Close()
}

// answer waits until the node's listeners answer: GET /healthz over HTTP,
// and a session handshake on the binary listener.
func (nd *node) answer() error {
	if err := httpAnswers(nd.url); err != nil {
		return err
	}
	if nd.binAddr == "" {
		return nil
	}
	c, err := net.DialTimeout("tcp", nd.binAddr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	hello := serve.AppendSessionFrame(serve.AppendBinPrologueV2(nil), probeSession)
	if _, err := c.Write(hello); err != nil {
		return err
	}
	if _, err := readSessionAck(c); err != nil {
		return fmt.Errorf("binary listener: %w", err)
	}
	return nil
}

// probeSession is the session id set-up probes declare; driver sessions
// are drawn from the seed and never collide with it.
const probeSession = 1

// readSessionAck reads the server's answer to a session frame and returns
// the session's high-water mark.
func readSessionAck(r io.Reader) (uint64, error) {
	var fr [24]byte
	if _, err := io.ReadFull(r, fr[:]); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(fr[:4]) != 16 || fr[8] != 5 {
		return 0, fmt.Errorf("expected a session ack frame, got type %d", fr[8])
	}
	if fr[9] != 0 {
		return 0, fmt.Errorf("session refused with status %d", fr[9])
	}
	return binary.LittleEndian.Uint64(fr[16:]), nil
}

func httpAnswers(base string) error {
	c := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/healthz answered %s", base, resp.Status)
	}
	return nil
}

// deployment is what a workload runs against: one node, or three nodes and
// a coordinator.
type deployment struct {
	fs    *memFS
	nodes []*node
	coord *cluster.Coordinator
	cURL  string
	cSrv  *http.Server
	cErr  chan error
}

// front is the base URL clients send HTTP traffic to.
func (d *deployment) front() string {
	if d.coord != nil {
		return d.cURL
	}
	return d.nodes[0].url
}

func startDeployment(fsys *memFS, specs []nodeSpec, clustered bool, tr *tracer) (*deployment, error) {
	d := &deployment{fs: fsys}
	for _, spec := range specs {
		nd, err := startNode(fsys, spec, tr)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.nodes = append(d.nodes, nd)
	}
	if clustered {
		cfg := cluster.Config{Epsilon: defEpsilon}
		for _, nd := range d.nodes {
			cfg.Nodes = append(cfg.Nodes, nd.url)
		}
		if tr != nil {
			// The coordinator's own default: a plain client with a 10s
			// timeout over the default transport.
			cfg.Client = &http.Client{Timeout: 10 * time.Second, Transport: transport{t: tr, base: http.DefaultTransport}}
		}
		coord, err := cluster.New(cfg)
		if err != nil {
			d.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.stop()
			return nil, err
		}
		var h http.Handler = coord.Handler()
		if tr != nil {
			h = tr.handler("coord", h)
		}
		d.coord, d.cURL = coord, "http://"+ln.Addr().String()
		d.cSrv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		d.cErr = make(chan error, 1)
		go func() { d.cErr <- d.cSrv.Serve(ln) }()
	}
	for _, nd := range d.nodes {
		if err := nd.answer(); err != nil {
			d.stop()
			return nil, err
		}
	}
	if d.coord != nil {
		if err := httpAnswers(d.cURL); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

func (d *deployment) stop() error {
	var first error
	if d.cSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		first = d.cSrv.Shutdown(ctx)
		cancel()
		if err := <-d.cErr; !errors.Is(err, http.ErrServerClosed) && first == nil {
			first = err
		}
		d.cSrv = nil
	}
	for _, nd := range d.nodes {
		if err := nd.stop(); err != nil && first == nil {
			first = err
		}
	}
	d.nodes = nil
	return first
}

func (d *deployment) kill() {
	if d.cSrv != nil {
		_ = d.cSrv.Close()
		<-d.cErr
		d.cSrv = nil
	}
	for _, nd := range d.nodes {
		nd.kill()
	}
	d.nodes = nil
}
