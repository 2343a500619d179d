package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"mrl/internal/faultfs"
	"mrl/internal/wal"
	"mrl/quantile"
)

// DefaultMaxIngestBytes caps one ingest request body unless
// Options.MaxIngestBytes says otherwise; 32 MiB is ~2M JSON-encoded values,
// far beyond any sane batch.
const DefaultMaxIngestBytes = 32 << 20

// Options configures the HTTP server wrapped around a Registry.
type Options struct {
	// CheckpointPath, when set, enables the periodic checkpoint loop and
	// the final checkpoint written during Shutdown. New restores from it.
	CheckpointPath string
	// CheckpointEvery is the period between checkpoints; it defaults to
	// 30s when CheckpointPath is set.
	CheckpointEvery time.Duration
	// RotateEvery, when positive, tumbles every metric's window ring on
	// this period. Zero leaves rotation to explicit POST /rotate calls.
	RotateEvery time.Duration

	// WALDir, when set, write-ahead-logs every ingest batch before it is
	// applied, and New replays the suffix the checkpoint does not cover.
	WALDir string
	// WALSync is the log's durability policy (every-batch, interval, off).
	WALSync wal.SyncPolicy
	// WALSyncEvery is the flush period under WALSync == SyncInterval and
	// the heartbeat of the WAL health probe; it defaults to 1s.
	WALSyncEvery time.Duration
	// WALSegmentBytes caps one log segment; 0 means the WAL default.
	WALSegmentBytes int64

	// FS is the filesystem the checkpoint and WAL paths go through; nil
	// means the real one. Tests inject faults and crashes here.
	FS faultfs.FS

	// FailureThreshold is how many consecutive WAL or checkpoint failures
	// flip the server into degraded mode (ingest shed with 429, healthz
	// 503); it defaults to 3.
	FailureThreshold int
	// RetryMin and RetryMax bound the exponential backoff used by the
	// background loops and advertised via Retry-After; they default to
	// 100ms and 5s.
	RetryMin time.Duration
	RetryMax time.Duration

	// MaxIngestBytes caps one POST /ingest body; it defaults to 32 MiB.
	MaxIngestBytes int64

	// BinIdleTimeout is how long a persistent binary ingest connection may
	// sit idle between frames before the server closes it, so abandoned
	// clients cannot pin handler goroutines; it defaults to 2 minutes.
	// Negative disables the idle timeout.
	BinIdleTimeout time.Duration
	// BinIOTimeout bounds reading one frame payload and writing one ack on
	// a binary ingest connection, so a peer stalled mid-frame (slow loris)
	// is cut off; it defaults to 30 seconds. Negative disables it.
	BinIOTimeout time.Duration

	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the server's
	// own mux. Off by default: the profile endpoints expose internals and
	// burn CPU, so they are opt-in (quantiled exposes this as -pprof).
	EnablePprof bool

	// Logf receives one line per lifecycle event (checkpoints, rotation
	// failures, shutdown); nil means silent.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.CheckpointPath != "" && o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 30 * time.Second
	}
	if o.WALSyncEvery <= 0 {
		o.WALSyncEvery = time.Second
	}
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	if o.RetryMin <= 0 {
		o.RetryMin = 100 * time.Millisecond
	}
	if o.RetryMax < o.RetryMin {
		o.RetryMax = 5 * time.Second
		if o.RetryMax < o.RetryMin {
			o.RetryMax = o.RetryMin
		}
	}
	if o.MaxIngestBytes <= 0 {
		o.MaxIngestBytes = DefaultMaxIngestBytes
	}
	if o.BinIdleTimeout == 0 {
		o.BinIdleTimeout = 2 * time.Minute
	}
	if o.BinIOTimeout == 0 {
		o.BinIOTimeout = 30 * time.Second
	}
	return o
}

// Server is the HTTP front end: it owns the route table, the write-ahead
// log, the background rotation/checkpoint/WAL loops, the degraded-mode
// health state, and the graceful-shutdown sequence that drains requests and
// seals every sketch into a final checkpoint.
type Server struct {
	reg   *Registry
	opt   Options
	mux   *http.ServeMux
	start time.Time
	fs    faultfs.FS
	wal   *wal.Log

	// gate orders ingest against checkpoint cuts: ingest holds the read
	// side across WAL append + apply-queue enqueue, a checkpoint takes the
	// write side to read the log position, drain the queues and seal the
	// sketches as one cut.
	gate   sync.RWMutex
	health health

	mu      sync.Mutex
	httpSrv *http.Server
	stop    chan struct{}
	loops   sync.WaitGroup

	// Binary ingest carrier state (see binhandler.go): the live listeners
	// and connections ServeBinary has accepted, torn down by Shutdown.
	binLns    []net.Listener
	binConns  map[net.Conn]struct{}
	binClosed bool
	binWG     sync.WaitGroup
}

// New wraps reg in a Server and recovers its durable state: the checkpoint
// at CheckpointPath (if any) is restored, the WAL suffix it does not cover
// is replayed, and the log is opened for appending. No goroutines start
// until Serve; embedders that only want the routes can mount Handler
// directly and still call Shutdown for the final checkpoint.
func New(reg *Registry, opt Options) (*Server, error) {
	opt = opt.withDefaults()
	s := &Server{reg: reg, opt: opt, mux: http.NewServeMux(), start: time.Now(), fs: opt.FS}
	if err := s.recoverState(); err != nil {
		return nil, err
	}
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("POST /ingest/bin", s.handleIngestBin)
	s.mux.HandleFunc("GET /quantile", s.handleQuantile)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /rotate", s.handleRotate)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if opt.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the route table, for mounting under httptest or an
// embedder's existing server.
func (s *Server) Handler() http.Handler { return s.mux }

// logf is Options.Logf or a no-op.
func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// Serve starts the background loops and serves HTTP on ln until Shutdown.
// It returns nil after a clean Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return errors.New("serve: server already running")
	}
	s.httpSrv = srv
	s.stop = make(chan struct{})
	s.startLoops()
	s.mu.Unlock()

	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe is Serve on a fresh TCP listener.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("quantiled listening on %s", ln.Addr())
	return s.Serve(ln)
}

// startLoops launches the rotation and checkpoint tickers; caller holds
// s.mu and has set s.stop.
func (s *Server) startLoops() {
	stop := s.stop
	if s.opt.RotateEvery > 0 {
		s.loops.Add(1)
		go func() {
			defer s.loops.Done()
			t := time.NewTicker(s.opt.RotateEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if rotated, err := s.reg.RotateAll(); err != nil {
						s.logf("window rotation: %v", err)
					} else {
						s.logf("rotated %d window rings", len(rotated))
					}
				}
			}
		}()
	}
	if s.opt.CheckpointPath != "" {
		s.loops.Add(1)
		go s.runCheckpointLoop(stop)
	}
	if s.wal != nil {
		s.loops.Add(1)
		go s.runWALLoop(stop)
	}
}

// Shutdown drains in-flight requests, stops the background loops, and —
// with a checkpoint path configured — seals every sketch into one final
// checkpoint after the last ingest has landed. Safe to call whether or not
// Serve ever ran.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.httpSrv
	stop := s.stop
	s.httpSrv = nil
	s.stop = nil
	s.mu.Unlock()

	var first error
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			first = err
		}
	}
	s.closeBinary()
	if stop != nil {
		close(stop)
	}
	s.loops.Wait()
	if s.opt.CheckpointPath != "" {
		if err := s.saveCheckpoint(); err != nil {
			s.logf("final checkpoint: %v", err)
			if first == nil {
				first = err
			}
		} else {
			s.logf("final checkpoint written to %s", s.opt.CheckpointPath)
		}
	}
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			s.logf("wal close: %v", err)
			if first == nil {
				first = err
			}
		}
	}
	// Apply anything still queued (the final checkpoint already drained if
	// one was configured), then park the apply workers.
	s.reg.drainAll()
	s.reg.Close()
	return first
}

// Kill is the crash-stop: it tears down the HTTP listener, every binary
// ingest connection, and the background loops immediately — no request
// drain, no final checkpoint, the WAL left unsealed — exactly what a
// process kill leaves behind. Chaos harnesses use it to fail a cluster
// node mid-stream; recovery is a fresh New over the same filesystem.
func (s *Server) Kill() {
	s.mu.Lock()
	srv := s.httpSrv
	stop := s.stop
	s.httpSrv = nil
	s.stop = nil
	s.mu.Unlock()

	if srv != nil {
		_ = srv.Close()
	}
	s.closeBinary()
	if stop != nil {
		close(stop)
	}
	s.loops.Wait()
}

// --- handlers ---

type errorResponse struct {
	Error string `json:"error"`
}

// WriteJSON writes v as the JSON answer with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	// The response writer owns delivery failures; encoding failures cannot
	// happen for the plain structs served here.
	_ = enc.Encode(v)
}

// WriteError writes the JSON error answer {"error": "..."} with the given
// status code.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, errorResponse{Error: err.Error()})
}

// ReadIngestBody reads r's body, at most limit bytes, into buf (reusing its
// capacity). On failure it has already answered: 413 for a body over the
// limit, 400 for a body that could not be read.
func ReadIngestBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, bool) {
	buf, err := readFullBody(http.MaxBytesReader(w, r.Body, limit), buf)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: bad ingest body: %w", err))
		}
		return buf, false
	}
	return buf, true
}

// The refusals of an ingest body that carries nothing, shared by the node's
// carriers and the forwarding splitters.
var (
	errEmptyIngestBody = errors.New("serve: empty ingest body")
	errNoBatchFrames   = errors.New("serve: binary ingest body carries no batch frames")
)

// statusFor maps registry failures onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownMetric), errors.Is(err, quantile.ErrEmpty):
		return http.StatusNotFound
	case errors.Is(err, ErrInvalidMetricName), errors.Is(err, ErrWindowingDisabled), errors.Is(err, ErrNaN),
		errors.Is(err, ErrInvalidBackend), errors.Is(err, ErrBackendMismatch),
		errors.Is(err, ErrWeightsUnsupported), errors.Is(err, ErrWeightMismatch),
		errors.Is(err, ErrBadFrame), errors.Is(err, ErrUnknownMetricID),
		errors.Is(err, quantile.ErrUnknownBackend):
		return http.StatusBadRequest
	case errors.Is(err, ErrDegraded), errors.Is(err, ErrApplyBacklog):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// ingestRequest is one named batch. POST /ingest accepts a single JSON
// object or any concatenation of them (NDJSON included): the decoder simply
// consumes objects until the body ends. Backend, when present, registers the
// metric under that summary implementation (or 400s if it already runs a
// different one); Weights, when present, pairs up with Values for weighted
// ingest (metrics on the "weighted" backend only).
type ingestRequest struct {
	Metric  string    `json:"metric"`
	Backend string    `json:"backend"`
	Values  []float64 `json:"values"`
	Weights []float64 `json:"weights"`
}

// IngestResponse is the JSON answer to an accepted ingest request.
type IngestResponse struct {
	// Accepted is the number of values ingested across all objects in the
	// request body.
	Accepted int64 `json:"accepted"`
	// Batches is the number of ingest objects processed.
	Batches int `json:"batches"`
}

// writeIngestError maps err to a status, attaching Retry-After when the
// failure is a durability condition worth retrying against.
func (s *Server) writeIngestError(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	WriteError(w, code, err)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// Shed before reading the body: while degraded the server cannot honour
	// an ack, so the cheapest correct answer is an immediate 429.
	if degraded, _, _, lastErr := s.health.state(s.opt.FailureThreshold); degraded {
		s.writeIngestError(w, fmt.Errorf("%w (last error: %s)", ErrDegraded, lastErr))
		return
	}
	// Read the whole body into pooled scratch, then split and decode the
	// JSON objects in place: the splitter finds value boundaries and
	// json.Unmarshal reuses the pooled Values backing array, so a warm
	// ingest request allocates no decode buffers.
	sc := getIngestScratch()
	defer putIngestScratch(sc)
	var ok bool
	if sc.body, ok = ReadIngestBody(w, r, s.opt.MaxIngestBytes, sc.body); !ok {
		return
	}
	var resp IngestResponse
	rest := sc.body
	for {
		obj, tail, err := nextJSONValue(rest)
		rest = tail
		if err == io.EOF {
			break
		}
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: bad ingest body: %w", err))
			return
		}
		sc.req.Metric = ""
		sc.req.Backend = ""
		sc.req.Values = sc.req.Values[:0]
		sc.req.Weights = sc.req.Weights[:0]
		if err := json.Unmarshal(obj, &sc.req); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: bad ingest body: %w", err))
			return
		}
		if sc.req.Backend != "" {
			if err := s.reg.EnsureBackend(sc.req.Metric, sc.req.Backend); err != nil {
				s.writeIngestError(w, err)
				return
			}
		}
		var ws []float64
		if len(sc.req.Weights) > 0 {
			ws = sc.req.Weights
		}
		// No pooled buffer: the decode slices are request scratch, so the
		// apply queue takes its own copy of the batch.
		if err := s.ingest(sc.req.Metric, sc.req.Values, ws, nil, nil); err != nil {
			s.writeIngestError(w, err)
			return
		}
		resp.Accepted += int64(len(sc.req.Values))
		resp.Batches++
	}
	if resp.Batches == 0 {
		WriteError(w, http.StatusBadRequest, errEmptyIngestBody)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

type quantileResponse struct {
	Metric string    `json:"metric"`
	Window bool      `json:"window"`
	Phis   []float64 `json:"phis"`
	Values []float64 `json:"values"`
	Count  int64     `json:"count"`
	// ErrorBound is the worst-case rank error of every value (Lemma 5 /
	// Section 4.9, for the collapses that actually happened); Epsilon is
	// the same certificate normalised by Count.
	ErrorBound float64 `json:"errorBound"`
	Epsilon    float64 `json:"epsilon"`
}

// ParsePhis parses a comma-separated phi list, e.g. "0.5,0.99,0.999": the
// phi syntax of every /quantile endpoint.
func ParsePhis(raw string) ([]float64, error) {
	if raw == "" {
		return nil, errors.New("serve: missing phi parameter")
	}
	parts := strings.Split(raw, ",")
	phis := make([]float64, 0, len(parts))
	for _, p := range parts {
		phi, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("serve: bad phi %q: %w", p, err)
		}
		if math.IsNaN(phi) || phi < 0 || phi > 1 {
			return nil, fmt.Errorf("serve: phi %v outside [0,1]", phi)
		}
		phis = append(phis, phi)
	}
	return phis, nil
}

func (s *Server) handleQuantile(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	rawPhis := q.Get("phi")
	phis, err := ParsePhis(rawPhis)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	windowed := false
	if raw := q.Get("window"); raw != "" {
		windowed, err = strconv.ParseBool(raw)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: bad window parameter %q", raw))
			return
		}
	}
	name := q.Get("metric")
	res, err := s.reg.QuantilesCached(name, rawPhis, phis, windowed)
	if err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, quantileResponse{
		Metric:     name,
		Window:     windowed,
		Phis:       phis,
		Values:     res.Values,
		Count:      res.Count,
		ErrorBound: res.ErrorBound,
		Epsilon:    res.Epsilon,
	})
}

type rotateResponse struct {
	Rotated []string `json:"rotated"`
}

func (s *Server) handleRotate(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("metric"); name != "" {
		if err := s.reg.Rotate(name); err != nil {
			WriteError(w, statusFor(err), err)
			return
		}
		WriteJSON(w, http.StatusOK, rotateResponse{Rotated: []string{name}})
		return
	}
	rotated, err := s.reg.RotateAll()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if rotated == nil {
		rotated = []string{}
	}
	WriteJSON(w, http.StatusOK, rotateResponse{Rotated: rotated})
}

// QueryCacheStatus is the observability view of the read-path fast lane.
type QueryCacheStatus struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

type metricszResponse struct {
	Metrics      []MetricStatus   `json:"metrics"`
	Durability   DurabilityStatus `json:"durability"`
	QueryCache   QueryCacheStatus `json:"queryCache"`
	Apply        ApplyStatus      `json:"apply"`
	PprofEnabled bool             `json:"pprofEnabled"`
}

// handleMetricsz reports observability state. It deliberately does NOT drain
// the apply queues, so the applied-vs-acked lag is visible here.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	hits, misses, entries := s.reg.CacheStatus()
	WriteJSON(w, http.StatusOK, metricszResponse{
		Metrics:      s.reg.Status(),
		Durability:   s.durabilityStatus(),
		QueryCache:   QueryCacheStatus{Hits: hits, Misses: misses, Entries: entries},
		Apply:        s.reg.ApplyStatus(),
		PprofEnabled: s.opt.EnablePprof,
	})
}

type healthzResponse struct {
	Status        string  `json:"status"`
	Reason        string  `json:"reason,omitempty"`
	Metrics       int     `json:"metrics"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// handleHealthz serves 200 "ok" normally and 503 "degraded" with the last
// durability error while ingest is being shed — queries still work, but
// orchestrators should route new write traffic elsewhere.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:        "ok",
		Metrics:       s.reg.Len(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	code := http.StatusOK
	if degraded, _, _, lastErr := s.health.state(s.opt.FailureThreshold); degraded {
		resp.Status = "degraded"
		resp.Reason = lastErr
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, resp)
}
