package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"mrl/quantile"
)

// maxIngestBody bounds one forwarded ingest request, mirroring the node
// default (serve.Options.MaxIngestBytes).
const maxIngestBody = 32 << 20

type errorResponse struct {
	Error string `json:"error"`
}

type ingestResponse struct {
	Accepted int64 `json:"accepted"`
	Batches  int   `json:"batches"`
}

// quantileResponse is the node answer shape plus the cluster certificate
// fields: how many nodes contributed, the distribution-graph height the
// bound was accounted at, and — for degraded answers — the partial flag
// and the missing nodes.
type quantileResponse struct {
	Metric     string    `json:"metric"`
	Phis       []float64 `json:"phis"`
	Values     []float64 `json:"values"`
	Count      int64     `json:"count"`
	ErrorBound float64   `json:"errorBound"`
	Epsilon    float64   `json:"epsilon"`
	Nodes      int       `json:"nodes"`
	Height     int       `json:"height"`
	Partial    bool      `json:"partial"`
	Missing    []string  `json:"missingNodes,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// statusFor maps coordinator failures onto HTTP status codes. A node's
// own HTTP answer (4xx/5xx) passes through verbatim so a client fault
// stays a client fault across the hop.
func statusFor(err error) int {
	var ne *nodeError
	switch {
	case errors.As(err, &ne):
		return ne.status
	case errors.Is(err, quantile.ErrEmpty):
		return http.StatusNotFound
	case errors.Is(err, ErrAllNodesDown), errors.Is(err, ErrNodeFailed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// parsePhis parses a comma-separated phi list, e.g. "0.5,0.99,0.999".
func parsePhis(raw string) ([]float64, error) {
	if raw == "" {
		return nil, errors.New("cluster: missing phi parameter")
	}
	parts := strings.Split(raw, ",")
	phis := make([]float64, 0, len(parts))
	for _, p := range parts {
		phi, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad phi %q: %w", p, err)
		}
		if math.IsNaN(phi) || phi < 0 || phi > 1 {
			return nil, fmt.Errorf("cluster: phi %v outside [0,1]", phi)
		}
		phis = append(phis, phi)
	}
	return phis, nil
}

// Handler returns the coordinator's route table. It mirrors a node's
// ingest/query surface — a client pointed at a coordinator instead of a
// node keeps working — with the cluster certificate fields added to
// quantile answers and /clusterz for topology.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", c.handleIngest)
	mux.HandleFunc("POST /ingest/bin", c.handleIngestBin)
	mux.HandleFunc("GET /quantile", c.handleQuantile)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /clusterz", c.handleClusterz)
	return mux
}

func (c *Coordinator) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad ingest body: %w", err))
		}
		return nil, false
	}
	return body, true
}

func (c *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, ok := c.readBody(w, r)
	if !ok {
		return
	}
	res, err := c.ForwardIngestJSON(r.Context(), body)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Accepted: res.Accepted, Batches: res.Batches})
}

func (c *Coordinator) handleIngestBin(w http.ResponseWriter, r *http.Request) {
	body, ok := c.readBody(w, r)
	if !ok {
		return
	}
	res, err := c.ForwardBin(r.Context(), body)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Accepted: res.Accepted, Batches: res.Batches})
}

func (c *Coordinator) handleQuantile(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	phis, err := parsePhis(q.Get("phi"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if raw := q.Get("window"); raw != "" {
		windowed, err := strconv.ParseBool(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad window parameter %q", raw))
			return
		}
		if windowed {
			writeError(w, http.StatusBadRequest, ErrWindowUnsupported)
			return
		}
	}
	metric := q.Get("metric")
	res, err := c.Query(r.Context(), metric, phis)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, quantileResponse{
		Metric:     metric,
		Phis:       phis,
		Values:     res.Values,
		Count:      res.Count,
		ErrorBound: res.ErrorBound,
		Epsilon:    res.Epsilon,
		Nodes:      res.Nodes,
		Height:     res.Height,
		Partial:    res.Partial,
		Missing:    res.Missing,
	})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Nodes  int    `json:"nodes"`
	}{Status: "ok", Nodes: len(c.nodes)})
}

type clusterzNode struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

type clusterzResponse struct {
	Nodes   []clusterzNode `json:"nodes"`
	Height  int            `json:"height"`
	Epsilon float64        `json:"epsilon"`
}

// handleClusterz probes every node's /healthz and reports the topology:
// member URLs with liveness, the distribution-graph height, and the
// advertised cluster-level epsilon.
func (c *Coordinator) handleClusterz(w http.ResponseWriter, r *http.Request) {
	out := clusterzResponse{Height: c.Height(), Epsilon: c.eps}
	for _, node := range c.nodes {
		healthy := false
		if req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, node+"/healthz", nil); err == nil {
			if resp, err := c.client.Do(req); err == nil {
				healthy = resp.StatusCode == http.StatusOK
				_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
				_ = resp.Body.Close()
			}
		}
		out.Nodes = append(out.Nodes, clusterzNode{URL: node, Healthy: healthy})
	}
	writeJSON(w, http.StatusOK, out)
}
