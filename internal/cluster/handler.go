package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"mrl/internal/serve"
	"mrl/quantile"
)

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

// Handler returns the coordinator's route table. It mirrors a node's
// ingest/query surface — a client pointed at a coordinator instead of a
// node keeps working — with the cluster certificate fields added to
// quantile answers and /clusterz for topology.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", forward(c.ForwardIngestJSON))
	mux.HandleFunc("POST /ingest/bin", forward(c.ForwardBin))
	mux.HandleFunc("GET /quantile", c.handleQuantile)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /clusterz", c.handleClusterz)
	return mux
}

// forward serves an ingest route: it reads the body under a node's default
// size cap and answers with what fn made of it.
func forward(fn func(context.Context, []byte) (serve.IngestResponse, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := serve.ReadIngestBody(w, r, serve.DefaultMaxIngestBytes, nil)
		if !ok {
			return
		}
		res, err := fn(r.Context(), body)
		if err != nil {
			serve.WriteError(w, statusFor(err), err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, res)
	}
}

func (c *Coordinator) handleQuantile(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	phis, err := serve.ParsePhis(q.Get("phi"))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if raw := q.Get("window"); raw != "" {
		windowed, err := strconv.ParseBool(raw)
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad window parameter %q", raw))
			return
		}
		if windowed {
			serve.WriteError(w, http.StatusBadRequest, ErrWindowUnsupported)
			return
		}
	}
	metric := q.Get("metric")
	res, err := c.Query(r.Context(), metric, phis)
	if err != nil {
		serve.WriteError(w, statusFor(err), err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, quantileResponse{
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
	serve.WriteJSON(w, http.StatusOK, struct {
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
	serve.WriteJSON(w, http.StatusOK, out)
}
