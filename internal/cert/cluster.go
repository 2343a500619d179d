package cert

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"mrl/internal/cluster"
	"mrl/internal/serve"
	"mrl/quantile"
)

// handlerTransport resolves coordinator node requests to in-process serve
// handlers by URL host, keeping cluster scenarios deterministic and
// listener-free the same way memoryResponse keeps serve scenarios so.
type handlerTransport struct {
	handlers map[string]http.Handler
}

func (tr handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := tr.handlers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("cert: no cluster node at %q", req.URL.Host)
	}
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		_ = req.Body.Close()
	}
	inner, err := http.NewRequest(req.Method, req.URL.String(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	inner.Header = req.Header.Clone()
	rec := newMemoryResponse()
	h.ServeHTTP(rec, inner)
	return &http.Response{
		StatusCode: rec.code,
		Header:     rec.hdr,
		Body:       io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		Request:    req,
	}, nil
}

// clusterQuantileResponse mirrors the coordinator's GET /quantile body.
type clusterQuantileResponse struct {
	Values     []float64 `json:"values"`
	Count      int64     `json:"count"`
	ErrorBound float64   `json:"errorBound"`
	Nodes      int       `json:"nodes"`
	Height     int       `json:"height"`
	Partial    bool      `json:"partial"`
}

// runCluster drives the sharded-cluster stack end to end: Nodes storage
// nodes each provisioned at the epsilon/h distribution-graph split over a
// ceil(N/Nodes) capacity, fed one contiguous slice of the stream through
// their real HTTP ingest handlers, then queried through the
// internal/cluster coordinator, whose scatter/gather merge pulls per-node
// estimator snapshots and combines them through the §4.9 OUTPUT phase. The
// a-priori claim survives the split for the MRL backend: each node's bound
// is at most (eps/2)(n_i + P_i) and the combine adds under half a rank per
// extra snapshot, which pools below eps*N for every sweep geometry.
func runCluster(sc Scenario, data, phis []float64) (runResult, error) {
	if sc.Policy != "new" {
		return runResult{}, fmt.Errorf("cert: cluster nodes provision PolicyNew only, got %q", sc.Policy)
	}
	if sc.B > 0 || sc.K > 0 {
		return runResult{}, fmt.Errorf("cert: cluster nodes size their own geometry; explicit b/k unsupported")
	}
	backend, err := quantile.ParseBackend(sc.Backend)
	if err != nil {
		return runResult{}, err
	}
	via := sc.ClusterVia
	if via == "" {
		via = "api"
	}
	if via != "api" && via != "http" {
		return runResult{}, fmt.Errorf("cert: unknown cluster query face %q (want api or http)", via)
	}
	nodes := sc.nodesOrDefault()
	if nodes > len(data) {
		nodes = len(data)
	}

	epsNode, nNode, _ := cluster.NodeProvision(sc.Epsilon, int64(len(data)), nodes)
	tr := handlerTransport{handlers: make(map[string]http.Handler, nodes)}
	urls := make([]string, nodes)
	handlers := make([]http.Handler, nodes)
	for i := range handlers {
		reg, err := serve.NewRegistry(serve.Config{
			Epsilon: epsNode, N: nNode, Backend: sc.Backend,
		})
		if err != nil {
			return runResult{}, err
		}
		srv, err := serve.New(reg, serve.Options{})
		if err != nil {
			return runResult{}, err
		}
		host := fmt.Sprintf("cert-node-%d", i)
		tr.handlers[host] = srv.Handler()
		handlers[i] = srv.Handler()
		urls[i] = "http://" + host
	}
	coord, err := cluster.New(cluster.Config{
		Nodes: urls, Epsilon: sc.Epsilon, Client: &http.Client{Transport: tr},
	})
	if err != nil {
		return runResult{}, err
	}

	// Contiguous per-node slices — each node sees exactly its split of the
	// stream, the topology the eps/h capacity provisioning speaks about.
	per := len(data) / nodes
	extra := len(data) % nodes
	pos := 0
	for i := range handlers {
		sz := per
		if i < extra {
			sz++
		}
		slice := data[pos : pos+sz]
		pos += sz
		const batch = 512
		for off := 0; off < len(slice); off += batch {
			end := off + batch
			if end > len(slice) {
				end = len(slice)
			}
			body, err := json.Marshal(serveIngestBatch{Metric: certMetric, Values: slice[off:end]})
			if err != nil {
				return runResult{}, err
			}
			if _, err := do(handlers[i], http.MethodPost, "/ingest", body); err != nil {
				return runResult{}, err
			}
		}
	}

	epsLimit := sc.Epsilon * float64(len(data))
	if backend != quantile.BackendMRL {
		epsLimit = -1 // non-MRL nodes claim only their runtime bound
	}

	if via == "api" {
		res, err := coord.Query(context.Background(), certMetric, phis)
		if err != nil {
			return runResult{}, err
		}
		if res.Partial {
			return runResult{}, fmt.Errorf("cert: degraded answer from a healthy cluster (missing %v)", res.Missing)
		}
		return runResult{values: res.Values, count: res.Count, bound: res.ErrorBound, epsLimit: epsLimit}, nil
	}

	parts := make([]string, len(phis))
	for i, phi := range phis {
		parts[i] = strconv.FormatFloat(phi, 'g', -1, 64)
	}
	target := "/quantile?metric=" + certMetric + "&phi=" + strings.Join(parts, ",")
	rec, err := do(coord.Handler(), http.MethodGet, target, nil)
	if err != nil {
		return runResult{}, err
	}
	var resp clusterQuantileResponse
	if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
		return runResult{}, fmt.Errorf("cert: decoding cluster quantile response: %w", err)
	}
	if len(resp.Values) != len(phis) {
		return runResult{}, fmt.Errorf("cert: cluster returned %d values for %d phis", len(resp.Values), len(phis))
	}
	if resp.Partial {
		return runResult{}, fmt.Errorf("cert: degraded answer from a healthy cluster")
	}
	if resp.Nodes != nodes || resp.Height != cluster.Height(nodes) {
		return runResult{}, fmt.Errorf("cert: cluster certificate names %d nodes at height %d, want %d at %d",
			resp.Nodes, resp.Height, nodes, cluster.Height(nodes))
	}
	return runResult{values: resp.Values, count: resp.Count, bound: resp.ErrorBound, epsLimit: epsLimit}, nil
}
