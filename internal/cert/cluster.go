package cert

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"mrl/internal/cluster"
	"mrl/quantile"
)

// handlerTransport resolves coordinator node requests to in-process serve
// handlers by URL host, keeping cluster scenarios deterministic and
// listener-free the same way do keeps serve scenarios so.
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
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, inner)
	res := rec.Result()
	res.Request = req
	return res, nil
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
func runCluster(sc Scenario, backend quantile.Backend, data, phis []float64) (runResult, error) {
	via := sc.ClusterVia
	if via == "" {
		via = "api"
	}
	if via != "api" && via != "http" {
		return runResult{}, fmt.Errorf("cert: unknown cluster query face %q (want api or http)", via)
	}
	nodes := min(sc.nodesOrDefault(), len(data))

	// Each node sees exactly its contiguous split of the stream, the
	// topology the eps/h capacity provisioning speaks about.
	epsNode, nNode, _ := cluster.NodeProvision(sc.Epsilon, int64(len(data)), nodes)
	tr := handlerTransport{handlers: make(map[string]http.Handler, nodes)}
	urls := make([]string, nodes)
	for i, slice := range split(data, nodes) {
		h, err := newNode(epsNode, nNode, sc.Backend)
		if err != nil {
			return runResult{}, err
		}
		if err := postIngest(h, slice, nil); err != nil {
			return runResult{}, err
		}
		host := fmt.Sprintf("cert-node-%d", i)
		tr.handlers[host] = h
		urls[i] = "http://" + host
	}
	coord, err := cluster.New(cluster.Config{
		Nodes: urls, Epsilon: sc.Epsilon, Client: &http.Client{Transport: tr},
	})
	if err != nil {
		return runResult{}, err
	}

	var resp quantileResponse
	if via == "api" {
		res, err := coord.Query(context.Background(), certMetric, phis)
		if err != nil {
			return runResult{}, err
		}
		resp = quantileResponse{Values: res.Values, Count: res.Count, ErrorBound: res.ErrorBound,
			Nodes: res.Nodes, Height: res.Height, Partial: res.Partial, Missing: res.Missing}
	} else if resp, err = getQuantiles(coord.Handler(), phis); err != nil {
		return runResult{}, err
	}
	if resp.Partial {
		return runResult{}, fmt.Errorf("cert: degraded answer from a healthy cluster (missing %v)", resp.Missing)
	}
	if resp.Nodes != nodes || resp.Height != cluster.Height(nodes) {
		return runResult{}, fmt.Errorf("cert: cluster certificate names %d nodes at height %d, want %d at %d",
			resp.Nodes, resp.Height, nodes, cluster.Height(nodes))
	}
	epsLimit := -1.0 // non-MRL nodes claim only their runtime bound
	if backend == quantile.BackendMRL {
		epsLimit = sc.Epsilon * float64(len(data))
	}
	return runResult{values: resp.Values, count: resp.Count, bound: resp.ErrorBound, epsLimit: epsLimit}, nil
}
