// Package cluster is the scatter/gather coordinator that turns N
// independent quantiled nodes into one sharded service. Metrics are
// assigned to nodes by rendezvous hashing (hash.go); ingest is routed to
// the owning node (an ingest body is split per owner by serve's splitters,
// which check it against a node's rules and send each owner the body's own
// bytes: binary MRLB parts keep the session frame and the batches' sequence
// numbers, so the exactly-once contract survives the hop, and nothing is
// decoded or re-encoded on the way); queries fan out to every
// node, pull per-shard estimator snapshots over the MRLS transfer format,
// and combine them through the paper's §4.9 OUTPUT phase.
//
// The error contract follows the distributed-summary discipline of
// splitting the tolerance per distribution-graph height: a cluster of
// height h (h = 2 when more than one node feeds a coordinator merge level,
// h = 1 for a single node) provisions every node at eps/h, so the combined
// answer still certifies the cluster-level eps — see NodeProvision and
// docs/CLUSTER.md. The served bound is never the a-priori promise, though:
// the coordinator re-derives the exact Lemma 5 accounting from the
// snapshots it actually merged, so the certificate tracks reality even
// when a node overfills or dies.
//
// Degradation contract: a dead node never turns a query into an error or
// a stale answer. The coordinator serves the merge of every snapshot it
// could pull, flags the answer Partial, lists the missing nodes, and the
// bound certifies exactly the data the answer covers — a narrower
// population, honestly bounded, never an uncertified value.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"mrl/internal/serve"
	"mrl/quantile"
)

// Typed failures the HTTP layer maps onto status codes.
var (
	// ErrNoNodes rejects a Config without at least one node.
	ErrNoNodes = errors.New("cluster: at least one node is required")
	// ErrAllNodesDown reports a query no node answered: with zero
	// snapshots there is no data to certify, so this one is an error, not
	// a partial answer.
	ErrAllNodesDown = errors.New("cluster: no node answered")
	// ErrNodeFailed reports an ingest the owning node refused or could not
	// be reached for; the client should retry the whole request (sequence
	// dedup on the nodes makes the retry exactly-once).
	ErrNodeFailed = errors.New("cluster: node request failed")
	// ErrWindowUnsupported refuses a windowed query: node snapshots carry
	// the all-time summary only, so the coordinator has no window to
	// answer from. Windowed answers come from the metric's owning node.
	ErrWindowUnsupported = errors.New("cluster: the coordinator does not serve windowed queries; ask the metric's owning node")
)

// maxSnapshotBody bounds one node's snapshot document.
const maxSnapshotBody = 1 << 30

// Config provisions a Coordinator.
type Config struct {
	// Nodes are the member base URLs, e.g. "http://10.0.0.1:8126". Order
	// is irrelevant to ownership (rendezvous hashing scores each node
	// independently) but must be consistent across coordinators.
	Nodes []string

	// Epsilon is the cluster-level rank-error tolerance the deployment
	// provisioned its nodes for (each node at Epsilon/Height — see
	// NodeProvision); it is reported on /clusterz. The served per-answer
	// certificate is always re-derived from the merged snapshots, so a
	// zero Epsilon only leaves the advertisement blank.
	Epsilon float64

	// Client issues the node requests; nil builds one with Timeout. Tests
	// inject in-process transports here.
	Client *http.Client

	// Timeout bounds each node request of the default client; 0 means 10s.
	Timeout time.Duration

	// Logf receives one line per node failure; nil is silent.
	Logf func(format string, args ...any)
}

// Coordinator fans ingest and queries across the cluster. It is stateless
// — every answer is assembled from node snapshots pulled at query time —
// and safe for concurrent use.
type Coordinator struct {
	nodes  []string
	eps    float64
	client *http.Client
	logf   func(format string, args ...any)
}

// New validates cfg and returns a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, ErrNoNodes
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	nodes := make([]string, len(cfg.Nodes))
	for i, raw := range cfg.Nodes {
		node := strings.TrimRight(strings.TrimSpace(raw), "/")
		u, err := url.Parse(node)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: node %q is not an absolute http(s) URL", raw)
		}
		if seen[node] {
			return nil, fmt.Errorf("cluster: duplicate node %q", node)
		}
		seen[node] = true
		nodes[i] = node
	}
	if cfg.Epsilon < 0 || cfg.Epsilon >= 1 {
		return nil, fmt.Errorf("cluster: epsilon %v outside [0, 1)", cfg.Epsilon)
	}
	client := cfg.Client
	if client == nil {
		timeout := cfg.Timeout
		if timeout == 0 {
			timeout = 10 * time.Second
		}
		client = &http.Client{Timeout: timeout}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Coordinator{nodes: nodes, eps: cfg.Epsilon, client: client, logf: logf}, nil
}

// Nodes returns the member base URLs.
func (c *Coordinator) Nodes() []string { return append([]string(nil), c.nodes...) }

// Epsilon returns the advertised cluster-level tolerance (0 if none).
func (c *Coordinator) Epsilon() float64 { return c.eps }

// Height is the cluster's distribution-graph height: the number of merge
// levels between a raw value and a served answer. One node is the
// single-process case (h = 1, the node's own §4.9 combine); more nodes add
// the coordinator's merge level (h = 2).
func (c *Coordinator) Height() int { return Height(len(c.nodes)) }

// Height is Coordinator.Height for a node count.
func Height(nodes int) int {
	if nodes > 1 {
		return 2
	}
	return 1
}

// NodeProvision splits a cluster-level accuracy contract (epsilon, n) into
// the per-node contract under the eps/h budget discipline: every node is
// provisioned at epsilon/height with an even share of the capacity, so the
// coordinator's merge level can spend the other half of the tolerance and
// the combined answer still certifies the cluster-level epsilon (the full
// accounting is in docs/CLUSTER.md). The per-node capacity is the even
// split rounded up — ownership is per metric, and a single metric's stream
// lands entirely on its owning node, so a deployment whose hottest metric
// may exceed n/nodes should size n for that metric, not the sum.
func NodeProvision(epsilon float64, n int64, nodes int) (epsNode float64, nNode int64, height int) {
	height = Height(nodes)
	epsNode = epsilon / float64(height)
	nNode = n
	if nodes > 1 {
		nNode = (n + int64(nodes) - 1) / int64(nodes)
	}
	return epsNode, nNode, height
}

// QueryResult is one certified cluster answer.
type QueryResult struct {
	// Values are the quantile estimates, parallel to the requested phis.
	Values []float64
	// Count is the number of elements the answer covers — under a partial
	// answer, the covered population only.
	Count int64
	// ErrorBound is the worst-case rank error of every value over the
	// covered population, re-derived at merge time from the snapshots
	// actually combined (§4.9 / Lemma 5 for MRL, the backend's
	// a-posteriori bound otherwise).
	ErrorBound float64
	// Epsilon is ErrorBound normalised by Count.
	Epsilon float64
	// Nodes is how many nodes contributed (answered the snapshot pull).
	Nodes int
	// Height is the distribution-graph height of this answer.
	Height int
	// Partial reports that at least one node could not be reached: the
	// answer is certified for the covered population but does not speak
	// for the missing nodes' data.
	Partial bool
	// Missing lists the unreachable nodes' base URLs, in cluster order.
	Missing []string
}

// Query fans out to every node, pulls the metric's snapshot parts, and
// merges them through the §4.9 OUTPUT phase. A node serving 404 for the
// metric is a valid "alive and empty" answer; an unreachable node makes
// the answer Partial (see the degradation contract in the package
// comment). When every node is unreachable there is nothing to certify
// and ErrAllNodesDown is returned; when all reachable nodes are empty the
// error is quantile.ErrEmpty, exactly like a single node's answer.
func (c *Coordinator) Query(ctx context.Context, metric string, phis []float64) (QueryResult, error) {
	for _, phi := range phis {
		if !(phi >= 0 && phi <= 1) { // catches NaN too
			return QueryResult{}, fmt.Errorf("cluster: phi %v outside [0,1]", phi)
		}
	}
	type pull struct {
		parts []quantile.EstimatorSnapshot
		err   error
	}
	pulls := make([]pull, len(c.nodes))
	var wg sync.WaitGroup
	for i, node := range c.nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			pulls[i].parts, pulls[i].err = c.pullSnapshot(ctx, node, metric)
		}(i, node)
	}
	wg.Wait()

	var snaps []quantile.EstimatorSnapshot
	var missing []string
	for i, p := range pulls {
		if p.err != nil {
			c.logf("cluster: snapshot pull from %s failed: %v", c.nodes[i], p.err)
			missing = append(missing, c.nodes[i])
			continue
		}
		snaps = append(snaps, p.parts...)
	}
	if len(missing) == len(c.nodes) {
		return QueryResult{}, fmt.Errorf("%w: %s", ErrAllNodesDown, strings.Join(missing, ", "))
	}
	values, bound, count, err := quantile.CombineEstimatorSnapshots(snaps, phis)
	if err != nil {
		return QueryResult{}, err
	}
	res := QueryResult{
		Values:     values,
		Count:      count,
		ErrorBound: bound,
		Nodes:      len(c.nodes) - len(missing),
		Height:     c.Height(),
		Partial:    len(missing) > 0,
		Missing:    missing,
	}
	if count > 0 {
		res.Epsilon = bound / float64(count)
	}
	return res, nil
}

// pullSnapshot fetches and decodes one node's snapshot document. A 404 is
// "alive and empty" (zero parts, no error); anything else but a 200 is a
// node failure.
func (c *Coordinator) pullSnapshot(ctx context.Context, node, metric string) ([]quantile.EstimatorSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/snapshot?metric="+url.QueryEscape(metric), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBody))
		if err != nil {
			return nil, err
		}
		return serve.DecodeSnapshot(body)
	case http.StatusNotFound:
		return nil, nil
	default:
		return nil, fmt.Errorf("%w: %s answered %s to the snapshot pull", ErrNodeFailed, node, resp.Status)
	}
}

// nodeError folds a node's HTTP error answer into one error carrying the
// node's status code, so the front end can propagate client faults (4xx)
// verbatim instead of blaming the cluster.
type nodeError struct {
	node   string
	status int
	msg    string
}

func (e *nodeError) Error() string {
	return fmt.Sprintf("cluster: %s answered %d: %s", e.node, e.status, e.msg)
}

func (e *nodeError) Unwrap() error { return ErrNodeFailed }

// postNode POSTs body to node+path and decodes the node's JSON ingest
// reply, folding failures into *nodeError.
func (c *Coordinator) postNode(ctx context.Context, node, path, contentType string, body []byte) (serve.IngestResponse, error) {
	var rep serve.IngestResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+path, bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.client.Do(req)
	if err != nil {
		return rep, fmt.Errorf("%w: %s unreachable: %v", ErrNodeFailed, node, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return rep, fmt.Errorf("%w: reading %s reply: %v", ErrNodeFailed, node, err)
	}
	if resp.StatusCode != http.StatusOK {
		return rep, &nodeError{node: node, status: resp.StatusCode, msg: strings.TrimSpace(string(raw))}
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("%w: bad reply from %s: %v", ErrNodeFailed, node, err)
	}
	return rep, nil
}
