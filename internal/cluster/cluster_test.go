package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"mrl/internal/serve"
)

// memTransport serves coordinator node requests from in-process handlers,
// keyed by URL host — the deterministic network every cluster test runs
// on. Marking a host down simulates an unreachable node.
type memTransport struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	down     map[string]bool
}

func newMemTransport() *memTransport {
	return &memTransport{handlers: make(map[string]http.Handler), down: make(map[string]bool)}
}

func (m *memTransport) setDown(host string, down bool) {
	m.mu.Lock()
	m.down[host] = down
	m.mu.Unlock()
}

func (m *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	m.mu.Lock()
	h := m.handlers[req.URL.Host]
	down := m.down[req.URL.Host]
	m.mu.Unlock()
	if down || h == nil {
		return nil, fmt.Errorf("memtransport: %s unreachable", req.URL.Host)
	}
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		_ = req.Body.Close()
	}
	inner := httptest.NewRequest(req.Method, req.URL.String(), bytes.NewReader(body))
	inner.Header = req.Header.Clone()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, inner)
	return rec.Result(), nil
}

// memNode is one in-process cluster member.
type memNode struct {
	host string
	reg  *serve.Registry
	srv  *serve.Server
}

// newMemCluster builds n in-process nodes provisioned per cfg plus a
// coordinator reaching them over a memTransport.
func newMemCluster(t *testing.T, n int, cfg serve.Config, epsilon float64) ([]*memNode, *Coordinator, *memTransport) {
	t.Helper()
	tr := newMemTransport()
	nodes := make([]*memNode, n)
	urls := make([]string, n)
	for i := range nodes {
		reg, err := serve.NewRegistry(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(reg, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Errorf("node shutdown: %v", err)
			}
		})
		host := fmt.Sprintf("node-%d.test", i)
		tr.handlers[host] = srv.Handler()
		nodes[i] = &memNode{host: host, reg: reg, srv: srv}
		urls[i] = "http://" + host
	}
	coord, err := New(Config{Nodes: urls, Epsilon: epsilon, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	return nodes, coord, tr
}

// clusterPerm returns a deterministic shuffled permutation of 1..n, so the
// exact rank of value v is v.
func clusterPerm(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	rng.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// rankErr is the rank distance of estimate v from the target rank
// ceil(phi*n) over the sorted exact population: 0 when some occurrence of
// v's value interval covers the target.
func rankErr(sorted []float64, phi, v float64) float64 {
	n := len(sorted)
	target := math.Ceil(phi * float64(n))
	if target < 1 {
		target = 1
	}
	lo := float64(sort.SearchFloat64s(sorted, v) + 1)
	hi := float64(sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1))))
	switch {
	case target < lo:
		return lo - target
	case target > hi:
		return target - hi
	default:
		return 0
	}
}

func TestOwnerRendezvous(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	counts := make([]int, len(nodes))
	owners := make(map[string]int)
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("metric-%d", i)
		o := Owner(nodes, key)
		if o != Owner(nodes, key) {
			t.Fatal("Owner is not deterministic")
		}
		owners[key] = o
		counts[o]++
	}
	for i, c := range counts {
		if c < 100 {
			t.Fatalf("node %d owns %d of 600 keys — rendezvous spread is badly skewed: %v", i, c, counts)
		}
	}
	// Minimal disruption: dropping node c must not remap any key owned by
	// a or b.
	shrunk := nodes[:2]
	for key, o := range owners {
		if o == 2 {
			continue
		}
		if got := Owner(shrunk, key); got != o {
			t.Fatalf("key %q moved from node %d to %d when an unrelated node left", key, o, got)
		}
	}
	if Owner(nil, "x") != -1 {
		t.Fatal("Owner on no nodes should be -1")
	}
}

func TestNodeProvision(t *testing.T) {
	eps, n, h := NodeProvision(0.01, 9000, 3)
	if eps != 0.005 || n != 3000 || h != 2 {
		t.Fatalf("NodeProvision(0.01, 9000, 3) = (%v, %d, %d), want (0.005, 3000, 2)", eps, n, h)
	}
	eps, n, h = NodeProvision(0.01, 9000, 1)
	if eps != 0.01 || n != 9000 || h != 1 {
		t.Fatalf("NodeProvision(0.01, 9000, 1) = (%v, %d, %d), want (0.01, 9000, 1)", eps, n, h)
	}
	if _, n, _ := NodeProvision(0.01, 10, 3); n != 4 {
		t.Fatalf("capacity split should round up, got %d", n)
	}
}

// TestClusterMatchesSingleNode is the differential lockstep: one stream
// ingested through a 3-node cluster (spread across nodes, as the cluster
// load topology does) and through a single node must answer within each
// other's served bounds, for every backend.
func TestClusterMatchesSingleNode(t *testing.T) {
	const (
		total   = 9000
		nNodes  = 3
		epsilon = 0.01
	)
	phis := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	data := clusterPerm(total, 99)
	sorted := make([]float64, total)
	copy(sorted, data)
	sort.Float64s(sorted)

	for _, backend := range []string{"mrl", "kll", "weighted"} {
		t.Run(backend, func(t *testing.T) {
			epsNode, nNode, _ := NodeProvision(epsilon, total, nNodes)
			nodes, coord, _ := newMemCluster(t, nNodes, serve.Config{
				Epsilon: epsNode, N: nNode, Backend: backend,
			}, epsilon)
			per := total / nNodes
			for i, node := range nodes {
				if err := node.reg.Ingest("lat", data[i*per:(i+1)*per]); err != nil {
					t.Fatal(err)
				}
			}

			singleReg, err := serve.NewRegistry(serve.Config{Epsilon: epsilon, N: total, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			singleSrv, err := serve.New(singleReg, serve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if err := singleSrv.Shutdown(context.Background()); err != nil {
					t.Errorf("single shutdown: %v", err)
				}
			})
			if err := singleReg.Ingest("lat", data); err != nil {
				t.Fatal(err)
			}

			cres, err := coord.Query(context.Background(), "lat", phis)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := singleReg.Quantiles("lat", phis, false)
			if err != nil {
				t.Fatal(err)
			}
			if cres.Count != sres.Count || cres.Count != total {
				t.Fatalf("counts diverge: cluster %d, single %d, want %d", cres.Count, sres.Count, total)
			}
			if cres.Partial || cres.Nodes != nNodes || cres.Height != 2 {
				t.Fatalf("cluster certificate = {partial %v, nodes %d, height %d}", cres.Partial, cres.Nodes, cres.Height)
			}
			if cres.ErrorBound <= 0 || sres.ErrorBound <= 0 {
				t.Fatalf("bounds must be positive: cluster %v, single %v", cres.ErrorBound, sres.ErrorBound)
			}
			for i, phi := range phis {
				if e := rankErr(sorted, phi, cres.Values[i]); e > cres.ErrorBound {
					t.Errorf("phi %v: cluster rank error %v exceeds served bound %v", phi, e, cres.ErrorBound)
				}
				if e := rankErr(sorted, phi, sres.Values[i]); e > sres.ErrorBound {
					t.Errorf("phi %v: single rank error %v exceeds served bound %v", phi, e, sres.ErrorBound)
				}
				// Within each other's bounds: both estimate the same target
				// rank, so their rank positions may differ by at most the sum
				// of the two certificates.
				ci := float64(sort.SearchFloat64s(sorted, cres.Values[i]))
				si := float64(sort.SearchFloat64s(sorted, sres.Values[i]))
				if d := math.Abs(ci - si); d > cres.ErrorBound+sres.ErrorBound {
					t.Errorf("phi %v: cluster and single answers are %v ranks apart, beyond %v+%v",
						phi, d, cres.ErrorBound, sres.ErrorBound)
				}
			}
		})
	}
}

// TestClusterIngestRouting drives the coordinator's JSON front end with
// interleaved metrics and checks every metric lands wholly on its owning
// node and queries answer through the same front end.
func TestClusterIngestRouting(t *testing.T) {
	nodes, coord, _ := newMemCluster(t, 3, serve.Config{Epsilon: 0.01, N: 100_000}, 0.01)
	front := coord.Handler()

	metrics := []string{"api.latency", "db.latency", "queue.depth", "gc.pause"}
	var body bytes.Buffer
	for round := 0; round < 5; round++ {
		for _, m := range metrics {
			vs := make([]float64, 100)
			for i := range vs {
				vs[i] = float64(round*100 + i + 1)
			}
			if err := json.NewEncoder(&body).Encode(map[string]any{"metric": m, "values": vs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rr := httptest.NewRecorder()
	front.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body.Bytes())))
	if rr.Code != http.StatusOK {
		t.Fatalf("POST /ingest = %d: %s", rr.Code, rr.Body.String())
	}
	var rep struct {
		Accepted int64 `json:"accepted"`
		Batches  int   `json:"batches"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if want := int64(len(metrics) * 5 * 100); rep.Accepted != want {
		t.Fatalf("accepted %d values, want %d", rep.Accepted, want)
	}

	for _, m := range metrics {
		owner := Owner(coord.Nodes(), m)
		for i, node := range nodes {
			res, err := node.reg.Quantiles(m, []float64{0.5}, false)
			if i == owner {
				if err != nil {
					t.Fatalf("owner of %q cannot answer: %v", m, err)
				}
				if res.Count != 500 {
					t.Fatalf("owner of %q holds %d values, want 500", m, res.Count)
				}
			} else if err == nil {
				t.Fatalf("non-owner node %d also holds metric %q", i, m)
			}
		}
		rr := httptest.NewRecorder()
		front.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/quantile?metric="+m+"&phi=0.5,0.99", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /quantile for %q = %d: %s", m, rr.Code, rr.Body.String())
		}
		var qrep struct {
			Count      int64   `json:"count"`
			ErrorBound float64 `json:"errorBound"`
			Nodes      int     `json:"nodes"`
			Height     int     `json:"height"`
			Partial    bool    `json:"partial"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &qrep); err != nil {
			t.Fatal(err)
		}
		if qrep.Count != 500 || qrep.Partial || qrep.Nodes != 3 || qrep.Height != 2 || qrep.ErrorBound <= 0 {
			t.Fatalf("front-end answer for %q = %+v", m, qrep)
		}
	}

	// Unknown metric through the front end: a clean 404, not a node blame.
	rr = httptest.NewRecorder()
	front.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/quantile?metric=nosuch&phi=0.5", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("GET /quantile for unknown metric = %d, want 404", rr.Code)
	}
}

// TestCoordinatorRefusesWhatANodeRefuses: a client pointed at the
// coordinator gets a node's 400 for an ingest body that carries nothing and
// for an unparsable window flag, and a 400 naming ErrWindowUnsupported for
// a windowed query, which the all-time node snapshots cannot answer.
func TestCoordinatorRefusesWhatANodeRefuses(t *testing.T) {
	nodes, coord, _ := newMemCluster(t, 2, serve.Config{Epsilon: 0.01, N: 100_000}, 0.01)
	sides := []struct {
		name string
		h    http.Handler
	}{{"node", nodes[0].srv.Handler()}, {"coordinator", coord.Handler()}}
	do := func(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rr
	}
	for _, side := range sides {
		if rr := do(side.h, http.MethodPost, "/ingest", `{"metric":"lat","values":[1,2,3]}`); rr.Code != http.StatusOK {
			t.Fatalf("%s: seeding ingest = %d: %s", side.name, rr.Code, rr.Body.String())
		}
	}

	noBatches := string(serve.AppendDictFrame(serve.AppendBinPrologueV2(nil), 1, "lat", ""))
	for _, tc := range []struct{ name, method, target, body string }{
		{"empty JSON body", http.MethodPost, "/ingest", ""},
		{"blank JSON body", http.MethodPost, "/ingest", " \n "},
		{"MRLB body without batch frames", http.MethodPost, "/ingest/bin", noBatches},
		{"unparsable window", http.MethodGet, "/quantile?metric=lat&phi=0.5&window=maybe", ""},
	} {
		for _, side := range sides {
			if rr := do(side.h, tc.method, tc.target, tc.body); rr.Code != http.StatusBadRequest {
				t.Errorf("%s through the %s = %d (%s), want 400", tc.name, side.name, rr.Code, strings.TrimSpace(rr.Body.String()))
			}
		}
	}

	front := sides[1].h
	rr := do(front, http.MethodGet, "/quantile?metric=lat&phi=0.5&window=true", "")
	var rep struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rr.Code != http.StatusBadRequest || rep.Error != ErrWindowUnsupported.Error() {
		t.Fatalf("windowed query through the coordinator = %d %q, want 400 %q", rr.Code, rep.Error, ErrWindowUnsupported)
	}
	if rr := do(front, http.MethodGet, "/quantile?metric=lat&phi=0.5&window=false", ""); rr.Code != http.StatusOK {
		t.Fatalf("window=false through the coordinator = %d: %s", rr.Code, rr.Body.String())
	}
}

// TestForwardBinExactlyOnce replays a sessioned MRLB body through the
// coordinator twice — the client retry after a lost reply — and checks the
// per-node sequence dedup keeps every batch single-counted even though the
// session's sequence numbers arrive at each node with gaps.
func TestForwardBinExactlyOnce(t *testing.T) {
	_, coord, _ := newMemCluster(t, 3, serve.Config{Epsilon: 0.01, N: 100_000}, 0.01)

	metrics := []string{"m.alpha", "m.beta", "m.gamma", "m.delta"}
	body := serve.AppendBinPrologueV2(nil)
	body = serve.AppendSessionFrame(body, 77)
	for i, m := range metrics {
		body = serve.AppendDictFrame(body, uint32(i+1), m, "")
	}
	perMetric := make(map[string]int)
	seq := uint64(0)
	for round := 0; round < 4; round++ {
		for i, m := range metrics {
			seq++
			vs := []float64{float64(round*10 + 1), float64(round*10 + 2), float64(round*10 + 3)}
			body = serve.AppendBatchSeqFrame(body, uint32(i+1), seq, vs, nil)
			perMetric[m] += len(vs)
		}
	}

	for attempt := 0; attempt < 2; attempt++ {
		res, err := coord.ForwardBin(context.Background(), body)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if attempt == 0 && res.Accepted != int64(4*len(metrics)*3) {
			t.Fatalf("first forward accepted %d values, want %d", res.Accepted, 4*len(metrics)*3)
		}
	}
	for _, m := range metrics {
		res, err := coord.Query(context.Background(), m, []float64{0.5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != int64(perMetric[m]) {
			t.Fatalf("metric %q counts %d after a retried body, want %d (exactly-once broken)", m, res.Count, perMetric[m])
		}
	}
}

// TestForwardBinSendsEachNodeItsShare: a forwarded MRLB body leaves every
// node exactly as posting that node's share of the body directly would —
// the same summaries, backends, session marks and counters — where a
// node's share is the body in its own frame order with only that node's
// dict and batch frames kept. The bodies re-intern one id to metrics on
// different owners, and declare their session after unsequenced batches.
func TestForwardBinSendsEachNodeItsShare(t *testing.T) {
	cfg := serve.Config{Epsilon: 0.01, N: 100_000}
	_, probe, _ := newMemCluster(t, 3, cfg, 0.01)
	nodes := probe.Nodes()
	a := "share.a"
	b := ""
	for i := 0; b == ""; i++ {
		if name := fmt.Sprintf("share.b%d", i); Owner(nodes, name) != Owner(nodes, a) {
			b = name
		}
	}
	// A frame tagged "" (the session) belongs to every share.
	type frame struct {
		metric string
		bytes  []byte
	}
	batch := func(id uint32, seq uint64, vs ...float64) []byte {
		if seq == 0 {
			return serve.AppendBatchFrame(nil, id, vs, nil)
		}
		return serve.AppendBatchSeqFrame(nil, id, seq, vs, nil)
	}
	bodies := map[string][]frame{
		"re-interned id": {
			{"", serve.AppendSessionFrame(nil, 9)},
			{a, serve.AppendDictFrame(nil, 1, a, "kll")},
			{a, batch(1, 1, 1, 2, 3)},
			{b, serve.AppendDictFrame(nil, 1, b, "")},
			{b, batch(1, 2, 4, 5)},
			{a, serve.AppendDictFrame(nil, 1, a, "kll")},
			{a, batch(1, 3, 6)},
			{a, batch(1, 0, 7, 8)},
		},
		"session after unsequenced batches": {
			{a, serve.AppendDictFrame(nil, 1, a, "")},
			{b, serve.AppendDictFrame(nil, 2, b, "")},
			{a, batch(1, 0, 1, 2)},
			{b, batch(2, 0, 3)},
			{"", serve.AppendSessionFrame(nil, 5)},
			{a, batch(1, 1, 4, 5)},
			{b, batch(2, 2, 6)},
		},
	}
	for name, frames := range bodies {
		forwarded, coord, _ := newMemCluster(t, 3, cfg, 0.01)
		direct, _, _ := newMemCluster(t, 3, cfg, 0.01)
		body := serve.AppendBinPrologueV2(nil)
		for _, f := range frames {
			body = append(body, f.bytes...)
		}
		if _, err := coord.ForwardBin(context.Background(), body); err != nil {
			t.Fatalf("%s: forward: %v", name, err)
		}
		for i, node := range direct {
			share := serve.AppendBinPrologueV2(nil)
			batches := 0
			for _, f := range frames {
				if f.metric == "" || Owner(nodes, f.metric) == i {
					share = append(share, f.bytes...)
					if f.metric != "" {
						batches++
					}
				}
			}
			if batches == 0 {
				continue
			}
			rr := httptest.NewRecorder()
			node.srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest/bin", bytes.NewReader(share)))
			if rr.Code != http.StatusOK {
				t.Fatalf("%s: posting node %d its share = %d: %s", name, i, rr.Code, rr.Body.String())
			}
		}
		for i := range forwarded {
			var got, want bytes.Buffer
			if err := forwarded[i].reg.WriteCheckpoint(&got, 0); err != nil {
				t.Fatal(err)
			}
			if err := direct[i].reg.WriteCheckpoint(&want, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: node %d checkpoint differs from posting its share directly", name, i)
			}
			if g, w := fmt.Sprint(forwarded[i].reg.Status()), fmt.Sprint(direct[i].reg.Status()); g != w {
				t.Errorf("%s: node %d status\n%s\nwant\n%s", name, i, g, w)
			}
		}
	}
}

// TestCoordinatorRefusedBodyReachesNoNode: a body the coordinator refuses
// for a fault in its last frame or object is refused whole, with a 400,
// before any node sees its earlier, well-formed part.
func TestCoordinatorRefusedBodyReachesNoNode(t *testing.T) {
	nodes, coord, _ := newMemCluster(t, 3, serve.Config{Epsilon: 0.01, N: 100_000}, 0.01)
	metrics := []string{"r.alpha", "r.beta", "r.gamma", "r.delta", "r.epsilon"}
	bin := serve.AppendBinPrologueV2(nil)
	var objs []byte
	for i, m := range metrics {
		bin = serve.AppendDictFrame(bin, uint32(i+1), m, "")
		bin = serve.AppendBatchFrame(bin, uint32(i+1), []float64{1, 2, 3}, nil)
		objs = fmt.Appendf(objs, "{\"metric\":%q,\"values\":[1,2,3]}\n", m)
	}
	badCRC := append([]byte(nil), bin...)
	badCRC[len(badCRC)-1] ^= 1 // the last value of the last batch
	for _, tc := range []struct {
		name, path string
		body       []byte
	}{
		{"MRLB body with a bad CRC in its last frame", "/ingest/bin", badCRC},
		{"MRLB body sequencing its last batch before any session", "/ingest/bin", serve.AppendBatchSeqFrame(append([]byte(nil), bin...), 1, 1, []float64{4}, nil)},
		{"MRLB body ending in an ack frame", "/ingest/bin", serve.AppendAckFrame(append([]byte(nil), bin...), 0, 1, "")},
		{"JSON body with a torn last object", "/ingest", append(append([]byte(nil), objs...), `{"metric":"r.alpha","values":[4`...)},
		{"JSON body whose last object names no metric", "/ingest", append(append([]byte(nil), objs...), `{"values":[4]}`...)},
	} {
		rr := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body)))
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, rr.Code, strings.TrimSpace(rr.Body.String()))
		}
		for i, node := range nodes {
			if n := node.reg.Len(); n != 0 {
				t.Fatalf("%s: node %d holds %d metrics; a refused body must reach no node", tc.name, i, n)
			}
		}
	}
}

// TestQueryPartialDegradation kills one node and checks the degradation
// contract: the answer stays certified for the covered population, flags
// Partial with the missing node, and recovers to a full answer when the
// node returns.
func TestQueryPartialDegradation(t *testing.T) {
	const total, nNodes = 6000, 3
	data := clusterPerm(total, 5)
	epsNode, nNode, _ := NodeProvision(0.01, total, nNodes)
	nodes, coord, tr := newMemCluster(t, nNodes, serve.Config{Epsilon: epsNode, N: nNode}, 0.01)
	per := total / nNodes
	for i, node := range nodes {
		if err := node.reg.Ingest("lat", data[i*per:(i+1)*per]); err != nil {
			t.Fatal(err)
		}
	}
	phis := []float64{0.1, 0.5, 0.9}

	full, err := coord.Query(context.Background(), "lat", phis)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || full.Count != total || len(full.Missing) != 0 {
		t.Fatalf("healthy query = {partial %v, count %d, missing %v}", full.Partial, full.Count, full.Missing)
	}

	down := 1
	tr.setDown(nodes[down].host, true)
	part, err := coord.Query(context.Background(), "lat", phis)
	if err != nil {
		t.Fatalf("a dead shard must degrade, not error: %v", err)
	}
	if !part.Partial || part.Nodes != nNodes-1 {
		t.Fatalf("degraded certificate = {partial %v, nodes %d}", part.Partial, part.Nodes)
	}
	if len(part.Missing) != 1 || !strings.Contains(part.Missing[0], nodes[down].host) {
		t.Fatalf("missing = %v, want the dead node", part.Missing)
	}
	if part.Count != total-int64(per) {
		t.Fatalf("partial count %d is stale or wrong, want %d", part.Count, total-int64(per))
	}
	// The bound certifies the covered population: exact oracle minus the
	// dead node's slice.
	covered := append(append([]float64(nil), data[:down*per]...), data[(down+1)*per:]...)
	sort.Float64s(covered)
	for i, phi := range phis {
		if e := rankErr(covered, phi, part.Values[i]); e > part.ErrorBound {
			t.Errorf("phi %v: partial rank error %v exceeds served bound %v", phi, e, part.ErrorBound)
		}
	}

	tr.setDown(nodes[down].host, false)
	again, err := coord.Query(context.Background(), "lat", phis)
	if err != nil {
		t.Fatal(err)
	}
	if again.Partial || again.Count != total {
		t.Fatalf("recovered query = {partial %v, count %d}", again.Partial, again.Count)
	}

	// All nodes down: nothing to certify — an error, never a stale answer.
	for _, n := range nodes {
		tr.setDown(n.host, true)
	}
	if _, err := coord.Query(context.Background(), "lat", phis); err == nil {
		t.Fatal("query with every node down must fail")
	}
}

// TestClusterReaddressedNodesKeepAnswersWhole pins what re-addressing a
// node list does: ownership hashes node URLs, so a metric can move to a new
// owner while its earlier data stays on the former one. The answer stays
// whole only because every query pulls every node.
func TestClusterReaddressedNodesKeepAnswersWhole(t *testing.T) {
	nodes, coord, tr := newMemCluster(t, 3, serve.Config{Epsilon: 0.01, N: 100_000}, 0.01)
	metrics := make([]string, 12)
	for i := range metrics {
		metrics[i] = fmt.Sprintf("m.%02d", i)
	}
	const per = 100
	ingest := func(c *Coordinator, base float64) {
		t.Helper()
		for _, m := range metrics {
			vs := make([]float64, per)
			for i := range vs {
				vs[i] = base + float64(i)
			}
			body, err := json.Marshal(map[string]any{"metric": m, "values": vs})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.ForwardIngestJSON(context.Background(), body); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(coord, 0)

	// The same registries behind new addresses, as a restart on fresh ports
	// gives them.
	moved := make([]string, len(nodes))
	tr.mu.Lock()
	for i, n := range nodes {
		host := fmt.Sprintf("node-%d.moved.test", i)
		tr.handlers[host] = n.srv.Handler()
		moved[i] = "http://" + host
	}
	tr.mu.Unlock()
	coord2, err := New(Config{Nodes: moved, Epsilon: 0.01, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	ingest(coord2, per)

	split := 0
	for _, m := range metrics {
		before, after := Owner(coord.Nodes(), m), Owner(coord2.Nodes(), m)
		if before != after {
			split++
			for _, i := range []int{before, after} {
				if res, err := nodes[i].reg.Quantiles(m, []float64{0.5}, false); err != nil || res.Count != per {
					t.Fatalf("%q: node %d holds %+v (%v), want one part of %d", m, i, res, err, per)
				}
			}
		}
		res, err := coord2.Query(context.Background(), m, []float64{0.5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 2*per || res.Partial {
			t.Fatalf("%q after re-addressing: count %d partial %v, want both parts (%d)", m, res.Count, res.Partial, 2*per)
		}
	}
	if split == 0 {
		t.Fatal("re-addressing moved no metric to a new owner; the test shows nothing")
	}
	t.Logf("%d of %d metrics changed owner when the nodes were re-addressed", split, len(metrics))
}
