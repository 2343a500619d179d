package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"mrl/internal/serve"
)

// IngestResult aggregates the owning nodes' ingest replies.
type IngestResult struct {
	Accepted int64
	Batches  int
}

// ForwardIngestJSON splits a POST /ingest body — one JSON object or any
// concatenation of them — by owning node and forwards each group in one
// request, preserving per-metric object order. Any node failure fails the
// whole request; JSON ingest is idempotence-free either way, so the retry
// story is unchanged from a single node's. A body with no objects is
// refused, as a node refuses it.
func (c *Coordinator) ForwardIngestJSON(ctx context.Context, body []byte) (IngestResult, error) {
	groups := make([][]byte, len(c.nodes))
	dec := json.NewDecoder(bytes.NewReader(body))
	objects := 0
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return IngestResult{}, fmt.Errorf("cluster: bad ingest body: %w", err)
		}
		var peek struct {
			Metric string `json:"metric"`
		}
		if err := json.Unmarshal(raw, &peek); err != nil {
			return IngestResult{}, fmt.Errorf("cluster: bad ingest body: %w", err)
		}
		owner := Owner(c.nodes, peek.Metric)
		groups[owner] = append(groups[owner], raw...)
		groups[owner] = append(groups[owner], '\n')
		objects++
	}
	if objects == 0 {
		return IngestResult{}, errors.New("cluster: empty ingest body")
	}
	var out IngestResult
	for i, group := range groups {
		if len(group) == 0 {
			continue
		}
		accepted, batches, err := c.postNode(ctx, c.nodes[i], "/ingest", "application/json", group)
		if err != nil {
			return out, err
		}
		out.Accepted += accepted
		out.Batches += batches
	}
	return out, nil
}

// ForwardBin decodes a complete MRLB ingest body, splits its batches by
// owning node, and re-encodes one body per node — same session id, same
// per-batch sequence numbers. The sequence numbers arrive at each node with
// gaps (a session's batches interleave across owners) but stay strictly
// increasing per node, which is all the high-water-mark dedup needs, so a
// retried body remains exactly-once on every node that already applied its
// share. Any node failure fails the whole request for exactly that reason:
// the client retries the full body and the nodes that already applied
// dedup their part. A body with no batch frames is refused, as a node
// refuses it.
func (c *Coordinator) ForwardBin(ctx context.Context, body []byte) (IngestResult, error) {
	st, err := serve.DecodeBinBody(body)
	if err != nil {
		return IngestResult{}, err
	}
	if len(st.Batches) == 0 {
		return IngestResult{}, errors.New("cluster: binary ingest body carries no batch frames")
	}
	type group struct {
		buf  []byte
		dict map[string]uint32
	}
	groups := make([]*group, len(c.nodes))
	for _, b := range st.Batches {
		owner := Owner(c.nodes, b.Metric)
		g := groups[owner]
		if g == nil {
			g = &group{dict: make(map[string]uint32), buf: serve.AppendBinPrologueV2(nil)}
			if st.Session != 0 {
				g.buf = serve.AppendSessionFrame(g.buf, st.Session)
			}
			groups[owner] = g
		}
		id, ok := g.dict[b.Metric]
		if !ok {
			id = uint32(len(g.dict) + 1)
			g.dict[b.Metric] = id
			g.buf = serve.AppendDictFrame(g.buf, id, b.Metric, b.Backend)
		}
		if b.Seq != 0 {
			g.buf = serve.AppendBatchSeqFrame(g.buf, id, b.Seq, b.Values, b.Weights)
		} else {
			g.buf = serve.AppendBatchFrame(g.buf, id, b.Values, b.Weights)
		}
	}
	var out IngestResult
	for i, g := range groups {
		if g == nil {
			continue
		}
		accepted, batches, err := c.postNode(ctx, c.nodes[i], "/ingest/bin", "application/octet-stream", g.buf)
		if err != nil {
			return out, err
		}
		out.Accepted += accepted
		out.Batches += batches
	}
	return out, nil
}
