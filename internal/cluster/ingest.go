package cluster

import (
	"context"

	"mrl/internal/serve"
)

// ForwardIngestJSON splits a POST /ingest body — one JSON object or any
// concatenation of them — by owning node (serve.SplitJSONBody) and posts
// each node its objects in one request, preserving per-metric object order.
// Any node failure fails the whole request; JSON ingest is idempotence-free
// either way, so the retry story is unchanged from a single node's. A body
// the splitter refuses, such as one with no objects, reaches no node.
func (c *Coordinator) ForwardIngestJSON(ctx context.Context, body []byte) (serve.IngestResponse, error) {
	parts, err := serve.SplitJSONBody(body, len(c.nodes), c.owner)
	if err != nil {
		return serve.IngestResponse{}, err
	}
	return c.postParts(ctx, "/ingest", "application/json", parts)
}

// ForwardBin splits a complete MRLB ingest body by owning node
// (serve.SplitBinBody) and posts each node its share of the body's own
// bytes — same session frame, same batch frames with their sequence
// numbers. The sequence numbers arrive at each node with gaps (a session's
// batches interleave across owners) but stay strictly increasing per node,
// which is all the high-water-mark dedup needs, so a retried body remains
// exactly-once on every node that already applied its share. Any node
// failure fails the whole request for exactly that reason: the client
// retries the full body and the nodes that already applied dedup their
// part. A body the splitter refuses, such as one with no batch frames,
// reaches no node.
func (c *Coordinator) ForwardBin(ctx context.Context, body []byte) (serve.IngestResponse, error) {
	parts, err := serve.SplitBinBody(body, len(c.nodes), c.owner)
	if err != nil {
		return serve.IngestResponse{}, err
	}
	return c.postParts(ctx, "/ingest/bin", "application/octet-stream", parts)
}

func (c *Coordinator) owner(metric string) int { return Owner(c.nodes, metric) }

// postParts posts part i to node i, skipping nil parts, and sums the nodes'
// replies. It stops at the first node failure.
func (c *Coordinator) postParts(ctx context.Context, path, contentType string, parts [][]byte) (serve.IngestResponse, error) {
	var out serve.IngestResponse
	for i, part := range parts {
		if part == nil {
			continue
		}
		rep, err := c.postNode(ctx, c.nodes[i], path, contentType, part)
		if err != nil {
			return out, err
		}
		out.Accepted += rep.Accepted
		out.Batches += rep.Batches
	}
	return out, nil
}
