package serve

import (
	"encoding/json"
	"fmt"
	"io"
)

// The forwarding splitters serve a cluster coordinator: they check an ingest
// body against the rules a node would apply to it and cut it into one part
// per owning node, made of the body's own bytes. Nothing is decoded into
// new slices, re-encoded or checksummed twice, and a refused body yields no
// parts, so it reaches no node.

// SplitBinBody checks an MRLB ingest body against the stream rules a node
// enforces (binGrammar) and splits it into parts, where owner maps a metric
// name to its part index in [0, parts). Part i holds the prologue, the
// body's session frame (if it has one), then, in body order, every batch
// frame whose metric is owned by i, each preceded by the dict frame that
// bound its id whenever part i does not carry that binding yet, so an id
// re-interned to another metric is bound again. The nodes dedup sequenced
// batches on the body's own session and sequence numbers, so posting the
// parts leaves every node as posting its share directly would. Parts that
// no batch maps to are nil. A body without a batch frame is refused, as a
// node refuses it.
func SplitBinBody(body []byte, parts int, owner func(metric string) int) ([][]byte, error) {
	if err := parseBinPrologue(body); err != nil {
		return nil, err
	}
	var (
		g       binGrammar
		session []byte
		// bound maps each interned id to the dict frame binding it now;
		// carried[i][id] is the first byte of the binding part i holds.
		bound   = make(map[uint32][]byte)
		carried = make([]map[uint32]*byte, parts)
		frames  = make([][][]byte, parts)
		batches int
	)
	rest := body[binPrologueLen:]
	for len(rest) > 0 {
		fr, tail, err := parseBinFrame(rest, nil, nil)
		if err != nil {
			return nil, err
		}
		frame := rest[:len(rest)-len(tail)]
		rest = tail
		name, err := g.check(&fr)
		if err != nil {
			return nil, err
		}
		switch fr.typ {
		case binFrameDict:
			bound[fr.id] = frame
		case binFrameSession:
			session = frame // every session frame of a stream declares the same session
		case binFrameBatch:
			i := owner(name)
			if carried[i] == nil {
				carried[i] = make(map[uint32]*byte)
			}
			if dict := bound[fr.id]; carried[i][fr.id] != &dict[0] {
				carried[i][fr.id] = &dict[0]
				frames[i] = append(frames[i], dict)
			}
			frames[i] = append(frames[i], frame)
			batches++
		}
	}
	if batches == 0 {
		return nil, errNoBatchFrames
	}
	out := make([][]byte, parts)
	for i, fs := range frames {
		if len(fs) == 0 {
			continue
		}
		n := binPrologueLen + len(session)
		for _, f := range fs {
			n += len(f)
		}
		part := make([]byte, 0, n)
		part = append(part, body[:binPrologueLen]...)
		part = append(part, session...)
		for _, f := range fs {
			part = append(part, f...)
		}
		out[i] = part
	}
	return out, nil
}

// SplitJSONBody is SplitBinBody for a POST /ingest body: one JSON object or
// any concatenation of them. Part i holds, in body order and one per line,
// every object whose metric is owned by i. Each object is split off with
// the node's own nextJSONValue and must decode as JSON with a valid metric
// name; its values are left for the owning node to decode. A body without
// an object is refused, as a node refuses it.
func SplitJSONBody(body []byte, parts int, owner func(metric string) int) ([][]byte, error) {
	out := make([][]byte, parts)
	objects := 0
	for rest := body; ; {
		obj, tail, err := nextJSONValue(rest)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("serve: bad ingest body: %w", err)
		}
		rest = tail
		var peek struct {
			Metric string `json:"metric"`
		}
		if err := json.Unmarshal(obj, &peek); err != nil {
			return nil, fmt.Errorf("serve: bad ingest body: %w", err)
		}
		if err := validateMetricName(peek.Metric); err != nil {
			return nil, err
		}
		i := owner(peek.Metric)
		out[i] = append(append(out[i], obj...), '\n')
		objects++
	}
	if objects == 0 {
		return nil, errEmptyIngestBody
	}
	return out, nil
}
