package serve

import (
	"fmt"
)

// BinBatch is one decoded batch of an MRLB ingest body: the interned
// metric resolved to its name (and the backend tag its dict frame carried,
// if any), the per-session sequence number for sequenced batches (0
// otherwise), and the batch's values with optional per-value weights.
type BinBatch struct {
	Metric  string
	Backend string
	Seq     uint64
	Values  []float64
	Weights []float64
}

// BinStream is a fully decoded MRLB ingest body.
type BinStream struct {
	// Session is the client session id the body declared, 0 if none.
	Session uint64
	// Batches holds every batch frame in body order.
	Batches []BinBatch
}

// DecodeBinBody decodes a complete MRLB ingest body without applying it —
// the cluster coordinator's forwarding step, which must re-route each batch
// to its owning node while preserving the session identity and sequence
// numbers the exactly-once contract rides on. It enforces the same stream
// rules the ingest path does: dict before batch, sequence numbers only after
// a session frame, at most one session per body, no ack frames from a
// writer. Values and weights are copied out of the body.
func DecodeBinBody(body []byte) (*BinStream, error) {
	if err := parseBinPrologue(body); err != nil {
		return nil, err
	}
	out := &BinStream{}
	type dictEntry struct{ name, backend string }
	dict := make(map[uint32]dictEntry)
	rest := body[binPrologueLen:]
	for len(rest) > 0 {
		fr, tail, err := parseBinFrame(rest, nil, nil)
		if err != nil {
			return nil, err
		}
		rest = tail
		switch fr.typ {
		case binFrameDict:
			if err := validateMetricName(fr.name); err != nil {
				return nil, err
			}
			if _, ok := dict[fr.id]; !ok && len(dict) >= maxBinDictEntries {
				return nil, fmt.Errorf("%w: more than %d interned metric ids", ErrBadFrame, maxBinDictEntries)
			}
			dict[fr.id] = dictEntry{name: fr.name, backend: fr.backend}
		case binFrameBatch:
			ent, ok := dict[fr.id]
			if !ok {
				return nil, fmt.Errorf("%w: id %d (send a dict frame first)", ErrUnknownMetricID, fr.id)
			}
			if fr.sequenced && out.Session == 0 {
				return nil, fmt.Errorf("%w: sequenced batch before a session frame", ErrBadFrame)
			}
			b := BinBatch{
				Metric:  ent.name,
				Backend: ent.backend,
				Seq:     fr.seq,
				Values:  append([]float64(nil), fr.values...),
			}
			if fr.weighted {
				b.Weights = append([]float64(nil), fr.weights...)
			}
			out.Batches = append(out.Batches, b)
		case binFrameSession:
			if out.Session != 0 && out.Session != fr.sid {
				return nil, fmt.Errorf("%w: stream already bound to session %d", ErrBadFrame, out.Session)
			}
			out.Session = fr.sid
		default:
			return nil, fmt.Errorf("%w: unexpected frame type %d from a writer", ErrBadFrame, fr.typ)
		}
	}
	return out, nil
}
