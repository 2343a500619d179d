// Package cert is the guarantee-certification subsystem: a deterministic,
// seeded sweep that re-verifies the paper's central claim — every reported
// quantile is within epsilon*N ranks of exact (Lemma 5, Tables 1-2) — across
// the full cross-product the rest of the module exercises piecemeal:
//
//   - collapsing policies (new, munro-paterson, alsabti-ranka-singh),
//   - optimizer-chosen (b, k) from internal/params,
//   - the Section 6 arrival orders of internal/stream (sorted, reversed,
//     shuffled, zigzag, organ-pipe, blocked),
//   - the Section 5 sampling front-end next to the deterministic path,
//   - every estimator stack: one estimator built by quantile.NewEstimator,
//     the sharded quantile.Concurrent, the Section 4.9 parallel snapshot
//     combine, the internal/serve HTTP path driven through its real
//     handler, and an internal/cluster coordinator merging the snapshots
//     of several serve nodes,
//   - every quantile.Estimator backend: the paper's MRL summary, the KLL
//     sketch and the weighted summary, the last also fed non-unit weights
//     through its weighted ingest face and scored against the
//     weight-expanded oracle.
//
// Every estimate is checked against an exact oracle for two properties:
// the a-priori claim (observed rank error <= epsilon*N, where the backend
// makes one) and the a-posteriori claim (observed rank error <= the
// runtime ErrorBound the estimator reported alongside the answer).
// Metamorphic modes additionally certify properties no single run can:
// permutation invariance of the bound, Absorb/Combine associativity,
// duplicate tolerance, and affine equivariance of the comparison-based
// selection.
//
// On failure the certifier shrinks the scenario (halving N, dropping phis,
// reducing shards, partitions or nodes, then the buffer geometry b*k, or
// KLL's k, itself) to a minimal still-failing reproducer and emits it as a
// replayable JSON Certificate. cmd/quantilecert wraps the sweep as a
// one-command conformance gate for CI; its -selftest mode injects a
// deliberate bound bug on the MRL, KLL and cluster axes and verifies the
// certifier catches and shrinks each.
package cert
