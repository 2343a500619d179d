// Package core implements the uniform buffer framework of Manku,
// Rajagopalan and Lindsay, "Approximate Medians and other Quantiles in One
// Pass and with Limited Memory" (SIGMOD 1998).
//
// An algorithm instance owns b buffers of k elements each. Input is consumed
// one element at a time by NEW operations that fill empty buffers; when the
// configured collapsing policy decides that space must be reclaimed, a
// COLLAPSE operation merges c >= 2 full buffers into a single buffer whose
// weight is the sum of the input weights. A query performs the paper's
// OUTPUT operation over the surviving full buffers and the sorted partial
// buffer, which joins unpadded at weight 1: it reads the element at position
// ceil(phi * N) of the weighted merge. That is the element the paper's
// position ceil(phi' * kW) selects over the partial buffer padded with
// -Inf/+Inf sentinels, since the padding shifts every real position by the
// same number of -Inf slots.
//
// Three collapsing policies are provided, matching Section 3.4 of the paper:
// the Munro-Paterson binary-counter policy, the Alsabti-Ranka-Singh
// two-level policy, and the paper's new level-based policy. All three share
// the NEW/COLLAPSE/OUTPUT machinery and therefore inherit the Lemma 5
// guarantee: the rank error of any reported quantile is at most
// (W-C-1)/2 + wmax, a quantity the sketch tracks at run time and exposes
// through ErrorBound.
//
// The package is deliberately low level: it works in raw (b, k) parameters
// and float64 element values. Use package quantile for an API that sizes
// buffers from an accuracy target, and internal/params for the paper's
// optimizers.
package core
