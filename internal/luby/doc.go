// Package luby implements Luby's classic randomized MIS algorithm
// [Lub86, ABI86], the O(log n)-round state of the art that the paper uses
// as its time-complexity yardstick (Section 1.2).
//
// The variant implemented is the degree-based one described in Section 3.1
// of the paper: per round every undecided node marks itself with
// probability 1/(2 deg(v)), where deg counts undecided neighbors; for any
// edge with both endpoints marked, the endpoint with lower degree (ties by
// lower ID) unmarks; surviving marked nodes join the MIS and their
// neighbors drop out.
//
// Energy behavior: a node stays awake until it is decided and has told its
// neighbors, so the energy complexity equals the time complexity — the
// Θ(log n) baseline the paper improves on.
//
// Both algorithms here, classic Luby (Run) and the regularized variant of
// Section 2.1 (RunRegularized), execute on the batch engine as
// struct-of-arrays automata. Their per-node Machine forms run on the
// per-node engine only as references (RunLegacy, RunRegularizedLegacy)
// that the differential tests compare against.
package luby
