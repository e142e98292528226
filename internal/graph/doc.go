// Package graph provides the static network substrate for the simulator:
// compact immutable undirected graphs, a builder, induced subgraphs,
// connected components, and breadth-first utilities.
//
// Graphs are stored in compressed-sparse-row (CSR) form: all adjacency
// lists concatenated in one slice with per-node offsets. Node identifiers
// are dense integers [0, N). Protocol-level identifiers (the distributed
// algorithms assume unique O(log n)-bit IDs) default to the node index but
// can be remapped when extracting subgraphs so that a node keeps its
// original identity across phases.
//
// Both CSR builds are linear apart from per-row sorting: Builder.Build
// fills rows straight from degree counts and sorts and deduplicates each
// row in place, and InducedSubgraph runs in O(|keep| + arcs of keep) plus
// one cleared O(N) lookup array, sorting rows only when keep is not
// ascending. Neither uses maps or a global edge sort.
package graph
