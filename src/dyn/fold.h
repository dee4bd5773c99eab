// Folding a sealed GraphDelta into a fresh epoch Graph.
//
// Each committed batch produces a brand-new immutable `Graph` — the next
// epoch's snapshot — while queries on older epochs keep reading their own
// instances untouched (dyn/dynamic_graph.h). The fold is *incremental*:
// it never re-sorts the data graph. It walks the delta's sorted touched
// list once: each maximal run of untouched vertices between two touched
// ids is block-copied from the base CSR — one insert each into the
// adjacency, label-run and NLF arrays, its offsets the base offsets plus
// a constant shift — and each touched vertex takes its post-delta list
// from the delta's linear three-way merge (base run ∪ added − removed,
// already (label, id)-ordered). The touched vertices are merged before
// the walk, so every array is reserved to its final size: a folded graph
// allocates exactly what GraphBuilder would. Derived structures are
// rewritten only where they can change:
//
//   * degrees / NLF: touched vertices only,
//   * max-neighbor-degree: touched vertices plus their new neighbors (a
//     removed edge's far endpoint is itself touched, so that set covers
//     every vertex whose neighborhood degrees moved),
//   * label index and per-label degree lists: the builder's linear
//     counting passes (O(n) even in the builder; not worth diffing),
//   * hub rows: membership re-derived by the builder's threshold-doubling
//     scan over the new degrees, then each hub row is block-copied from the
//     base and bit-patched with the delta mask (cleared for removed, set
//     for added neighbors) when the vertex had a base row, or rebuilt from
//     the new adjacency when it crossed the threshold. Row strides grow
//     with the vertex count; copied rows are re-strided with a zero tail
//     (untouched vertices cannot be adjacent to batch-added ids).
//
// The output is content-equal to `GraphBuilder` over the post-delta edge
// set — same CSR bytes, same indexes, same hub threshold settlement — which
// is the property the update-vs-rebuild oracle (tests/dyn_oracle_test.cc)
// checks end to end through every engine's embeddings.
//
// FoldDelta also reports the delta's DirtyLabels (delta.h): the exact label
// set the serve layer uses to invalidate cached plans.
//
// FoldDelta reads only `base` and the sealed delta and takes no lock, so
// DynamicGraph::Apply runs it before it takes the graph mutex: readers
// and the fold of one commit never wait for each other.

#ifndef CFL_DYN_FOLD_H_
#define CFL_DYN_FOLD_H_

#include "dyn/delta.h"
#include "graph/graph.h"

namespace cfl::dyn {

// Builds the post-delta snapshot. `delta` must be sealed and bound to
// `base` (CFL_CHECK otherwise). When `dirty` is non-null it receives the
// labels whose candidate populations changed (sorted, deduped).
Graph FoldDelta(const Graph& base, const GraphDelta& delta,
                DirtyLabels* dirty = nullptr);

}  // namespace cfl::dyn

#endif  // CFL_DYN_FOLD_H_
