// Mutable backdoors into otherwise-immutable structures, for tests ONLY.
//
// The validator tests (tests/check_test.cc) must corrupt a known-good Graph
// or Cpi — unsort an adjacency list, point a CPI position out of range —
// and assert the validators catch it. Graph and Cpi are deliberately
// immutable after construction, so the corruption goes through these friend
// structs instead of loosening the production API. The CPI builder tests
// (tests/cpi_test.cc) read the builder's private scratch the same way.
//
// Never include this header outside of tests.

#ifndef CFL_CHECK_TEST_ACCESS_H_
#define CFL_CHECK_TEST_ACCESS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cpi/cpi.h"
#include "cpi/cpi_builder.h"
#include "graph/graph.h"

namespace cfl {

struct GraphTestAccess {
  static std::vector<VertexId>& Neighbors(Graph& g) { return g.neighbors_; }
  static std::vector<Label>& Labels(Graph& g) { return g.labels_; }
  static std::vector<uint32_t>& Multiplicity(Graph& g) {
    return g.multiplicity_;
  }
  static uint64_t& EffectiveNumVertices(Graph& g) {
    return g.effective_num_vertices_;
  }
  static std::vector<uint32_t>& EffectiveDegree(Graph& g) {
    return g.effective_degree_;
  }
  static std::vector<VertexId>& LabelVertices(Graph& g) {
    return g.label_vertices_;
  }
  static std::vector<uint64_t>& LabelFrequency(Graph& g) {
    return g.label_frequency_;
  }
  static std::vector<uint32_t>& LabelDegrees(Graph& g) {
    return g.label_degrees_;
  }
  static std::vector<Graph::LabelCount>& Nlf(Graph& g) { return g.nlf_; }
  static std::vector<uint64_t>& Nlm(Graph& g) { return g.nlm_; }
  static std::vector<uint32_t>& Mnd(Graph& g) { return g.mnd_; }
  static uint64_t& NumEdges(Graph& g) { return g.num_edges_; }
};

struct CpiTestAccess {
  // Arenas and their offset tables (see cpi.h for the layout). Tests mutate
  // entries in place; resizing an arena without fixing every downstream
  // start table invalidates other vertices' slices.
  static std::vector<VertexId>& CandArena(Cpi& cpi) { return cpi.cand_arena_; }
  static std::vector<uint64_t>& CandOffsets(Cpi& cpi) {
    return cpi.cand_offsets_;
  }
  static std::vector<uint32_t>& AdjOffArena(Cpi& cpi) {
    return cpi.adj_off_arena_;
  }
  static std::vector<uint64_t>& AdjOffStart(Cpi& cpi) {
    return cpi.adj_off_start_;
  }
  static std::vector<uint32_t>& AdjEntryArena(Cpi& cpi) {
    return cpi.adj_entry_arena_;
  }
  static std::vector<uint64_t>& AdjEntryStart(Cpi& cpi) {
    return cpi.adj_entry_start_;
  }

  // Mutable view of u's candidate slice.
  // cfl-lint: allow(span-escape) deliberate test-only pierce of a frozen Cpi
  static std::span<VertexId> Candidates(Cpi& cpi, VertexId u) {
    return {cpi.cand_arena_.data() + cpi.cand_offsets_[u],
            cpi.cand_arena_.data() + cpi.cand_offsets_[u + 1]};
  }
  // Mutable views of u's adjacency offset / entry slices.
  // cfl-lint: allow(span-escape) deliberate test-only pierce of a frozen Cpi
  static std::span<uint32_t> AdjOffsets(Cpi& cpi, VertexId u) {
    return {cpi.adj_off_arena_.data() + cpi.adj_off_start_[u],
            cpi.adj_off_arena_.data() + cpi.adj_off_start_[u + 1]};
  }
  // cfl-lint: allow(span-escape) deliberate test-only pierce of a frozen Cpi
  static std::span<uint32_t> AdjEntries(Cpi& cpi, VertexId u) {
    return {cpi.adj_entry_arena_.data() + cpi.adj_entry_start_[u],
            cpi.adj_entry_arena_.data() + cpi.adj_entry_start_[u + 1]};
  }
};

struct CpiBuilderTestAccess {
  // The counting scratch (cpi_builder.h) of the thread that constructed
  // `b`, sized to b's data graph, which every Build must leave all-zero.
  static const std::vector<uint32_t>& Counts(const CpiBuilder& b) {
    return b.s_.cnt;
  }
  static const std::vector<uint64_t>& SeenBits(const CpiBuilder& b) {
    return b.s_.seen;
  }
};

}  // namespace cfl

#endif  // CFL_CHECK_TEST_ACCESS_H_
