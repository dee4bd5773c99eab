// Text (de)serialization of graphs.
//
// The format follows the common subgraph-matching benchmark convention:
//
//   t <num_vertices> <num_edges>
//   v <id> <label> [multiplicity]
//   e <u> <v>
//
// Ids are dense in [0, n): each is declared by exactly one 'v' line, and
// the header's counts must equal the 'v' and 'e' lines listed. Lines
// starting with '#' and blank lines are ignored.

#ifndef CFL_GRAPH_GRAPH_IO_H_
#define CFL_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace cfl {

// Parses a graph from `in`. Throws std::runtime_error on malformed input,
// and std::invalid_argument on a value outside its field's range: a label
// above kMaxLabel (graph.h), or a vertex count or multiplicity above
// 2^32 - 1. No field is narrowed silently.
Graph ReadGraph(std::istream& in);

// Loads a graph from the file at `path`. Throws on I/O or parse errors.
Graph LoadGraph(const std::string& path);

// Writes `g` in the format above.
void WriteGraph(const Graph& g, std::ostream& out);

// Saves `g` to the file at `path`. Throws on I/O errors.
void SaveGraph(const Graph& g, const std::string& path);

}  // namespace cfl

#endif  // CFL_GRAPH_GRAPH_IO_H_
