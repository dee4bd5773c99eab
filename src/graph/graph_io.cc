#include "graph/graph_io.h"

#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "graph/graph_builder.h"

namespace cfl {

namespace {

[[noreturn]] void Fail(uint64_t line_no, const std::string& why) {
  std::ostringstream os;
  os << "graph parse error at line " << line_no << ": " << why;
  throw std::runtime_error(os.str());
}

// A 64-bit field narrowed to 32 bits: a value above `max` is rejected,
// never truncated (label 2^32 would otherwise read as label 0).
uint32_t InRange(uint64_t value, uint64_t max, uint64_t line_no,
                 const char* what) {
  if (value > max) {
    std::ostringstream os;
    os << "graph parse error at line " << line_no << ": " << what << " "
       << value << " is out of range (the largest is " << max << ")";
    throw std::invalid_argument(os.str());
  }
  return static_cast<uint32_t>(value);
}

constexpr uint64_t kMaxU32 = static_cast<uint32_t>(-1);

}  // namespace

Graph ReadGraph(std::istream& in) {
  std::optional<GraphBuilder> builder;
  std::vector<uint32_t> multiplicity;
  bool any_multiplicity = false;

  std::string line;
  uint64_t line_no = 0;
  uint64_t declared_edges = 0;
  uint64_t seen_edges = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 't') {
      uint64_t n = 0, m = 0;
      if (!(ls >> n >> m)) Fail(line_no, "bad 't' header");
      builder.emplace(InRange(n, kMaxU32, line_no, "vertex count"));
      builder->AllowSelfLoops();
      multiplicity.assign(builder->num_vertices(), 1);
      declared_edges = m;
    } else if (tag == 'v') {
      if (!builder) Fail(line_no, "'v' before 't' header");
      uint64_t id = 0, label = 0;
      if (!(ls >> id >> label)) Fail(line_no, "bad 'v' line");
      if (id >= builder->num_vertices()) Fail(line_no, "vertex id out of range");
      builder->SetLabel(static_cast<VertexId>(id),
                        InRange(label, kMaxLabel, line_no, "label"));
      uint64_t mult = 0;
      if (ls >> mult) {
        if (mult == 0) Fail(line_no, "multiplicity must be >= 1");
        multiplicity[id] = InRange(mult, kMaxU32, line_no, "multiplicity");
        if (mult != 1) any_multiplicity = true;
      }
    } else if (tag == 'e') {
      if (!builder) Fail(line_no, "'e' before 't' header");
      uint64_t u = 0, v = 0;
      if (!(ls >> u >> v)) Fail(line_no, "bad 'e' line");
      if (u >= builder->num_vertices() || v >= builder->num_vertices()) {
        Fail(line_no, "edge endpoint out of range");
      }
      builder->AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
      ++seen_edges;
    } else {
      Fail(line_no, std::string("unknown record tag '") + tag + "'");
    }
  }
  if (!builder) throw std::runtime_error("graph parse error: empty input");
  if (declared_edges != seen_edges) {
    std::ostringstream os;
    os << "graph parse error: header declares " << declared_edges
       << " edges but " << seen_edges << " were listed";
    throw std::runtime_error(os.str());
  }
  if (any_multiplicity) builder->SetMultiplicities(std::move(multiplicity));
  return std::move(*builder).Build();
}

Graph LoadGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open graph file: " + path);
  return ReadGraph(in);
}

void WriteGraph(const Graph& g, std::ostream& out) {
  out << "t " << g.NumVertices() << " " << g.NumEdges() << "\n";
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    out << "v " << v << " " << g.label(v);
    if (g.HasMultiplicities()) out << " " << g.multiplicity(v);
    out << "\n";
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(v)) {
      if (w >= v) out << "e " << v << " " << w << "\n";  // each edge once
    }
  }
}

void SaveGraph(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open graph file: " + path);
  WriteGraph(g, out);
  if (!out) throw std::runtime_error("error writing graph file: " + path);
}

}  // namespace cfl
