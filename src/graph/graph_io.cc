#include "graph/graph_io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
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
  // The header's counts are claims about the lines that follow, so nothing
  // is sized by them: the records are buffered as they arrive, and the
  // graph is built only once the counts agree with what was listed. A
  // one-line body declaring 4e9 vertices allocates nothing.
  struct VertexRecord {
    uint64_t line_no;
    VertexId id;
    Label label;
    uint32_t multiplicity;
  };
  std::vector<VertexRecord> vertices;
  std::vector<std::pair<VertexId, VertexId>> edges;
  bool have_header = false;
  uint32_t declared_vertices = 0;
  uint64_t declared_edges = 0;

  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 't') {
      if (have_header) Fail(line_no, "second 't' header");
      uint64_t n = 0, m = 0;
      if (!(ls >> n >> m)) Fail(line_no, "bad 't' header");
      declared_vertices = InRange(n, kMaxU32, line_no, "vertex count");
      declared_edges = m;
      have_header = true;
    } else if (tag == 'v') {
      if (!have_header) Fail(line_no, "'v' before 't' header");
      uint64_t id = 0, label = 0;
      if (!(ls >> id >> label)) Fail(line_no, "bad 'v' line");
      if (id >= declared_vertices) Fail(line_no, "vertex id out of range");
      VertexRecord record{line_no, static_cast<VertexId>(id),
                          InRange(label, kMaxLabel, line_no, "label"), 1};
      uint64_t mult = 0;
      if (ls >> mult) {
        if (mult == 0) Fail(line_no, "multiplicity must be >= 1");
        record.multiplicity = InRange(mult, kMaxU32, line_no, "multiplicity");
      }
      vertices.push_back(record);
    } else if (tag == 'e') {
      if (!have_header) Fail(line_no, "'e' before 't' header");
      uint64_t u = 0, v = 0;
      if (!(ls >> u >> v)) Fail(line_no, "bad 'e' line");
      if (u >= declared_vertices || v >= declared_vertices) {
        Fail(line_no, "edge endpoint out of range");
      }
      edges.emplace_back(static_cast<VertexId>(u), static_cast<VertexId>(v));
    } else {
      Fail(line_no, std::string("unknown record tag '") + tag + "'");
    }
  }
  if (!have_header) throw std::runtime_error("graph parse error: empty input");
  if (vertices.size() != declared_vertices) {
    std::ostringstream os;
    os << "graph parse error: header declares " << declared_vertices
       << " vertices but " << vertices.size() << " were listed";
    throw std::runtime_error(os.str());
  }
  if (edges.size() != declared_edges) {
    std::ostringstream os;
    os << "graph parse error: header declares " << declared_edges
       << " edges but " << edges.size() << " were listed";
    throw std::runtime_error(os.str());
  }

  // As many 'v' lines as vertices, so each id must appear exactly once;
  // multiplicity 0 marks an id not declared yet.
  GraphBuilder builder(declared_vertices);
  builder.AllowSelfLoops();
  std::vector<uint32_t> multiplicity(declared_vertices, 0);
  bool any_multiplicity = false;
  for (const VertexRecord& record : vertices) {
    if (multiplicity[record.id] != 0) {
      Fail(record.line_no,
           "vertex " + std::to_string(record.id) + " declared twice");
    }
    multiplicity[record.id] = record.multiplicity;
    if (record.multiplicity != 1) any_multiplicity = true;
    builder.SetLabel(record.id, record.label);
  }
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  // The builder holds both directions of every edge now; free the buffer
  // so a large file's edges are not held three times during Build.
  std::vector<std::pair<VertexId, VertexId>>().swap(edges);
  if (any_multiplicity) builder.SetMultiplicities(std::move(multiplicity));
  return std::move(builder).Build();
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
