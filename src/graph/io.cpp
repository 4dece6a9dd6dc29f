#include "graph/io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace hublab::io {

Graph read_edge_list(std::istream& in) {
  std::size_t n = 0;
  std::size_t m = 0;
  if (!(in >> n >> m)) throw ParseError("edge list: missing 'n m' header");
  if (n > kInvalidVertex) throw ParseError("edge list: vertex count exceeds the vertex range");
  GraphBuilder b(n);
  std::string rest;
  std::getline(in, rest);  // consume end of header line
  std::size_t seen = 0;
  std::string line;
  while (seen < m && std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    std::uint64_t w = 1;
    if (!(ls >> u >> v)) throw ParseError("edge list: malformed edge line: " + line);
    ls >> w;  // optional
    if (u >= n || v >= n) throw ParseError("edge list: vertex id out of range: " + line);
    if (w > std::numeric_limits<Weight>::max()) throw ParseError("edge list: weight too large");
    b.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v), static_cast<Weight>(w));
    ++seen;
  }
  if (seen < m) throw ParseError("edge list: fewer edges than declared");
  return b.build();
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (const Arc& a : g.arcs(u)) {
      if (a.to > u) out << u << ' ' << a.to << ' ' << a.weight << '\n';
    }
  }
}

Graph read_dimacs(std::istream& in) {
  std::string line;
  std::size_t n = 0;
  bool have_header = false;
  GraphBuilder b(0);
  // Use a set-free approach: GraphBuilder collapses duplicate arcs.
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char kind = 0;
    ls >> kind;
    if (kind == 'p') {
      std::string tag;
      std::size_t m = 0;
      if (!(ls >> tag >> n >> m) || tag != "sp") throw ParseError("dimacs: bad 'p sp n m' line");
      if (n > kInvalidVertex) throw ParseError("dimacs: vertex count exceeds the vertex range");
      b = GraphBuilder(n);
      have_header = true;
    } else if (kind == 'a') {
      if (!have_header) throw ParseError("dimacs: arc before header");
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      std::uint64_t w = 1;
      if (!(ls >> u >> v >> w)) throw ParseError("dimacs: malformed arc line: " + line);
      if (u == 0 || v == 0 || u > n || v > n) throw ParseError("dimacs: vertex id out of range");
      if (u == v) continue;
      if (w > std::numeric_limits<Weight>::max()) throw ParseError("dimacs: weight too large");
      b.add_edge(static_cast<Vertex>(u - 1), static_cast<Vertex>(v - 1), static_cast<Weight>(w));
    } else {
      throw ParseError("dimacs: unknown line kind: " + line);
    }
  }
  if (!have_header) throw ParseError("dimacs: missing header");
  return b.build();
}

void write_dimacs(const Graph& g, std::ostream& out) {
  out << "c hublab graph\n";
  out << "p sp " << g.num_vertices() << ' ' << g.num_arcs() << '\n';
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (const Arc& a : g.arcs(u)) {
      out << "a " << (u + 1) << ' ' << (a.to + 1) << ' ' << a.weight << '\n';
    }
  }
}

void write_dot(const Graph& g, std::ostream& out, const std::string& name) {
  out << "graph " << name << " {\n";
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (const Arc& a : g.arcs(u)) {
      if (a.to > u) {
        out << "  " << u << " -- " << a.to;
        if (g.is_weighted()) out << " [label=\"" << a.weight << "\"]";
        out << ";\n";
      }
    }
  }
  out << "}\n";
}

Graph load_edge_list(const std::string& file_path) {
  std::ifstream in(file_path);
  if (!in) throw Error("cannot open file: " + file_path);
  return read_edge_list(in);
}

void save_edge_list(const Graph& g, const std::string& file_path) {
  std::ofstream out(file_path);
  if (!out) throw Error("cannot open file for writing: " + file_path);
  write_edge_list(g, out);
  if (!out) throw Error("write failed: " + file_path);
}

}  // namespace hublab::io
