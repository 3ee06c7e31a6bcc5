#include "config/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "support/assert.hpp"
#include "support/parse.hpp"

namespace arl::config {

namespace {

/// Reads the next content line (skips blanks and '#' comments).
bool next_content_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    return true;
  }
  return false;
}

}  // namespace

void to_text(const Configuration& configuration, std::ostream& out) {
  const auto& graph = configuration.graph();
  out << "nodes " << graph.node_count() << '\n';
  out << "tags";
  for (const Tag tag : configuration.tags()) {
    out << ' ' << tag;
  }
  out << '\n';
  const auto edges = graph.edges();
  out << "edges " << edges.size() << '\n';
  for (const auto& [u, v] : edges) {
    out << u << ' ' << v << '\n';
  }
}

std::string to_text_string(const Configuration& configuration) {
  std::ostringstream out;
  to_text(configuration, out);
  return out.str();
}

Configuration from_text(std::istream& in) {
  std::string line;
  std::string keyword;

  ARL_EXPECTS(next_content_line(in, line), "missing 'nodes' line");
  std::istringstream nodes_line(line);
  std::uint64_t n = 0;
  nodes_line >> keyword >> n;
  ARL_EXPECTS(!nodes_line.fail() && keyword == "nodes", "malformed 'nodes' line");
  ARL_EXPECTS(n >= 1 && n <= 0xFFFFFFFFULL, "node count out of range");

  ARL_EXPECTS(next_content_line(in, line), "missing 'tags' line");
  std::vector<Tag> tags;
  {
    support::TokenCursor cursor(line);
    std::string_view token;
    ARL_EXPECTS(cursor.next(token) && token == "tags", "malformed 'tags' line");
    std::vector<Tag> parsed;
    parsed.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Tag tag = 0;
      ARL_EXPECTS(cursor.next_number(tag), "too few tags");
      parsed.push_back(tag);
    }
    tags = std::move(parsed);
  }

  ARL_EXPECTS(next_content_line(in, line), "missing 'edges' line");
  std::istringstream edges_line(line);
  std::uint64_t m = 0;
  edges_line >> keyword >> m;
  ARL_EXPECTS(!edges_line.fail() && keyword == "edges", "malformed 'edges' line");

  std::vector<graph::Edge> edges;
  edges.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    ARL_EXPECTS(next_content_line(in, line), "too few edge lines");
    support::TokenCursor cursor(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    ARL_EXPECTS(cursor.next_number(u) && cursor.next_number(v), "malformed edge line");
    ARL_EXPECTS(u < n && v < n, "edge endpoint out of range");
    edges.emplace_back(static_cast<graph::NodeId>(u), static_cast<graph::NodeId>(v));
  }

  return Configuration(graph::Graph::from_edges(static_cast<graph::NodeId>(n), std::move(edges)),
                       std::move(tags));
}

Configuration from_text_string(const std::string& text) {
  std::istringstream in(text);
  return from_text(in);
}

void to_dot(const Configuration& configuration, std::ostream& out) {
  out << "graph configuration {\n";
  out << "  node [shape=circle];\n";
  for (graph::NodeId v = 0; v < configuration.size(); ++v) {
    out << "  n" << v << " [label=\"" << v << ":" << configuration.tag(v) << "\"];\n";
  }
  for (const auto& [u, v] : configuration.graph().edges()) {
    out << "  n" << u << " -- n" << v << ";\n";
  }
  out << "}\n";
}

}  // namespace arl::config
