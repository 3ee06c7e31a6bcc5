#include "support/line_io.hpp"

#include <istream>

#include "support/assert.hpp"

namespace arl::support {

void LineFramer::feed(std::string_view bytes) {
  ARL_EXPECTS(!finished_, "LineFramer::feed after finish()");
  if (poisoned_) {
    throw LineTooLong(max_line_bytes_);
  }
  while (!bytes.empty()) {
    const std::size_t newline = bytes.find('\n');
    if (newline == std::string_view::npos) {
      if (partial_.size() + bytes.size() > max_line_bytes_) {
        poisoned_ = true;
        throw LineTooLong(max_line_bytes_);
      }
      partial_.append(bytes);
      return;
    }
    if (partial_.size() + newline > max_line_bytes_) {
      poisoned_ = true;
      throw LineTooLong(max_line_bytes_);
    }
    partial_.append(bytes.substr(0, newline));
    lines_.push_back(std::move(partial_));
    partial_.clear();
    bytes.remove_prefix(newline + 1);
  }
}

std::optional<std::string> LineFramer::pop() {
  if (lines_.empty()) {
    return std::nullopt;
  }
  std::string line = std::move(lines_.front());
  lines_.pop_front();
  return line;
}

void LineFramer::finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (!partial_.empty()) {
    lines_.push_back(std::move(partial_));
    partial_.clear();
  }
}

std::vector<std::string> read_lines(std::istream& in, std::size_t max_line_bytes) {
  LineFramer framer(max_line_bytes);
  std::vector<std::string> lines;
  char buffer[4096];
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
    framer.feed(std::string_view(buffer, static_cast<std::size_t>(in.gcount())));
    for (std::optional<std::string> line = framer.pop(); line; line = framer.pop()) {
      lines.push_back(std::move(*line));
    }
  }
  framer.finish();
  for (std::optional<std::string> line = framer.pop(); line; line = framer.pop()) {
    lines.push_back(std::move(*line));
  }
  return lines;
}

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

}  // namespace arl::support
