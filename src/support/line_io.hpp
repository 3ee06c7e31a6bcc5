#pragma once

/// \file line_io.hpp
/// Bounded line framing shared by every line-oriented text surface.
///
/// Two consumers read line protocols today: the shard-report parser
/// (dist/report_io.cpp) reads whole files through an istream, and the sweep
/// service (serve/) frames requests and responses out of socket reads that
/// arrive in arbitrary chunks.  Both need the same three guarantees —
/// a hard per-line byte bound (a peer that never sends '\n' must not grow an
/// unbounded buffer), explicit EOF handling (a trailing line without its
/// newline is still a line, matching std::getline), and exactly-once
/// delivery of each framed line — so the framing lives here once instead of
/// as two ad-hoc readers that would drift apart.
///
/// `LineFramer` is the incremental core: feed() raw bytes as they arrive,
/// pop() complete lines as they frame.  `read_lines` is the whole-stream
/// convenience the file parsers use, and `next_content_line` the
/// comment-skipping reader of the artifact text formats.

#include <cstddef>
#include <deque>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace arl::support {

/// Thrown when a single line exceeds the framer's byte bound — a protocol
/// violation (or an attack), never a condition to grow past.
class LineTooLong : public std::runtime_error {
 public:
  explicit LineTooLong(std::size_t limit)
      : std::runtime_error("line exceeds the " + std::to_string(limit) + "-byte bound") {}
};

/// Incremental splitter of a byte stream into '\n'-terminated lines.
///
/// Bytes go in via feed() in whatever chunks the transport delivers;
/// complete lines (without their '\n') come out of pop() in order.  finish()
/// marks end of input, at which point a nonempty partial tail becomes one
/// final line — the std::getline convention, so a file whose last line lacks
/// a newline parses identically through either path.
class LineFramer {
 public:
  /// Default per-line bound.  Shard-report lines are tens of bytes; a 1 MiB
  /// ceiling is far above any legitimate line while still bounding a peer
  /// that streams garbage without newlines.
  static constexpr std::size_t kDefaultMaxLine = 1 << 20;

  explicit LineFramer(std::size_t max_line_bytes = kDefaultMaxLine)
      : max_line_bytes_(max_line_bytes) {}

  /// Appends a chunk of raw bytes, framing any lines it completes.  Throws
  /// LineTooLong as soon as an unterminated line crosses the bound (the
  /// framer is then poisoned: further calls keep throwing).
  void feed(std::string_view bytes);

  /// The next framed line, or nullopt when none is complete yet.
  [[nodiscard]] std::optional<std::string> pop();

  /// Marks end of input: a nonempty partial tail becomes the final line.
  /// Feeding after finish() is a contract violation.
  void finish();

  /// True once finish() was called and every framed line was popped.
  [[nodiscard]] bool drained() const { return finished_ && lines_.empty(); }

  /// Bytes of the current unterminated tail (0 right after a newline).
  [[nodiscard]] std::size_t partial_bytes() const { return partial_.size(); }

  /// The per-line byte bound this framer enforces.
  [[nodiscard]] std::size_t max_line_bytes() const { return max_line_bytes_; }

 private:
  std::size_t max_line_bytes_;
  std::string partial_;
  std::deque<std::string> lines_;
  bool finished_ = false;
  bool poisoned_ = false;
};

/// Reads every line of `in` (final line with or without its newline, like
/// std::getline) under the per-line bound.  Throws LineTooLong when any line
/// crosses it.
[[nodiscard]] std::vector<std::string> read_lines(
    std::istream& in, std::size_t max_line_bytes = LineFramer::kDefaultMaxLine);

/// Reads the next content line of a text artifact into `line`, skipping
/// blank lines and '#' comments; false at end of input.  The one reader of
/// the configuration, classification, schedule and artifact-store formats.
bool next_content_line(std::istream& in, std::string& line);

}  // namespace arl::support
