#pragma once

/// \file tracer.hpp
/// In-memory span recorder of the traced run.  The benchmark opens a span
/// around every call it makes into a layer's public functions; spans nest
/// (a store load inside a cache lookup, every layer call inside its job),
/// stay in memory until the run ends, and are folded into per-layer self
/// time: a span's duration minus the time its children cover.
///
/// One Tracer per thread; nothing here is synchronized.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";      ///< layer name (static string)
  std::uint64_t id = 0;       ///< job id, or request id for request-level spans
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 at the root
  std::int64_t start_ns = 0;  ///< steady-clock nanoseconds
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  /// Self time (ms) summed per span name.
  [[nodiscard]] std::map<std::string, double> self_ms() const;

  /// Writes every span as one JSON line, tagged with `thread`.
  void write(std::ostream& out, int thread) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;  ///< innermost open span
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
