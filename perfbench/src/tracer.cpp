#include "tracer.hpp"

#include <ostream>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t id)
    : tracer_(tracer), index_(static_cast<std::int32_t>(tracer.spans_.size())) {
  tracer_.spans_.push_back({name, id, tracer_.open_, now_ns(), 0});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  tracer_.open_ = span.parent;
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t own = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    self[spans_[i].name] += static_cast<double>(own) / 1e6;
  }
  return self;
}

void Tracer::write(std::ostream& out, int thread) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"thread\":" << thread << ",\"span\":" << i << ",\"name\":\"" << span.name
        << "\",\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns << "}\n";
  }
}

}  // namespace perfbench
