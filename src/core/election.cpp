#include "core/election.hpp"

#include "core/protocol.hpp"

namespace arl::core {

std::shared_ptr<const ClassifierResult> unclassified() {
  static const ClassifierResult empty;
  return {std::shared_ptr<const ClassifierResult>(), &empty};
}

ElectionReport elect(const config::Configuration& configuration, const ElectionOptions& options) {
  ElectionScratch scratch;
  return elect(configuration, options, scratch);
}

ElectionReport elect(const config::Configuration& configuration, const ElectionOptions& options,
                     ElectionScratch& scratch) {
  // The canonical pipeline lives behind the protocol registry now; elect()
  // is the source-compatible entry point for canonical-only callers.
  const ProtocolSpec spec =
      options.simulate ? ProtocolSpec::canonical() : ProtocolSpec::classify_only();
  return run_protocol(configuration, spec, options, scratch);
}

}  // namespace arl::core
