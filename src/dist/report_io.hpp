#pragma once

/// \file report_io.hpp
/// Versioned text wire format for shard reports.
///
/// A *shard report* is what one worker of a distributed sweep ships home:
/// the sweep's identity (the canonical workload name from the registry in
/// engine/workload.hpp plus its digest, the batch master seed, the total
/// job count and the protocol list), the job-id ranges this shard covers,
/// and the engine's per-job outcomes for exactly those ids — everything the
/// merge layer needs to verify that K shard files really are disjoint
/// covering pieces of one sweep before folding them into a single
/// `BatchReport`.
///
/// The format is line-oriented text, one record per line, space-separated
/// fields, headed by `arl-shard-report <version>`:
///
///   arl-shard-report 2
///   sweep <digest-hex> <canonical workload name>
///   seed <batch master seed>
///   jobs <total job count of the whole sweep>
///   fault <canonical fault name>             (optional; absent means `none`)
///   range <begin> <end>                      (1+ lines, ascending, disjoint)
///   protocol <registry name>                 (1+ lines, cross-product order)
///   threads <workers used>
///   wall-ms <wall time, round-trippable double>
///   cache <hits> <misses> <evictions> <schedule-builds> <entries>  (optional)
///   job <id> <protocol> <disposition> <n> <sigma> <feasible> <simulated>
///       <valid> <leader|-> <iterations> <steps> <local> <global> <fp-hex>
///       <tx> <clean> <collisions> <wakeups> <node-rounds> <max-node-tx>
///       <max-node-awake> <drops> <corruptions> <crashes> <delayed-wakes>
///   breakdown <protocol> <jobs> <feasible> <valid> <elected> <no-leader>
///       <failed> <detected-fault> <total-local> <max-local> <tx> <clean>
///       <collisions> <wakeups> <node-rounds> <max-node-tx> <max-node-awake>
///       <drops> <corruptions> <crashes> <delayed-wakes>
///   end <job line count> <body digest>
///
/// The parser is strict: it rejects unknown versions, missing or reordered
/// sections, malformed fields, a sweep description that is not the canonical
/// spelling of a registered workload (identity is re-parsed through
/// `engine::parse_workload`, never trusted as an opaque string), job ids
/// that do not exactly enumerate the declared ranges, breakdown lines that
/// disagree with the job lines they summarize, a wrong trailing count, and
/// trailing garbage.  The `end` line additionally carries a digest of every
/// byte above it, so *any* corruption — including a field the grammar and
/// cross-checks would both accept, like a flipped node-count digit — throws
/// `ReportFormatError` instead of merging quietly (fuzzed by
/// tests/test_fuzz.cpp).

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dist/shard.hpp"
#include "engine/batch_runner.hpp"
#include "engine/workload.hpp"

namespace arl::dist {

/// Thrown when a shard report file is malformed, truncated, internally
/// inconsistent, or of an unsupported version.
class ReportFormatError : public std::runtime_error {
 public:
  explicit ReportFormatError(const std::string& what) : std::runtime_error(what) {}
};

/// The current (and only) wire-format version.  Bumped on any change to the
/// line grammar; readers reject every version they were not built for, so a
/// fleet mixing binaries fails loudly instead of merging misparsed numbers.
inline constexpr std::uint32_t kShardReportVersion = 2;

/// Identity of the sweep a shard belongs to.  Two shard reports merge only
/// when every field matches: same workload (digest + description), same
/// master seed (coin streams), same total job count (the partition target),
/// same fault plan (it changes every outcome) and same protocol list (the
/// cross-product axis).
struct SweepKey {
  std::uint64_t digest = 0;            ///< sweep_digest(description)
  std::string description;             ///< canonical workload name (engine::WorkloadSpec)
  std::uint64_t seed = 0;              ///< batch master seed
  engine::JobId total_jobs = 0;        ///< job count of the whole sweep
  std::string fault = "none";          ///< canonical fault name (fault::FaultSpec)
  std::vector<std::string> protocols;  ///< registry names, cross-product order

  friend bool operator==(const SweepKey& a, const SweepKey& b) = default;
};

/// The sweep identity of `total_jobs` jobs of `workload` crossed with
/// `protocols` under `seed` and `fault` — the one key builder of the CLI's
/// sweeps and the sweep service's responses.
[[nodiscard]] SweepKey make_sweep_key(const engine::WorkloadSpec& workload,
                                      engine::JobId total_jobs,
                                      const std::vector<core::ProtocolSpec>& protocols,
                                      std::uint64_t seed, const fault::FaultSpec& fault);

/// Stable 64-bit digest of a sweep description (the `sweep` line carries
/// both, and merge verifies they agree — the digest catches a description
/// edited by hand, the description makes mismatch errors readable).  For a
/// canonical workload name this equals `engine::WorkloadSpec::digest()`, so
/// a spec's digest feeds a SweepKey directly.
[[nodiscard]] std::uint64_t sweep_digest(std::string_view description);

/// One shard's (or a partial merge's) results: the sweep identity, the
/// job-id ranges covered — sorted, disjoint, coalesced — and a BatchReport
/// whose jobs are exactly those global ids in ascending order.
struct ShardReport {
  SweepKey key;
  std::vector<JobRange> ranges;
  engine::BatchReport report;
};

/// Assembles a shard report from one engine run, validating that the
/// report's job ids are exactly `range` (throws support::ContractViolation
/// otherwise — a misuse, not a wire-format problem).
[[nodiscard]] ShardReport make_shard_report(SweepKey key, JobRange range,
                                            engine::BatchReport report);

/// Serializes `shard` in the versioned text format above.
void write_shard_report(const ShardReport& shard, std::ostream& out);

/// Parses one shard report, enforcing the full grammar and every internal
/// consistency rule documented above.  Throws ReportFormatError on any
/// violation; never returns a partially-filled report.
[[nodiscard]] ShardReport read_shard_report(std::istream& in);

}  // namespace arl::dist
