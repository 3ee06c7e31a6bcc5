#include "replay.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <system_error>

#include "config/fingerprint.hpp"
#include "core/canonical_drip.hpp"
#include "core/classifier.hpp"
#include "core/schedule.hpp"

namespace perfbench {

using namespace arl;

namespace {

std::uint64_t injected_events(const radio::RunStats& stats) {
  return stats.injected_drops + stats.injected_corruptions + stats.injected_crashes +
         stats.delayed_wakeups;
}

std::uint64_t entry_bytes(const store::ArtifactStore& disk,
                          const config::Configuration& configuration,
                          radio::ChannelModel model) {
  std::error_code error;
  const auto bytes =
      std::filesystem::file_size(disk.entry_path(configuration, model, false), error);
  return error ? 0 : static_cast<std::uint64_t>(bytes);
}

/// The cached-or-fresh compiled artifacts of one job, as run_protocol's
/// classify_and_compile produces them, with every layer call spanned.
std::shared_ptr<const core::CompiledConfiguration> compile(
    const config::Configuration& configuration, radio::ChannelModel model, bool need_schedule,
    engine::JobId id, Tiers tiers, Tracer& tracer, LayerCounts& counts) {
  std::shared_ptr<const core::CompiledConfiguration> compiled;
  if (tiers.memory != nullptr) {
    const Tracer::Scope span(tracer, "cache", id);
    compiled = tiers.memory->lookup(configuration, model, false);
    if (compiled == nullptr && tiers.disk != nullptr) {
      std::shared_ptr<const core::CompiledConfiguration> loaded;
      {
        const Tracer::Scope load(tracer, "store", id);
        loaded = tiers.disk->load(configuration, model, false);
      }
      if (loaded != nullptr) {
        counts.store_bytes += entry_bytes(*tiers.disk, configuration, model);
        compiled = tiers.memory->store(configuration, model, false, *loaded);  // promotion
      }
    }
  }
  if (compiled != nullptr && (!need_schedule || compiled->schedule != nullptr)) {
    return compiled;
  }

  core::CompiledConfiguration fresh;
  if (compiled != nullptr) {
    fresh.classification = compiled->classification;
  } else {
    {
      const Tracer::Scope span(tracer, "classify", id);
      fresh.classification = core::Classifier(model).run(configuration);
    }
    counts.classify_calls += 1;
    counts.classify_steps += fresh.classification.steps;
  }
  if (need_schedule) {
    const Tracer::Scope span(tracer, "compile", id);
    fresh.schedule = std::make_shared<const core::CanonicalSchedule>(
        core::build_schedule(configuration, fresh.classification));
  }
  counts.compile_calls += need_schedule ? 1 : 0;
  if (tiers.memory == nullptr) {
    return std::make_shared<const core::CompiledConfiguration>(std::move(fresh));
  }
  std::shared_ptr<const core::CompiledConfiguration> stored;
  {
    const Tracer::Scope span(tracer, "cache", id);
    stored = tiers.memory->store(configuration, model, false, std::move(fresh));
    if (tiers.disk != nullptr) {
      const Tracer::Scope save(tracer, "store", id);
      tiers.disk->save(configuration, model, false, *stored);
    }
  }
  if (tiers.disk != nullptr) {
    counts.store_bytes += entry_bytes(*tiers.disk, configuration, model);
  }
  return stored;
}

}  // namespace

engine::JobOutcome replay_job(const engine::CountedSweep& sweep, engine::JobId id,
                              std::uint64_t seed, const fault::FaultSpec& fault, Tiers tiers,
                              radio::SimulatorScratch& scratch, Tracer& tracer,
                              LayerCounts& counts) {
  const Tracer::Scope job_span(tracer, "job", id);
  const engine::BatchJob job = [&] {
    const Tracer::Scope span(tracer, "workload", id);
    return sweep.source(id);
  }();
  counts.configs += 1;
  const config::Configuration& configuration = job.configuration;
  if (!job.protocol.classifies() || job.options.use_fast_classifier) {
    throw std::runtime_error("perfbench: replay supports canonical/classify with Classifier");
  }
  const radio::ChannelModel model = job.options.channel_model;
  const bool simulate = job.protocol.simulates();
  const std::shared_ptr<const core::CompiledConfiguration> compiled =
      compile(configuration, model, simulate, id, tiers, tracer, counts);

  engine::JobOutcome outcome;
  outcome.id = id;
  outcome.protocol = job.protocol;
  outcome.config_fingerprint = config::fingerprint(configuration);
  outcome.nodes = configuration.size();
  outcome.span = configuration.span();
  outcome.feasible = compiled->classification.feasible();
  outcome.classifier_iterations = compiled->classification.iterations;
  outcome.classifier_steps = compiled->classification.steps;
  if (!simulate) {
    outcome.disposition = core::Disposition::NotSimulated;
    outcome.valid = true;
    return outcome;
  }

  // Simulator settings exactly as the engine's execute_job and
  // run_protocol's canonical path derive them.
  const core::CanonicalSchedule& schedule = *compiled->schedule;
  radio::SimulatorOptions options = job.options.simulator;
  options.coin_seed = engine::job_coin_seed(seed, id);
  if (fault.active()) {
    options.fault = {fault, fault::job_fault_seed(seed, id)};
  }
  options.engine = radio::SimulatorEngine::Bitset;
  options.keep_histories = false;
  options.channel_model = schedule.model;
  const config::Tag max_tag =
      *std::max_element(configuration.tags().begin(), configuration.tags().end());
  const std::uint64_t horizon = max_tag + schedule.total_rounds() + 2 + fault.stagger;
  options.max_rounds =
      static_cast<config::Round>(std::max<std::uint64_t>(options.max_rounds, horizon));
  const core::CanonicalDrip drip(compiled->schedule, fault.active()
                                                         ? core::MismatchPolicy::Robust
                                                         : core::MismatchPolicy::Strict);
  radio::RunResult run;
  {
    const Tracer::Scope span(tracer, "simulate", id);
    run = radio::simulate(configuration, drip, options, scratch);
  }
  counts.node_rounds += run.stats.node_rounds;
  counts.global_rounds += run.rounds_executed;
  counts.transmissions += run.stats.transmissions;
  counts.injected_events += injected_events(run.stats);

  bool valid = run.all_terminated;
  for (const radio::NodeOutcome& node : run.nodes) {
    valid = valid && node.terminated && node.done_round == schedule.total_rounds() &&
            !node.forced_wake;
  }
  const std::vector<graph::NodeId> leaders = run.leaders();
  if (outcome.feasible) {
    valid = valid && leaders.size() == 1 && leaders.front() == compiled->classification.leader;
    if (leaders.size() == 1) {
      outcome.leader = leaders.front();
    }
  } else {
    valid = valid && leaders.empty();
  }
  outcome.simulated = true;
  outcome.valid = valid;
  if (!valid) {
    outcome.disposition = fault.active() && injected_events(run.stats) > 0
                              ? core::Disposition::DetectedFault
                              : core::Disposition::Failed;
  } else {
    outcome.disposition =
        outcome.feasible ? core::Disposition::Elected : core::Disposition::NoLeader;
  }
  outcome.local_rounds = schedule.total_rounds();
  outcome.global_rounds = run.rounds_executed;
  outcome.stats = run.stats;
  return outcome;
}

}  // namespace perfbench
