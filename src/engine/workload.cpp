#include "engine/workload.hpp"

#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "config/families.hpp"
#include "config/mutations.hpp"
#include "graph/generators.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"

namespace arl::engine {

namespace {

using support::check;
using support::ContractViolation;
using support::parse_number;
using support::parse_probability;
using support::shortest_double;

/// Registry-order kind tokens (the part of a name before ':').
constexpr support::KindTokens<WorkloadKind, 12> kKinds = {{
    {WorkloadKind::Random, "random"},
    {WorkloadKind::Exhaustive, "exhaustive"},
    {WorkloadKind::FamilyG, "family-g"},
    {WorkloadKind::FamilyH, "family-h"},
    {WorkloadKind::FamilyS, "family-s"},
    {WorkloadKind::Staggered, "staggered"},
    {WorkloadKind::Grid, "grid"},
    {WorkloadKind::Torus, "torus"},
    {WorkloadKind::Hypercube, "hypercube"},
    {WorkloadKind::Tree, "tree"},
    {WorkloadKind::SingleHop, "single-hop"},
    {WorkloadKind::Mutations, "mutations"},
}};

/// A fresh spec of `kind` with that kind's default parameters — the one
/// construction path shared by the factories and parse_workload, so
/// member-wise equality never sees two spellings of the same workload.
WorkloadSpec blank(WorkloadKind kind) {
  WorkloadSpec spec;
  spec.kind = kind;
  switch (kind) {
    case WorkloadKind::Exhaustive:
      spec.nodes = 4;
      break;
    case WorkloadKind::Tree:
      spec.nodes = 64;
      break;
    case WorkloadKind::SingleHop:
      spec.nodes = 32;
      break;
    default:
      break;
  }
  return spec;
}

/// Parameter bounds, enforced by parse_workload AND instantiate (a spec
/// built by hand gets the same validation the grammar applies).
void validate(const WorkloadSpec& spec) {
  const std::string at = std::string("workload '") + support::kind_token(kKinds, spec.kind) + "': ";
  check(spec.span <= 1'000'000, at + "sigma must be in [0, 1000000]");
  // Stretching tags to an exact positive span needs two nodes to stretch
  // between (config::random_tags_with_span's precondition) — reject at
  // parse time, not mid-batch inside a worker thread.
  const auto spannable = [&](std::uint64_t node_count) {
    check(spec.span == 0 || node_count >= 2, at + "a positive sigma needs at least 2 nodes");
  };
  switch (spec.kind) {
    case WorkloadKind::Random:
      check(spec.nodes >= 1 && spec.nodes <= 1'000'000, at + "n must be in [1, 1000000]");
      check(spec.edge_probability >= 0.0 && spec.edge_probability <= 1.0,
            at + "p must be in [0, 1]");
      if (spec.exact) {  // exact=0 draws uniform tags, legal on one node
        spannable(spec.nodes);
      }
      break;
    case WorkloadKind::Exhaustive:
      // The census is exponential in n (connected labelled graphs times the
      // (tau+1)^n tag odometer); beyond n = 6 a single shard is hopeless.
      check(spec.nodes >= 1 && spec.nodes <= 6, at + "n must be in [1, 6]");
      check(spec.max_tag <= 8, at + "tau must be in [0, 8]");
      break;
    case WorkloadKind::Grid:
      check(spec.rows >= 1 && spec.rows <= 1000, at + "rows must be in [1, 1000]");
      check(spec.cols >= 1 && spec.cols <= 1000, at + "cols must be in [1, 1000]");
      spannable(static_cast<std::uint64_t>(spec.rows) * spec.cols);
      break;
    case WorkloadKind::Torus:
      check(spec.rows >= 3 && spec.rows <= 1000, at + "rows must be in [3, 1000]");
      check(spec.cols >= 3 && spec.cols <= 1000, at + "cols must be in [3, 1000]");
      break;
    case WorkloadKind::Hypercube:
      check(spec.dimension >= 1 && spec.dimension <= 20, at + "d must be in [1, 20]");
      break;
    case WorkloadKind::Tree:
    case WorkloadKind::SingleHop:
      check(spec.nodes >= 1 && spec.nodes <= 1'000'000, at + "n must be in [1, 1000000]");
      spannable(spec.nodes);
      break;
    case WorkloadKind::Mutations:
      check(spec.base != nullptr, at + "needs a base workload (mutations:WORKLOAD)");
      check(spec.base->kind != WorkloadKind::Mutations,
            at + "base must not itself be a mutation neighbourhood");
      validate(*spec.base);
      break;
    default:
      break;
  }
}

bool parse_flag(const std::string& value, const std::string& what) {
  check(value == "0" || value == "1", what + " must be 0 or 1 (got '" + value + "')");
  return value == "1";
}

/// The m-offset of the §4 families (G_m starts at m = 2, H_m/S_m at m = 1).
config::Tag family_offset(WorkloadKind kind) {
  return kind == WorkloadKind::FamilyG ? 2 : 1;
}

/// The fixed-topology kinds' graph for one configuration index (`rng` is
/// that index's private stream; only Tree consumes it).
graph::Graph topology(const WorkloadSpec& spec, support::Rng& rng) {
  switch (spec.kind) {
    case WorkloadKind::Grid:
      return graph::grid(spec.rows, spec.cols);
    case WorkloadKind::Torus:
      return graph::torus(spec.rows, spec.cols);
    case WorkloadKind::Hypercube:
      return graph::hypercube(spec.dimension);
    case WorkloadKind::Tree:
      return graph::random_tree(spec.nodes, rng);
    case WorkloadKind::SingleHop:
      return graph::complete(spec.nodes);
    default:
      ARL_EXPECTS(false, "not a fixed-topology workload kind");
      return graph::Graph();
  }
}

/// Wraps a materialized job list as a shared lazy source, so sharding
/// treats every kind uniformly (a shard touches only its own job ids).
CountedSweep materialized_sweep(std::vector<BatchJob> materialized) {
  auto jobs = std::make_shared<const std::vector<BatchJob>>(std::move(materialized));
  CountedSweep sweep;
  sweep.count = static_cast<JobId>(jobs->size());
  sweep.source = [jobs](JobId id) { return (*jobs)[static_cast<std::size_t>(id)]; };
  return sweep;
}

/// The first `count` configurations of a spec's stream, materialized — the
/// base of a mutation neighbourhood.
std::vector<config::Configuration> materialize_configurations(const WorkloadSpec& spec,
                                                              std::uint64_t seed,
                                                              std::size_t count) {
  const CountedSweep sweep =
      spec.instantiate(seed, {core::ProtocolSpec::canonical()}, {.count = count});
  std::vector<config::Configuration> configurations;
  configurations.reserve(static_cast<std::size_t>(sweep.count));
  for (JobId id = 0; id < sweep.count; ++id) {
    configurations.push_back(sweep.source(id).configuration);
  }
  return configurations;
}

}  // namespace

WorkloadSpec WorkloadSpec::random(std::uint32_t n, double p, std::uint32_t sigma) {
  WorkloadSpec spec = blank(WorkloadKind::Random);
  spec.nodes = n;
  spec.edge_probability = p;
  spec.span = sigma;
  return spec;
}

WorkloadSpec WorkloadSpec::exhaustive(std::uint32_t n, std::uint32_t tau) {
  WorkloadSpec spec = blank(WorkloadKind::Exhaustive);
  spec.nodes = n;
  spec.max_tag = tau;
  return spec;
}

WorkloadSpec WorkloadSpec::family_g() {
  return blank(WorkloadKind::FamilyG);
}

WorkloadSpec WorkloadSpec::family_h() {
  return blank(WorkloadKind::FamilyH);
}

WorkloadSpec WorkloadSpec::family_s() {
  return blank(WorkloadKind::FamilyS);
}

WorkloadSpec WorkloadSpec::staggered() {
  return blank(WorkloadKind::Staggered);
}

WorkloadSpec WorkloadSpec::grid(std::uint32_t rows, std::uint32_t cols, std::uint32_t sigma) {
  WorkloadSpec spec = blank(WorkloadKind::Grid);
  spec.rows = rows;
  spec.cols = cols;
  spec.span = sigma;
  return spec;
}

WorkloadSpec WorkloadSpec::torus(std::uint32_t rows, std::uint32_t cols, std::uint32_t sigma) {
  WorkloadSpec spec = blank(WorkloadKind::Torus);
  spec.rows = rows;
  spec.cols = cols;
  spec.span = sigma;
  return spec;
}

WorkloadSpec WorkloadSpec::hypercube(std::uint32_t d, std::uint32_t sigma) {
  WorkloadSpec spec = blank(WorkloadKind::Hypercube);
  spec.dimension = d;
  spec.span = sigma;
  return spec;
}

WorkloadSpec WorkloadSpec::tree(std::uint32_t n, std::uint32_t sigma) {
  WorkloadSpec spec = blank(WorkloadKind::Tree);
  spec.nodes = n;
  spec.span = sigma;
  return spec;
}

WorkloadSpec WorkloadSpec::single_hop(std::uint32_t n, std::uint32_t sigma) {
  WorkloadSpec spec = blank(WorkloadKind::SingleHop);
  spec.nodes = n;
  spec.span = sigma;
  return spec;
}

WorkloadSpec WorkloadSpec::mutations(WorkloadSpec base) {
  WorkloadSpec spec = blank(WorkloadKind::Mutations);
  // The wrapper mirrors the base's execution identity so election_options()
  // and member-wise equality agree whichever level a caller inspects.
  spec.model = base.model;
  spec.base = std::make_shared<const WorkloadSpec>(std::move(base));
  return spec;
}

bool operator==(const WorkloadSpec& a, const WorkloadSpec& b) {
  const auto fields = [](const WorkloadSpec& w) {
    return std::tie(w.kind, w.nodes, w.rows, w.cols, w.dimension, w.span, w.max_tag,
                    w.edge_probability, w.exact, w.model);
  };
  if (fields(a) != fields(b) || (a.base == nullptr) != (b.base == nullptr)) {
    return false;
  }
  return a.base == nullptr || *a.base == *b.base;
}

std::string WorkloadSpec::name() const {
  if (kind == WorkloadKind::Mutations) {
    return std::string(support::kind_token(kKinds, kind)) + ":" + (base ? base->name() : "?");
  }
  std::vector<std::string> params;
  switch (kind) {
    case WorkloadKind::Random:
      params.push_back("n=" + std::to_string(nodes));
      params.push_back("p=" + shortest_double(edge_probability));
      params.push_back("sigma=" + std::to_string(span));
      if (!exact) {
        params.push_back("exact=0");
      }
      break;
    case WorkloadKind::Exhaustive:
      params.push_back("n=" + std::to_string(nodes));
      params.push_back("tau=" + std::to_string(max_tag));
      break;
    case WorkloadKind::Grid:
    case WorkloadKind::Torus:
      params.push_back("rows=" + std::to_string(rows));
      params.push_back("cols=" + std::to_string(cols));
      params.push_back("sigma=" + std::to_string(span));
      break;
    case WorkloadKind::Hypercube:
      params.push_back("d=" + std::to_string(dimension));
      params.push_back("sigma=" + std::to_string(span));
      break;
    case WorkloadKind::Tree:
    case WorkloadKind::SingleHop:
      params.push_back("n=" + std::to_string(nodes));
      params.push_back("sigma=" + std::to_string(span));
      break;
    default:  // the parameterless families
      break;
  }
  if (model == radio::ChannelModel::NoCollisionDetection) {
    params.push_back("model=nocd");
  }
  std::string out = support::kind_token(kKinds, kind);
  for (std::size_t i = 0; i < params.size(); ++i) {
    out += (i == 0 ? ':' : ',');
    out += params[i];
  }
  return out;
}

std::string WorkloadSpec::describe() const {
  switch (kind) {
    case WorkloadKind::Random:
      return "seeded connected G(n,p) with random span-sigma tags";
    case WorkloadKind::Exhaustive:
      return "every connected n-node configuration with tags in [0, tau] (self-counting)";
    case WorkloadKind::FamilyG:
      return "the paper's Prop. 4.1 paths G_m, m = 2, 3, ...";
    case WorkloadKind::FamilyH:
      return "the paper's Lemma 4.2 paths H_m, m = 1, 2, ...";
    case WorkloadKind::FamilyS:
      return "the paper's infeasible Prop. 4.5 paths S_m, m = 1, 2, ...";
    case WorkloadKind::Staggered:
      return "staggered paths n = 2, 3, ... (maximally asymmetric wakeup)";
    case WorkloadKind::Grid:
      return "rows x cols mesh with random span-sigma tags";
    case WorkloadKind::Torus:
      return "rows x cols wrap-around mesh with random span-sigma tags";
    case WorkloadKind::Hypercube:
      return "d-dimensional hypercube (2^d nodes) with random span-sigma tags";
    case WorkloadKind::Tree:
      return "uniformly random n-node tree with random span-sigma tags";
    case WorkloadKind::SingleHop:
      return "complete graph (single-hop network) with random span-sigma tags";
    case WorkloadKind::Mutations:
      return "every single-tag mutation of each base configuration (self-counting "
             "with a self-counting base)";
  }
  return "?";
}

std::uint64_t WorkloadSpec::digest() const {
  // Same domain seed as dist::sweep_digest, so the digest a spec computes is
  // exactly the digest shard reports carry over its name (asserted by
  // tests/test_dist.cpp).
  return support::hash_text(name(), /*seed=*/0xD157);
}

bool WorkloadSpec::bounded() const {
  if (kind == WorkloadKind::Exhaustive) {
    return true;
  }
  return kind == WorkloadKind::Mutations && base != nullptr && base->bounded();
}

core::ElectionOptions WorkloadSpec::election_options() const {
  if (kind == WorkloadKind::Mutations && base != nullptr) {
    return base->election_options();
  }
  core::ElectionOptions options;
  options.channel_model = model;
  return options;
}

CountedSweep WorkloadSpec::instantiate(std::uint64_t seed,
                                       std::vector<core::ProtocolSpec> protocols,
                                       const InstantiateOptions& run) const {
  validate(*this);
  ARL_EXPECTS(!protocols.empty(), "a workload needs at least one protocol");
  const core::ElectionOptions options = election_options();
  const auto cross = static_cast<JobId>(protocols.size());
  const auto crossed_count = [&](JobId configurations) {
    ARL_EXPECTS(configurations <= std::numeric_limits<JobId>::max() / cross,
                "protocol cross product overflows the job-id space");
    return configurations * cross;
  };

  switch (kind) {
    case WorkloadKind::Random: {
      RandomSweep sweep;
      sweep.nodes = nodes;
      sweep.edge_probability = edge_probability;
      sweep.span = span;
      sweep.exact_span = exact;
      sweep.seed = sweep_configuration_seed(seed);
      sweep.protocols = std::move(protocols);
      sweep.options = options;
      return {crossed_count(run.count), random_jobs(std::move(sweep))};
    }

    case WorkloadKind::Grid:
    case WorkloadKind::Torus:
    case WorkloadKind::Hypercube:
    case WorkloadKind::Tree:
    case WorkloadKind::SingleHop: {
      // Same stream discipline as random_jobs: configuration i / P is a pure
      // function of (configuration seed, i / P), protocols consecutive per
      // configuration, so any prefix or shard reproduces on any thread count.
      const std::uint64_t configuration_seed = sweep_configuration_seed(seed);
      auto shared_protocols =
          std::make_shared<const std::vector<core::ProtocolSpec>>(std::move(protocols));
      CountedSweep sweep;
      sweep.count = crossed_count(run.count);
      sweep.source = [spec = *this, configuration_seed, shared_protocols, options](JobId id) {
        const auto count = static_cast<JobId>(shared_protocols->size());
        support::Rng rng = support::Rng(configuration_seed).split(id / count);
        graph::Graph graph = topology(spec, rng);
        config::Configuration configuration =
            config::random_tags_with_span(std::move(graph), spec.span, rng);
        return BatchJob{std::move(configuration),
                        (*shared_protocols)[static_cast<std::size_t>(id % count)], options};
      };
      return sweep;
    }

    case WorkloadKind::FamilyG:
    case WorkloadKind::FamilyH:
    case WorkloadKind::FamilyS: {
      std::vector<config::Configuration> configurations;
      configurations.reserve(run.count);
      for (std::size_t i = 0; i < run.count; ++i) {
        const auto m = static_cast<config::Tag>(i + family_offset(kind));
        configurations.push_back(kind == WorkloadKind::FamilyG   ? config::family_g(m)
                                 : kind == WorkloadKind::FamilyH ? config::family_h(m)
                                                                 : config::family_s(m));
      }
      return materialized_sweep(cross_jobs(std::move(configurations), protocols, options));
    }

    case WorkloadKind::Staggered: {
      std::vector<config::Configuration> configurations;
      configurations.reserve(run.count);
      for (std::size_t i = 0; i < run.count; ++i) {
        configurations.push_back(config::staggered_path(2 + static_cast<graph::NodeId>(i)));
      }
      return materialized_sweep(cross_jobs(std::move(configurations), protocols, options));
    }

    case WorkloadKind::Exhaustive:
      return cross_protocols(
          exhaustive_sweep(nodes, max_tag, core::ProtocolSpec::canonical(), options),
          std::move(protocols));

    case WorkloadKind::Mutations: {
      std::vector<config::Configuration> mutated;
      for (const config::Configuration& configuration :
           materialize_configurations(*base, seed, run.count)) {
        for (config::Configuration& neighbour :
             config::all_tag_mutations(configuration, configuration.span())) {
          mutated.push_back(std::move(neighbour));
        }
      }
      return materialized_sweep(cross_jobs(std::move(mutated), protocols, options));
    }
  }
  ARL_EXPECTS(false, "unreachable workload kind");
  return {};
}

const std::vector<WorkloadSpec>& registered_workloads() {
  static const std::vector<WorkloadSpec> registry = {
      WorkloadSpec::random(),
      WorkloadSpec::exhaustive(),
      WorkloadSpec::family_g(),
      WorkloadSpec::family_h(),
      WorkloadSpec::family_s(),
      WorkloadSpec::staggered(),
      WorkloadSpec::grid(),
      WorkloadSpec::torus(),
      WorkloadSpec::hypercube(),
      WorkloadSpec::tree(),
      WorkloadSpec::single_hop(),
      WorkloadSpec::mutations(WorkloadSpec::random()),
  };
  return registry;
}

std::string workload_names() {
  return "random[:n=N,p=X,sigma=S,exact=0], exhaustive[:n=N,tau=T], family-g, family-h, "
         "family-s, staggered, grid[:rows=R,cols=C,sigma=S], torus[:rows=R,cols=C,sigma=S], "
         "hypercube[:d=D,sigma=S], tree[:n=N,sigma=S], single-hop[:n=N,sigma=S], "
         "mutations:WORKLOAD; every kind also takes model=cd|nocd";
}

WorkloadSpec parse_workload(std::string_view text) {
  const std::size_t colon = text.find(':');
  const std::string token(text.substr(0, colon));
  const std::optional<WorkloadKind> found = support::find_kind(kKinds, token);
  if (!found) {
    throw ContractViolation("unknown workload '" + std::string(text) +
                            "' (registered: " + workload_names() + ")");
  }
  const WorkloadKind kind = *found;

  if (kind == WorkloadKind::Mutations) {
    if (colon == std::string_view::npos || colon + 1 >= text.size()) {
      throw ContractViolation("workload 'mutations' needs a base: mutations:WORKLOAD "
                              "(registered: " +
                              workload_names() + ")");
    }
    WorkloadSpec spec = WorkloadSpec::mutations(parse_workload(text.substr(colon + 1)));
    validate(spec);
    return spec;
  }

  WorkloadSpec spec = blank(kind);
  if (colon == std::string_view::npos) {
    validate(spec);
    return spec;
  }

  std::vector<std::string> seen_keys;
  std::string_view rest = text.substr(colon + 1);
  while (true) {
    const std::size_t comma = rest.find(',');
    const std::string param(rest.substr(0, comma));
    const std::size_t equals = param.find('=');
    if (param.empty() || equals == 0 || equals == std::string::npos ||
        equals + 1 >= param.size()) {
      throw ContractViolation("workload '" + token + "': malformed parameter '" + param +
                              "' (want key=value)");
    }
    const std::string key = param.substr(0, equals);
    const std::string value = param.substr(equals + 1);
    for (const std::string& earlier : seen_keys) {
      if (earlier == key) {
        throw ContractViolation("workload '" + token + "': duplicate parameter '" + key + "'");
      }
    }
    seen_keys.push_back(key);

    const std::string at = "workload '" + token + "': " + key;
    const auto accepts = [&](std::initializer_list<WorkloadKind> kinds) {
      for (const WorkloadKind k : kinds) {
        if (k == kind) {
          return true;
        }
      }
      return false;
    };
    if (key == "model") {
      if (value == "cd") {
        spec.model = radio::ChannelModel::CollisionDetection;
      } else if (value == "nocd") {
        spec.model = radio::ChannelModel::NoCollisionDetection;
      } else {
        throw ContractViolation(at + " must be cd or nocd (got '" + value + "')");
      }
    } else if (key == "n" && accepts({WorkloadKind::Random, WorkloadKind::Exhaustive,
                                      WorkloadKind::Tree, WorkloadKind::SingleHop})) {
      spec.nodes = parse_number(value, at);
    } else if (key == "p" && accepts({WorkloadKind::Random})) {
      spec.edge_probability = parse_probability(value, at);
    } else if (key == "sigma" &&
               accepts({WorkloadKind::Random, WorkloadKind::Grid, WorkloadKind::Torus,
                        WorkloadKind::Hypercube, WorkloadKind::Tree,
                        WorkloadKind::SingleHop})) {
      spec.span = parse_number(value, at);
    } else if (key == "exact" && accepts({WorkloadKind::Random})) {
      spec.exact = parse_flag(value, at);
    } else if (key == "tau" && accepts({WorkloadKind::Exhaustive})) {
      spec.max_tag = parse_number(value, at);
    } else if ((key == "rows" || key == "cols") &&
               accepts({WorkloadKind::Grid, WorkloadKind::Torus})) {
      (key == "rows" ? spec.rows : spec.cols) = parse_number(value, at);
    } else if (key == "d" && accepts({WorkloadKind::Hypercube})) {
      spec.dimension = parse_number(value, at);
    } else {
      throw ContractViolation("workload '" + token + "': unknown parameter '" + key + "'");
    }

    if (comma == std::string_view::npos) {
      break;
    }
    rest = rest.substr(comma + 1);
  }
  validate(spec);
  return spec;
}

}  // namespace arl::engine
