/// \file test_workload.cpp
/// The workload registry's contract (engine/workload.hpp): names round-trip
/// through parse_workload for every registered spec and every grammar
/// variant, digests are canonical and collision-free across the registry,
/// and instantiate() produces deterministic job streams with the documented
/// cross-product order — for the paper families, the random sweeps and
/// every generator topology alike.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "config/families.hpp"
#include "config/fingerprint.hpp"
#include "config/mutations.hpp"
#include "engine/workload.hpp"
#include "graph/generators.hpp"
#include "support/assert.hpp"

namespace {

using namespace arl;

// ------------------------------------------------------------ name round trip

TEST(WorkloadRegistry, EveryRegisteredSpecRoundTripsThroughParse) {
  ASSERT_FALSE(engine::registered_workloads().empty());
  for (const engine::WorkloadSpec& spec : engine::registered_workloads()) {
    EXPECT_EQ(engine::parse_workload(spec.name()), spec) << spec.name();
    // The name is canonical: re-parsing and re-printing is a fixed point.
    EXPECT_EQ(engine::parse_workload(spec.name()).name(), spec.name());
  }
}

TEST(WorkloadRegistry, VariantSpecsRoundTripThroughParse) {
  const char* variants[] = {
      "random:n=5,p=0.75,sigma=0",
      "random:n=1,p=1,sigma=0",        // one node is fine without a span...
      "random:n=1,p=1,sigma=3,exact=0",  // ...or with uniform (inexact) tags
      "grid:rows=1,cols=2,sigma=1",
      "single-hop:n=1,sigma=0",
      "random:n=5,p=0.125,sigma=2,exact=0",
      "random:n=9,p=1,sigma=4,model=nocd",
      "exhaustive:n=3,tau=1",
      "exhaustive:n=2,tau=0",
      "family-g",
      "family-h:model=nocd",
      "family-s",
      "staggered:model=nocd",
      "grid:rows=2,cols=5,sigma=1",
      "torus:rows=3,cols=4,sigma=2",
      "hypercube:d=3,sigma=2",
      "tree:n=17,sigma=2",
      "single-hop:n=6,sigma=5",
      "mutations:family-h",
      "mutations:grid:rows=2,cols=2,sigma=1",
      "mutations:random:n=5,p=0.5,sigma=2,model=nocd",
  };
  for (const char* text : variants) {
    const engine::WorkloadSpec spec = engine::parse_workload(text);
    EXPECT_EQ(engine::parse_workload(spec.name()), spec) << text;
  }
}

TEST(WorkloadRegistry, ParseNormalizesToCanonicalNames) {
  // Partial and reordered parameters parse, and name() prints the one
  // canonical spelling (full parameter list, fixed order).
  EXPECT_EQ(engine::parse_workload("random").name(), "random:n=16,p=0.3,sigma=3");
  EXPECT_EQ(engine::parse_workload("random:sigma=5").name(), "random:n=16,p=0.3,sigma=5");
  EXPECT_EQ(engine::parse_workload("random:sigma=5,n=4").name(), "random:n=4,p=0.3,sigma=5");
  EXPECT_EQ(engine::parse_workload("grid").name(), "grid:rows=8,cols=8,sigma=3");
  EXPECT_EQ(engine::parse_workload("tree").name(), "tree:n=64,sigma=3");
  EXPECT_EQ(engine::parse_workload("single-hop").name(), "single-hop:n=32,sigma=3");
  EXPECT_EQ(engine::parse_workload("hypercube:model=cd").name(), "hypercube:d=6,sigma=3");
  EXPECT_EQ(engine::parse_workload("mutations:staggered").name(), "mutations:staggered");
}

TEST(WorkloadRegistry, FactoriesMatchParsedSpellings) {
  EXPECT_EQ(engine::WorkloadSpec::random(8, 0.5, 2),
            engine::parse_workload("random:n=8,p=0.5,sigma=2"));
  EXPECT_EQ(engine::WorkloadSpec::exhaustive(3, 1),
            engine::parse_workload("exhaustive:n=3,tau=1"));
  EXPECT_EQ(engine::WorkloadSpec::grid(2, 3, 1),
            engine::parse_workload("grid:rows=2,cols=3,sigma=1"));
  EXPECT_EQ(engine::WorkloadSpec::mutations(engine::WorkloadSpec::family_h()),
            engine::parse_workload("mutations:family-h"));
}

TEST(WorkloadRegistry, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",
      "bogus",
      "random:",
      "random:n",
      "random:n=",
      "random:=4",
      "random:n=4,",
      "random:n=4,n=5",       // duplicate key
      "random:rows=4",        // key of another kind
      "random:n=0",           // below range
      "random:n=1",           // exact positive span needs 2 nodes to stretch
      "tree:n=1",
      "single-hop:n=1,sigma=3",
      "grid:rows=1,cols=1",
      "random:n=x",
      "random:p=2",           // out of [0, 1]
      "random:p=0.5.5",
      "random:exact=2",
      "random:model=maybe",
      "exhaustive:n=7",       // census blows up past n = 6
      "exhaustive:tau=9",
      "grid:rows=0",
      "grid:rows=1001",
      "torus:rows=2,cols=3",  // torus needs rows >= 3
      "hypercube:d=0",
      "hypercube:d=21",
      "mutations",            // no base
      "mutations:",
      "mutations:bogus",
      "mutations:mutations:family-h",  // no nested neighbourhoods
      "Random",               // registry keys are exact
      "random :n=4",
      // There is one classifier: the retired classifier-choice key is unknown.
      "random:n=9,p=1,sigma=4,model=nocd,fast=1",
      "exhaustive:n=2,tau=0,fast=1",
      "family-s:fast=1",
      "staggered:model=nocd,fast=1",
      "random:fast=0",
      "mutations:family-h:fast=1",
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)engine::parse_workload(text), support::ContractViolation) << text;
  }
}

TEST(WorkloadRegistry, UnknownKindErrorListsTheRegistry) {
  try {
    (void)engine::parse_workload("bogus");
    FAIL() << "expected ContractViolation";
  } catch (const support::ContractViolation& error) {
    const std::string what = error.what();
    for (const engine::WorkloadSpec& spec : engine::registered_workloads()) {
      const std::string token = spec.name().substr(0, spec.name().find(':'));
      EXPECT_NE(what.find(token), std::string::npos) << "error should list " << token;
    }
  }
}

// ------------------------------------------------------------------- digests

TEST(WorkloadRegistry, RegisteredDigestsAreDistinctAndStable) {
  std::set<std::uint64_t> digests;
  for (const engine::WorkloadSpec& spec : engine::registered_workloads()) {
    EXPECT_TRUE(digests.insert(spec.digest()).second)
        << spec.name() << " shares a digest with another registered workload";
    // Digest is a pure function of the spec, not the object identity.
    EXPECT_EQ(engine::parse_workload(spec.name()).digest(), spec.digest());
  }
}

TEST(WorkloadRegistry, ExecutionIdentityChangesTheDigest) {
  // The channel model is workload identity: sweeps that classify
  // differently must never share a sweep digest (merge hangs on it).
  const engine::WorkloadSpec base = engine::parse_workload("random:n=8,p=0.3,sigma=2");
  const engine::WorkloadSpec nocd = engine::parse_workload("random:n=8,p=0.3,sigma=2,model=nocd");
  EXPECT_NE(base.digest(), nocd.digest());
}

// --------------------------------------------------------------- bounded()

TEST(WorkloadRegistry, BoundedKindsAreExactlyTheSelfCountingOnes) {
  EXPECT_TRUE(engine::parse_workload("exhaustive:n=3,tau=1").bounded());
  EXPECT_TRUE(engine::parse_workload("mutations:exhaustive:n=2,tau=1").bounded());
  EXPECT_FALSE(engine::parse_workload("random").bounded());
  EXPECT_FALSE(engine::parse_workload("grid").bounded());
  EXPECT_FALSE(engine::parse_workload("mutations:family-h").bounded());
}

// ------------------------------------------------------------- instantiate

engine::CountedSweep instantiate(const std::string& text, std::uint64_t seed,
                                 std::vector<core::ProtocolSpec> protocols,
                                 std::size_t count) {
  return engine::parse_workload(text).instantiate(seed, std::move(protocols), {.count = count});
}

TEST(WorkloadInstantiate, CrossProductOrderIsProtocolsConsecutivePerConfiguration) {
  const std::vector<core::ProtocolSpec> protocols = {core::ProtocolSpec::canonical(),
                                                     core::ProtocolSpec::classify_only(),
                                                     core::ProtocolSpec::binary_search()};
  for (const char* text : {"random:n=6,p=0.4,sigma=2", "grid:rows=2,cols=3,sigma=1",
                           "staggered", "family-h"}) {
    const engine::CountedSweep sweep = instantiate(text, 7, protocols, 4);
    ASSERT_EQ(sweep.count, 4u * protocols.size()) << text;
    for (engine::JobId id = 0; id < sweep.count; ++id) {
      const engine::BatchJob job = sweep.source(id);
      EXPECT_EQ(job.protocol, protocols[static_cast<std::size_t>(id % protocols.size())])
          << text << " job " << id;
      // The P jobs of one configuration are consecutive and identical.
      if (id % protocols.size() != 0) {
        EXPECT_EQ(config::fingerprint(job.configuration),
                  config::fingerprint(sweep.source(id - 1).configuration))
            << text << " job " << id;
      }
    }
  }
}

TEST(WorkloadInstantiate, JobStreamIsAPureFunctionOfSpecAndSeed) {
  for (const char* text : {"random:n=8,p=0.3,sigma=3", "tree:n=9,sigma=2",
                           "torus:rows=3,cols=3,sigma=1", "hypercube:d=3,sigma=2",
                           "single-hop:n=5,sigma=2", "mutations:family-s"}) {
    const engine::CountedSweep first =
        instantiate(text, 11, {core::ProtocolSpec::canonical()}, 3);
    const engine::CountedSweep second =
        instantiate(text, 11, {core::ProtocolSpec::canonical()}, 3);
    ASSERT_EQ(first.count, second.count) << text;
    ASSERT_GT(first.count, 0u) << text;
    bool seed_matters = false;
    const engine::CountedSweep other =
        instantiate(text, 12, {core::ProtocolSpec::canonical()}, 3);
    for (engine::JobId id = 0; id < first.count; ++id) {
      EXPECT_EQ(config::fingerprint(first.source(id).configuration),
                config::fingerprint(second.source(id).configuration))
          << text << " job " << id;
      seed_matters = seed_matters || config::fingerprint(first.source(id).configuration) !=
                                         config::fingerprint(other.source(id).configuration);
    }
    // The seeded kinds must actually consume the seed (the materialized
    // families legitimately do not).
    if (std::string(text).rfind("mutations", 0) != 0) {
      EXPECT_TRUE(seed_matters) << text << " ignored its seed";
    }
  }
}

TEST(WorkloadInstantiate, TopologyWorkloadsBuildTheirDeclaredShapes) {
  const struct {
    const char* text;
    graph::NodeId nodes;
    std::size_t edges;
  } cases[] = {
      {"grid:rows=3,cols=4,sigma=2", 12, 17},      // 3*(4-1) + 4*(3-1)
      {"torus:rows=3,cols=4,sigma=2", 12, 24},     // 2 * rows * cols
      {"hypercube:d=3,sigma=2", 8, 12},            // d * 2^(d-1)
      {"single-hop:n=6,sigma=2", 6, 15},           // n(n-1)/2
      {"tree:n=9,sigma=2", 9, 8},                  // n - 1
  };
  for (const auto& expected : cases) {
    const engine::CountedSweep sweep =
        instantiate(expected.text, 5, {core::ProtocolSpec::canonical()}, 2);
    for (engine::JobId id = 0; id < sweep.count; ++id) {
      const config::Configuration configuration = sweep.source(id).configuration;
      EXPECT_EQ(configuration.size(), expected.nodes) << expected.text;
      EXPECT_EQ(configuration.graph().edge_count(), expected.edges) << expected.text;
      EXPECT_EQ(configuration.span(), 2u) << expected.text;
    }
  }
}

TEST(WorkloadInstantiate, ExhaustiveCountIsImpliedAndCrossesProtocols) {
  // n=3, tau=1: 4 connected labelled graphs on 3 nodes x 2^3 tag vectors.
  const engine::CountedSweep sweep =
      instantiate("exhaustive:n=3,tau=1", 0,
                  {core::ProtocolSpec::classify_only(), core::ProtocolSpec::canonical()}, 999);
  EXPECT_EQ(sweep.count, 4u * 8u * 2u);
  EXPECT_EQ(sweep.source(0).protocol, core::ProtocolSpec::classify_only());
  EXPECT_EQ(sweep.source(1).protocol, core::ProtocolSpec::canonical());
}

TEST(WorkloadInstantiate, MutationsEnumerateEveryTagNeighbourOfTheBase) {
  // Base family-h with count 2 -> H_1, H_2; the neighbourhood is exactly
  // all_tag_mutations of each, in base order.
  const engine::CountedSweep sweep =
      instantiate("mutations:family-h", 0, {core::ProtocolSpec::classify_only()}, 2);
  std::vector<config::Configuration> expected;
  for (const config::Tag m : {1u, 2u}) {
    for (config::Configuration& mutation :
         config::all_tag_mutations(config::family_h(m), config::family_h(m).span())) {
      expected.push_back(std::move(mutation));
    }
  }
  ASSERT_EQ(sweep.count, expected.size());
  for (engine::JobId id = 0; id < sweep.count; ++id) {
    EXPECT_EQ(sweep.source(id).configuration, expected[static_cast<std::size_t>(id)])
        << "mutation " << id;
  }
}

TEST(WorkloadInstantiate, ElectionOptionsFollowTheSpecIdentity) {
  const engine::CountedSweep plain =
      instantiate("grid:rows=2,cols=2,sigma=1", 1, {core::ProtocolSpec::canonical()}, 1);
  EXPECT_EQ(plain.source(0).options.channel_model, radio::ChannelModel::CollisionDetection);

  const engine::CountedSweep tuned = instantiate("grid:rows=2,cols=2,sigma=1,model=nocd", 1,
                                                 {core::ProtocolSpec::canonical()}, 1);
  EXPECT_EQ(tuned.source(0).options.channel_model, radio::ChannelModel::NoCollisionDetection);

  // The mutations wrapper mirrors its base's execution identity.
  const engine::WorkloadSpec wrapped = engine::parse_workload("mutations:family-h:model=nocd");
  EXPECT_EQ(wrapped.election_options().channel_model, radio::ChannelModel::NoCollisionDetection);
}

TEST(WorkloadInstantiate, RejectsHandBuiltOutOfRangeSpecs) {
  engine::WorkloadSpec spec = engine::WorkloadSpec::grid(0, 4, 1);
  EXPECT_THROW((void)spec.instantiate(1, {core::ProtocolSpec::canonical()}, {.count = 1}),
               support::ContractViolation);
  engine::WorkloadSpec torus = engine::WorkloadSpec::torus(2, 3, 1);
  EXPECT_THROW((void)torus.instantiate(1, {core::ProtocolSpec::canonical()}, {.count = 1}),
               support::ContractViolation);
}

}  // namespace
