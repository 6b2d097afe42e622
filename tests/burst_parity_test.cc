// Golden byte-parity suite for the batched-burst hot path.
//
// The burst-drain port/delay-line events are a pure data-plane refactor:
// with lanes off, every simulated result must be byte-identical to the
// legacy one-closure-per-packet scheme. This suite pins that across
// all three topologies x {ECN#, DCTCP-tail, CoDel} under a churn scenario
// (loss injection, an incast burst, a link flap with purge, and an ECN#
// re-estimate) by running each experiment twice — burst mode and legacy
// mode — and comparing the full serialized result JSON byte for byte. A
// second script shifts host extra-egress delays mid-run, pinning the host
// delay queue against the legacy per-packet closures.
//
// If one of these tests fails, the burst path stopped reserving order
// stamps at the legacy scheduling points; see net/egress_port.h.
#include <string>

#include <gtest/gtest.h>

#include "harness/config_json.h"
#include "harness/experiment.h"
#include "net/event_mode.h"
#include "sim/time.h"

namespace ecnsharp {
namespace {

// Topology-agnostic churn: target -1 is the primary bottleneck everywhere,
// and the incast burst converges on each topology's IncastTarget.
ScenarioScript ChurnScript() {
  ScenarioScript script;
  script.seed = 33;

  ScenarioAction loss;
  loss.kind = ScenarioActionKind::kInjectLoss;
  loss.at = Time::Milliseconds(1);
  loss.target = -1;
  loss.drop_prob = 0.03;
  loss.corrupt_prob = 0.01;
  script.actions.push_back(loss);

  ScenarioAction burst;
  burst.kind = ScenarioActionKind::kIncastBurst;
  burst.at = Time::Milliseconds(2);
  burst.flows = 6;
  burst.bytes = 15000;
  script.actions.push_back(burst);

  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::Milliseconds(3);
  down.target = -1;
  down.drop_queued = true;
  script.actions.push_back(down);

  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = Time::Milliseconds(3) + Time::FromMicroseconds(150);
  script.actions.push_back(up);

  ScenarioAction reest;
  reest.kind = ScenarioActionKind::kReestimateEcnSharp;
  reest.at = Time::Milliseconds(4);
  script.actions.push_back(reest);
  return script;
}

// Host extra-egress delay shifts while packets are held in the delay. An
// incast burst keeps the first senders busy while each one's delay takes a
// jittered random walk (lengthenings, and shortenings that let new packets
// overtake delayed ones), and sender 0 drops to zero delay (the direct
// path) for a while. Packets already delayed keep their delay in both
// modes.
ScenarioScript HostDelayShiftScript() {
  ScenarioScript script;
  script.seed = 71;

  ScenarioAction burst;
  burst.kind = ScenarioActionKind::kIncastBurst;
  burst.at = Time::Milliseconds(1);
  burst.flows = 8;
  burst.bytes = 200'000;
  script.actions.push_back(burst);

  for (int target = 0; target < 4; ++target) {
    ScenarioAction walk;
    walk.kind = ScenarioActionKind::kSetHostDelay;
    walk.at = Time::Milliseconds(1) + Time::FromMicroseconds(20 * target);
    walk.target = target;
    walk.delay_us = 0.0;
    walk.delay_hi_us = 150.0;
    walk.repeat = 40;
    walk.period = Time::FromMicroseconds(60);
    walk.jitter = Time::FromMicroseconds(20);
    script.actions.push_back(walk);
  }

  ScenarioAction off;
  off.kind = ScenarioActionKind::kSetHostDelay;
  off.at = Time::FromMicroseconds(1530);
  off.target = 0;
  off.delay_us = 0.0;
  script.actions.push_back(off);
  return script;
}

// Runs `fn` (an experiment returning ExperimentResult) in both event modes
// and returns the two serialized results.
template <typename Fn>
std::pair<std::string, std::string> RunBothModes(Fn fn) {
  LegacyPerPacketEvents() = false;
  const std::string burst = ToJson(fn()).Dump();
  LegacyPerPacketEvents() = true;
  const std::string legacy = ToJson(fn()).Dump();
  LegacyPerPacketEvents() = false;
  return {burst, legacy};
}

class BurstParityTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(BurstParityTest, DumbbellChurnByteIdentical) {
  const auto run = [] {
    DumbbellExperimentConfig config;
    config.scheme = BurstParityTest::GetParam();
    config.flows = 60;
    config.seed = 11;
    config.scenario = ChurnScript();
    return RunDumbbell(config);
  };
  const auto [burst, legacy] = RunBothModes(run);
  EXPECT_EQ(burst, legacy);
}

TEST_P(BurstParityTest, LeafSpineChurnByteIdentical) {
  const auto run = [] {
    LeafSpineExperimentConfig config;
    config.scheme = BurstParityTest::GetParam();
    config.topo.spines = 2;
    config.topo.leaves = 2;
    config.topo.hosts_per_leaf = 4;
    config.flows = 60;
    config.seed = 11;
    config.scenario = ChurnScript();
    return RunLeafSpine(config);
  };
  const auto [burst, legacy] = RunBothModes(run);
  EXPECT_EQ(burst, legacy);
}

TEST_P(BurstParityTest, FatTreeChurnByteIdentical) {
  const auto run = [] {
    FatTreeExperimentConfig config;
    config.scheme = BurstParityTest::GetParam();
    config.topo.k = 4;
    config.flows = 60;
    config.seed = 11;
    config.scenario = ChurnScript();
    return RunFatTree(config);
  };
  const auto [burst, legacy] = RunBothModes(run);
  EXPECT_EQ(burst, legacy);
}

TEST_P(BurstParityTest, DumbbellHostDelayShiftByteIdentical) {
  const auto run = [] {
    DumbbellExperimentConfig config;
    config.scheme = BurstParityTest::GetParam();
    config.flows = 80;
    config.seed = 13;
    config.scenario = HostDelayShiftScript();
    return RunDumbbell(config);
  };
  const auto [burst, legacy] = RunBothModes(run);
  EXPECT_EQ(burst, legacy);
}

TEST_P(BurstParityTest, FatTreeHostDelayShiftByteIdentical) {
  const auto run = [] {
    FatTreeExperimentConfig config;
    config.scheme = BurstParityTest::GetParam();
    config.topo.k = 4;
    config.flows = 80;
    config.seed = 13;
    config.scenario = HostDelayShiftScript();
    return RunFatTree(config);
  };
  const auto [burst, legacy] = RunBothModes(run);
  EXPECT_EQ(burst, legacy);
}

INSTANTIATE_TEST_SUITE_P(Schemes, BurstParityTest,
                         ::testing::Values(Scheme::kEcnSharp,
                                           Scheme::kDctcpRedTail,
                                           Scheme::kCodel),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           switch (info.param) {
                             case Scheme::kEcnSharp:
                               return std::string("EcnSharp");
                             case Scheme::kDctcpRedTail:
                               return std::string("DctcpTail");
                             default:
                               return std::string("Codel");
                           }
                         });

}  // namespace
}  // namespace ecnsharp
