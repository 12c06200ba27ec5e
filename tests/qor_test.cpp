/// Tests for gap::qor: exact factor-bucket partition, gap-score
/// composition against core::decompose, snapshot capture, and manifest
/// writing. gapstat's reading of manifests is tested in obs_test.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/flow.hpp"
#include "core/gap.hpp"
#include "designs/registry.hpp"
#include "json_lint.hpp"
#include "qor/attribution.hpp"
#include "qor/manifest.hpp"
#include "qor/snapshot.hpp"
#include "tech/technology.hpp"
#include "tiny_manifest.hpp"

namespace gap::qor {
namespace {

sta::StaOptions sta_options_for(const core::Methodology& m) {
  sta::StaOptions so;
  so.corner_delay_factor = m.corner.delay_factor;
  so.clock.skew_fraction = m.skew_fraction;
  so.optimal_repeaters = m.optimal_repeaters;
  return so;
}

RunContext context_for(const core::Methodology& m) {
  RunContext ctx;
  ctx.skew_fraction = m.skew_fraction;
  ctx.pipeline_stages = m.pipeline_stages;
  ctx.corner_delay_factor = m.corner.delay_factor;
  ctx.dynamic_logic = m.dynamic_logic;
  ctx.methodology_name = m.name;
  ctx.corner_name = m.corner.name;
  return ctx;
}

core::FlowResult run_flow(const core::Flow& flow, const core::Methodology& m,
                          const std::string& design = "alu16") {
  return flow.run(designs::make_design(design, m.datapath), m);
}

/// Every extracted path's five buckets must sum to its delay exactly
/// (the process bucket is the residual by construction) and the worst
/// path must agree with analyze().
void expect_exact_partition(const core::Flow& flow,
                            const core::Methodology& m) {
  const core::FlowResult r = run_flow(flow, m);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r.nl, nullptr);
  const sta::StaOptions so = sta_options_for(m);
  const auto paths = sta::top_critical_paths(*r.nl, so, 5);
  ASSERT_FALSE(paths.empty());
  EXPECT_NEAR(paths.front().path_tau, r.timing.worst_path_tau,
              1e-6 * r.timing.worst_path_tau);
  for (const sta::CriticalPath& p : paths) {
    const PathAttribution a = attribute_path(*r.nl, p, so);
    EXPECT_GT(a.delay_tau, 0.0);
    EXPECT_NEAR(a.bucket_sum(), a.delay_tau, 1e-9 * a.delay_tau) << m.name;
    EXPECT_GT(a.logic_depth_tau, 0.0);
    EXPECT_GE(a.gates, 1u);
  }
}

TEST(AttributionTest, BucketsSumExactlyTypicalAsic) {
  core::Flow flow(tech::asic_025um());
  expect_exact_partition(flow, core::typical_asic());
}

TEST(AttributionTest, BucketsSumExactlyWorstCorner) {
  core::Flow flow(tech::asic_025um());
  core::Methodology m = core::typical_asic();
  m.corner = tech::corner_worst_case();
  expect_exact_partition(flow, m);
}

TEST(AttributionTest, BucketsSumExactlyFullCustom) {
  core::Flow flow(tech::asic_025um());
  expect_exact_partition(flow, core::full_custom());
}

TEST(AttributionTest, ProcessMarginIsCornerResidual) {
  // The corner multiplies every path piece uniformly, so the process
  // bucket must be exactly (k - 1) / k of the path delay.
  core::Flow flow(tech::asic_025um());
  core::Methodology m = core::typical_asic();
  m.corner = tech::corner_worst_case();
  const core::FlowResult r = run_flow(flow, m);
  ASSERT_TRUE(r.ok());
  const sta::StaOptions so = sta_options_for(m);
  const auto paths = sta::top_critical_paths(*r.nl, so, 1);
  ASSERT_FALSE(paths.empty());
  const PathAttribution a = attribute_path(*r.nl, paths.front(), so);
  const double k = m.corner.delay_factor;
  EXPECT_NEAR(a.process_margin_tau, a.delay_tau * (k - 1.0) / k,
              1e-6 * a.delay_tau);
}

TEST(AttributionTest, StaticPathHasZeroLogicStyleAndPositiveHeadroom) {
  core::Flow flow(tech::asic_025um());
  const core::Methodology m = core::typical_asic();
  const core::FlowResult r = run_flow(flow, m);
  ASSERT_TRUE(r.ok());
  const sta::StaOptions so = sta_options_for(m);
  const auto paths = sta::top_critical_paths(*r.nl, so, 1);
  ASSERT_FALSE(paths.empty());
  const PathAttribution a = attribute_path(*r.nl, paths.front(), so);
  // Static gates ARE their static equivalents.
  EXPECT_NEAR(a.logic_style_tau, 0.0, 1e-9);
  // ... but a domino re-implementation would be faster.
  EXPECT_GT(a.domino_headroom_tau, 0.0);
}

TEST(GapScoreTest, ProcessFactorIsExactlyTheCornerRatio) {
  PathAttribution a;
  a.delay_tau = 100.0;
  a.logic_depth_tau = 60.0;
  RunContext ctx;
  ctx.corner_delay_factor = tech::corner_worst_case().delay_factor;
  const GapScore s = gap_score(a, ctx);
  EXPECT_NEAR(s.process,
              tech::corner_worst_case().delay_factor /
                  tech::corner_fast_bin().delay_factor,
              1e-12);
}

TEST(GapScoreTest, CustomRunScoresNearOne) {
  // A run that already applies every custom technique has nothing left
  // on the table: each factor collapses to (or near) 1.
  core::Flow flow(tech::asic_025um());
  core::Methodology m = core::full_custom();
  m.corner = tech::corner_fast_bin();
  const core::FlowResult r = run_flow(flow, m);
  ASSERT_TRUE(r.ok());
  const sta::StaOptions so = sta_options_for(m);
  const auto paths = sta::top_critical_paths(*r.nl, so, 1);
  ASSERT_FALSE(paths.empty());
  const PathAttribution a = attribute_path(*r.nl, paths.front(), so);
  const GapScore s = gap_score(a, context_for(m));
  EXPECT_DOUBLE_EQ(s.process, 1.0);
  EXPECT_DOUBLE_EQ(s.logic_style, 1.0);  // already dynamic
  EXPECT_LT(s.composed(), 4.0);          // far from the ASIC's ~x18
}

TEST(GapScoreTest, ComposedTracksMeasuredDecomposition) {
  // The single-run estimate must land in the same regime as the measured
  // re-run decomposition (core::decompose) on the same design: within a
  // factor of 2 of the product of individual contributions.
  core::Flow flow(tech::asic_025um());
  const auto factors = core::paper_factors();
  const core::GapReport measured = core::decompose(
      flow,
      [](designs::DatapathStyle style) {
        return designs::make_design("alu16", style);
      },
      core::reference_methodology(), factors);

  core::Methodology all_asic = core::reference_methodology();
  for (const core::Factor& f : factors) f.apply_asic(all_asic);
  const core::FlowResult r = run_flow(flow, all_asic);
  ASSERT_TRUE(r.ok());
  const sta::StaOptions so = sta_options_for(all_asic);
  const auto paths = sta::top_critical_paths(*r.nl, so, 1);
  ASSERT_FALSE(paths.empty());
  const PathAttribution a = attribute_path(*r.nl, paths.front(), so);
  const GapScore s = gap_score(a, context_for(all_asic));

  const double ratio = s.composed() / measured.product_individual;
  EXPECT_GE(ratio, 0.5) << "estimate " << s.composed() << " vs measured "
                        << measured.product_individual;
  EXPECT_LE(ratio, 2.0) << "estimate " << s.composed() << " vs measured "
                        << measured.product_individual;
}

TEST(SnapshotTest, CaptureMeasuresTheNetlist) {
  core::Flow flow(tech::asic_025um());
  const core::Methodology m = core::typical_asic();
  const core::FlowResult r = run_flow(flow, m);
  ASSERT_TRUE(r.ok());
  SnapshotOptions so;
  so.sta = sta_options_for(m);
  const QorSnapshot s = capture(*r.nl, so);
  EXPECT_NEAR(s.min_period_tau, r.timing.min_period_tau,
              1e-9 * r.timing.min_period_tau);
  EXPECT_GT(s.endpoints, 0u);
  EXPECT_GT(s.area_um2, 0.0);
  EXPECT_GT(s.total_wirelength_um, 0.0);
  EXPECT_GE(s.total_wirelength_um, s.critical_wirelength_um);
  EXPECT_GT(s.critical_path_gates, 0u);
  EXPECT_GT(s.slack_histogram.constrained, 0u);
  EXPECT_EQ(s.mc_samples, 0);  // not requested
}

TEST(SnapshotTest, McSpreadOnlyWhenRequestedAndThreadInvariant) {
  core::Flow flow(tech::asic_025um());
  const core::Methodology m = core::typical_asic();
  const core::FlowResult r = run_flow(flow, m);
  ASSERT_TRUE(r.ok());
  SnapshotOptions so;
  so.sta = sta_options_for(m);
  so.mc_samples = 16;
  so.mc_threads = 1;
  const QorSnapshot s1 = capture(*r.nl, so);
  so.mc_threads = 4;
  const QorSnapshot s4 = capture(*r.nl, so);
  EXPECT_EQ(s1.mc_samples, 16);
  EXPECT_GT(s1.mc_relative_spread, 0.0);
  EXPECT_EQ(s1.mc_relative_spread, s4.mc_relative_spread);
  EXPECT_EQ(s1.mc_mean_shift, s4.mc_mean_shift);
}

using gap::testing::tiny_manifest;

TEST(ManifestTest, WriteJsonIsValidAndDeterministic) {
  const RunManifest m = tiny_manifest(100.0, 1.2);
  const std::string a = write_json(m);
  const std::string b = write_json(m);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(gap::testing::JsonLint::valid(a)) << a;
  EXPECT_NE(a.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(a.find("\"gapflow\""), std::string::npos);
}

TEST(FlowQorCaptureTest, SnapshotsOnlyWhenEnabled) {
  core::Flow flow(tech::asic_025um());
  const auto aig =
      designs::make_design("alu16", designs::DatapathStyle::kSynthesized);
  const core::Methodology m = core::typical_asic();

  const core::FlowResult off = flow.run(aig, m);
  for (const core::StageReport& s : off.report.stages)
    EXPECT_FALSE(s.qor.has_value()) << s.name;

  core::FlowOptions fopt;
  fopt.qor.enabled = true;
  const core::FlowResult on = flow.run(aig, m, fopt);
  ASSERT_TRUE(on.ok());
  std::size_t with_qor = 0;
  for (const core::StageReport& s : on.report.stages) {
    if (s.status == core::StageStatus::kOk) {
      EXPECT_TRUE(s.qor.has_value()) << s.name;
      ++with_qor;
    }
  }
  EXPECT_GE(with_qor, 5u);  // map..signoff all capture
  // QoR never runs inside the stage timer, and the period trajectory
  // ends at the signed-off value.
  EXPECT_NEAR(on.report.stages.back().qor->min_period_tau,
              on.timing.min_period_tau, 1e-9 * on.timing.min_period_tau);
}

}  // namespace
}  // namespace gap::qor
