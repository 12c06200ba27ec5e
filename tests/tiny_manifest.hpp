/// \file tiny_manifest.hpp
/// A small synthetic QoR run manifest shared by the manifest writer tests
/// (qor_test) and the gapstat manifest tests (obs_test).

#ifndef GAP_TESTS_TINY_MANIFEST_HPP_
#define GAP_TESTS_TINY_MANIFEST_HPP_

#include "qor/manifest.hpp"

namespace gap::testing {

/// One "signoff" stage whose period is `signoff_period` tau, and a gap
/// score whose sizing factor is `composed_sizing`.
inline qor::RunManifest tiny_manifest(double signoff_period,
                                      double composed_sizing) {
  qor::RunManifest m;
  m.design = "alu16";
  m.context.methodology_name = "typical";
  m.context.corner_name = "typical";
  m.seed = 1;
  m.config = {{"design", "alu16"}, {"methodology", "typical"}};
  qor::ManifestStage st;
  st.name = "signoff";
  st.status = "ok";
  st.metric_deltas = {{"sta.analyses", 1}};
  qor::QorSnapshot q;
  q.min_period_tau = signoff_period;
  q.worst_path_tau = signoff_period * 0.9;
  q.slack_histogram.constrained = 3;
  q.slack_histogram.centers = {0.5, 1.5};
  q.slack_histogram.counts = {2, 1};
  st.qor = q;
  m.stages.push_back(st);
  qor::ManifestAttribution attr;
  qor::PathAttribution p;
  p.delay_tau = signoff_period * 0.9;
  p.logic_depth_tau = p.delay_tau;
  attr.paths.push_back(p);
  attr.score.sizing = composed_sizing;
  m.attribution = attr;
  m.ok = true;
  m.freq_mhz = 100.0;
  return m;
}

}  // namespace gap::testing

#endif  // GAP_TESTS_TINY_MANIFEST_HPP_
