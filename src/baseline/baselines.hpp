// Comparators for the evaluation: the reference points the T1/T2 paper
// suites (examples/suites/paper/t1_vs_baseline.json, t2_scoreboard.json)
// rank the Fig. 2 protocol against, from both degenerate corners to the
// prior art.
//
//  * probe_all       — the trivial B = n algorithm: every player probes
//                      every object. Zero error, maximal probes.
//  * random_guess    — zero probes, ~n/2 error; the other degenerate corner.
//  * oracle_clusters — a genie that knows the planted clusters and only runs
//                      the redundant-voting phase inside them. This is the
//                      OPT reference: no real algorithm can beat its shape.
//  * sample_and_share— reconstruction of Alon-Awerbuch-Azar-Patt-Shamir
//                      [2,3] as characterized by the paper: Θ(B² polylog n)
//                      probes, B-factor (not constant) approximation, no
//                      Byzantine tolerance. Every player probes one public
//                      sample of size ~B² log n, picks the n/B sample-nearest
//                      players (a *star* neighbourhood, diameter up to
//                      B·OPT on chained preference structures), then adopts
//                      majority votes from that group's published random
//                      slices of the universe.
#pragma once

#include "src/core/result.hpp"
#include "src/model/generators.hpp"
#include "src/protocols/env.hpp"

namespace colscore {

/// Every player probes every object (honest players pay n probes).
ProtocolResult probe_all(ProtocolEnv& env);

/// No probes; uniform random outputs.
ProtocolResult random_guess(ProtocolEnv& env, std::uint64_t seed);

struct OracleClustersParams {
  std::size_t votes_per_object = 8;
};

/// Genie baseline: shares work inside the *true* planted clusters.
/// Background (cluster-less) players probe everything themselves.
ProtocolResult oracle_clusters(ProtocolEnv& env, const World& world,
                               const OracleClustersParams& params = {});

struct SampleShareParams {
  std::size_t budget = 8;          // B
  /// Public sample size = min(n_objects, sample_c * B^2 * log2 n).
  double sample_c = 1.0;
  /// Per-player random slice size = slice_c * B * log2 n.
  double slice_c = 1.0;
  /// Group size = n / B (the star neighbourhood).
  std::uint64_t seed = 0x5a3b1eULL;  // public coins (assumed honest-random)
};

struct SampleShareResult {
  ProtocolResult result;
  std::size_t uncovered_objects = 0;  // object-player pairs with no report
};

/// The [2,3]-style baseline. Not Byzantine-tolerant by design.
SampleShareResult sample_and_share(ProtocolEnv& env, const SampleShareParams& params);

}  // namespace colscore
