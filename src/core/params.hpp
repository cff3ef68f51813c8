// All protocol constants in one place.
//
// The paper states constants asymptotically (sample rate 10 ln n / D, edge
// threshold 220 ln n, SmallRadius diameter 20 ln n, ...). At laptop-scale n
// the literal constants saturate (220 ln n can exceed the sample size), so
// the practical preset rescales them, aiming at the *relative* calibration
// the lemmas rely on:
//     expected close-pair sample distance  (= sample_rate_c * ln n)
//   < edge threshold                       (= graph_tau_c   * ln n)
//   < expected far-pair sample distance    (= c * sample_rate_c * ln n
//                                             for pairs c*D apart).
// At the practical constants (10 and 30) the last inequality needs c > 3,
// not c >= 3 as in Lemma 6: a pair 3D apart has the threshold as its
// expected sample distance, and 47% of such pairs keep their edge (n = 4096,
// D = 256). By c = 6 none do (test_clustering's
// SampledDistanceSeparatesCloseFromFarPairs).
// `Params::paper()` keeps the literal constants for asymptotic fidelity.
#pragma once

#include <cstddef>

#include "src/protocols/zero_radius.hpp"

namespace colscore {

struct Params {
  /// B: the reference budget the protocol must be asymptotically optimal
  /// against (each player may spend O(B polylog n) probes).
  std::size_t budget = 8;

  // ---- Fig. 2 step 1.b: sample selection -------------------------------
  /// P(object in S) = min(1, sample_rate_c * ln n / D).
  double sample_rate_c = 10.0;

  // ---- Fig. 2 step 1.c: SmallRadius on the sample -----------------------
  /// Diameter bound handed to SmallRadius on the sample:
  /// sr_diameter_c * ln n (paper: 20 ln n, Lemma 6).
  double sr_diameter_c = 20.0;
  std::size_t sr_repeats = 2;
  double sr_subset_scale = 2.0;
  double sr_subset_exponent = 1.0;  // paper: 1.5
  double sr_support_divisor = 5.0;
  std::size_t sr_probes_per_pair = 12;
  std::size_t sr_prefilter_probes = 16;
  std::size_t sr_max_finalists = 8;
  ZeroRadiusParams zr;

  // ---- Fig. 2 step 1.d: neighbor graph + clustering ---------------------
  /// Edge iff sample distance <= min(graph_tau_c * ln n,
  /// graph_tau_sample_frac * |S|). The paper's threshold is 220 ln n
  /// (Lemma 7); at laptop n that can exceed the typical *inter*-cluster
  /// sample distance (~|S|/2 for random centers), so the practical preset
  /// also caps the threshold at a fraction of the sample size.
  double graph_tau_c = 30.0;
  double graph_tau_sample_frac = 0.25;
  /// Cluster formation threshold = (n/B) * (1 - cluster_slack). Up to
  /// n/(3B) players may be dishonest and publish garbage sample vectors, so
  /// an honest player inside a diameter-D set of exactly n/B players may see
  /// only (2/3)(n/B) cooperating neighbours; without this slack such
  /// clusters can never form. The §7.2 domination arithmetic is preserved:
  /// in-cluster dishonest voters are still at most 1/3 of any formed
  /// cluster.
  double cluster_slack = 1.0 / 3.0;

  // ---- Fig. 2 step 1.e: work sharing ------------------------------------
  /// Votes per object = max(vote_min, vote_c * log2 n). The constant sets
  /// the per-object failure probability against a 1/3-dishonest cluster:
  /// with k votes it is ~ P(Bin(k, 1/3) >= k/2) ~ exp(-k/20), so k ~ 3 log2 n
  /// keeps whole-vector error at O(1) objects.
  double vote_c = 3.0;
  std::size_t vote_min = 9;

  // ---- Fig. 2 step 2: final RSelect --------------------------------------
  /// Probes per candidate pair = max(4, rselect_c * log2 n).
  double rselect_c = 1.5;

  /// Easy case (§6.1): if budget >= easy_case_factor * n / log2 n, every
  /// player just probes everything.
  double easy_case_factor = 1.0;

  /// Practical defaults for laptop-scale n (this is also the default-
  /// constructed value, spelled out for readability at call sites).
  static Params practical(std::size_t budget);

  /// The paper's literal constants; probe bills are much larger.
  static Params paper(std::size_t budget);
};

}  // namespace colscore
