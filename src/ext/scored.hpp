// §8 extension: non-binary preferences.
//
// Players rate objects on a scale 0..R-1 and similarity is L1 distance. We
// use the classic threshold decomposition: score s decomposes into R-1
// binary layers (layer t = [s >= t]); the L1 distance between two score
// vectors equals the sum of layer-wise Hamming distances, so running the
// binary protocol per layer and re-summing the layers preserves the O(D)
// error guarantee with a factor (R-1) budget overhead.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/calculate_preferences.hpp"
#include "src/model/generators.hpp"

namespace colscore {

/// Dense matrix of scores in [0, levels).
class ScoreMatrix {
 public:
  ScoreMatrix() = default;
  ScoreMatrix(std::size_t n_players, std::size_t n_objects, std::uint8_t levels);

  std::size_t n_players() const { return rows_ / std::max<std::size_t>(1, n_objects_); }
  std::size_t n_objects() const { return n_objects_; }
  std::uint8_t levels() const { return levels_; }

  std::uint8_t score(PlayerId p, ObjectId o) const;
  void set_score(PlayerId p, ObjectId o, std::uint8_t score);

  /// L1 distance between two players' score vectors.
  std::size_t l1_distance(PlayerId p, PlayerId q) const;

  /// Binary layer t (1 <= t < levels): bit = [score >= t].
  PreferenceMatrix layer(std::uint8_t t) const;

 private:
  std::size_t n_objects_ = 0;
  std::size_t rows_ = 0;  // n_players * n_objects
  std::uint8_t levels_ = 2;
  std::vector<std::uint8_t> scores_;
};

struct ScoredWorld {
  ScoreMatrix scores;
  std::vector<std::uint32_t> cluster_of;
  std::size_t planted_l1_diameter = 0;
};

/// Clustered score matrix: members of a cluster deviate from the center by
/// at most `l1_diameter/2` total L1 mass.
ScoredWorld planted_scored_clusters(std::size_t n_players, std::size_t n_objects,
                                    std::size_t n_clusters, std::uint8_t levels,
                                    std::size_t l1_diameter, Rng rng);

struct ScoredResult {
  /// outputs[p][o] = predicted score.
  std::vector<std::vector<std::uint8_t>> outputs;
  std::uint64_t total_probes = 0;
  std::uint64_t max_probes = 0;
};

/// Runs the binary protocol once per threshold layer and re-sums. Each
/// binary probe of layer t reveals [v(p)_o >= t]; we charge one probe per
/// layer query, matching the decomposition's (R-1)x budget overhead.
/// Every per-layer ProtocolEnv runs under `policy`.
ScoredResult scored_calculate_preferences(
    const ScoredWorld& world, const Population& population, const Params& params,
    std::uint64_t seed, const ExecPolicy& policy = ExecPolicy::serial());

/// Max L1 error over the honest players.
std::size_t scored_max_error(const ScoredWorld& world, const Population& population,
                             const ScoredResult& result);

}  // namespace colscore
