#include "src/sim/churn.hpp"

#include <utility>
#include <vector>

#include "src/common/assert.hpp"
#include "src/protocols/stream.hpp"

namespace colscore {

namespace {

/// One Bernoulli draw from the churn stream. p <= 0 consumes no draw (the
/// common all-default case where depart/arrive stay 0 costs nothing).
bool chance(Rng& rng, double p) {
  if (p <= 0.0) return false;
  return static_cast<double>(rng() >> 11) * 0x1p-53 < p;
}

/// Draws one epoch's update batch against `alive` (ascending player order,
/// at most one update per player) and applies the drift flips to `matrix` in
/// place. The caller then feeds the batch to StreamSession::apply_epoch.
std::vector<RowUpdate> draw_churn_epoch(PreferenceMatrix& matrix,
                                        const BitVector& alive,
                                        const ChurnConfig& config, Rng& rng) {
  const std::size_t n = matrix.n_players();
  CS_ASSERT(alive.size() == n, "draw_churn_epoch: alive mask size mismatch");
  std::vector<RowUpdate> batch;
  // Fates first, flips second, both in ascending player order: the flip
  // draw count depends on the fates, so interleaving them would make a
  // player's flip positions depend on later players' fates.
  for (PlayerId p = 0; p < n; ++p) {
    if (alive.get(p)) {
      if (chance(rng, config.depart)) {
        batch.push_back({p, UpdateKind::kDepart});
        continue;
      }
      if (chance(rng, config.flip_rate))
        batch.push_back({p, UpdateKind::kFlip});
    } else if (chance(rng, config.arrive)) {
      // Re-arrival keeps the row as it was at departure: a returning player
      // resumes its old preferences; only drift changes row content.
      batch.push_back({p, UpdateKind::kArrive});
    }
  }
  for (const RowUpdate& u : batch)
    if (u.kind == UpdateKind::kFlip)
      matrix.row(u.player).flip_random(rng, config.flip_bits);
  return batch;
}

}  // namespace

ChurnStats run_churn(PreferenceMatrix& matrix, const ChurnConfig& config,
                     Rng& rng, const ExecPolicy& policy) {
  const std::size_t n = matrix.n_players();
  std::vector<ConstBitRow> views;
  views.reserve(n);
  for (PlayerId p = 0; p < n; ++p)
    views.push_back(std::as_const(matrix).row(p));

  StreamSession session(views, config.threshold, config.min_cluster,
                        GraphBackend::kAuto, policy);
  for (std::size_t e = 0; e < config.epochs; ++e) {
    const std::vector<RowUpdate> batch =
        draw_churn_epoch(matrix, session.graph().alive(), config, rng);
    session.apply_epoch(batch, policy);
  }

  const StreamTotals& totals = session.totals();
  ChurnStats stats;
  stats.epochs = totals.epochs;
  stats.flips = totals.flips;
  stats.arrivals = totals.arrivals;
  stats.departures = totals.departures;
  stats.edges_changed = totals.edges_changed;
  stats.rebuilds = totals.rebuilds;
  stats.reclusters = totals.reclusters;
  stats.final_alive = session.graph().alive_count();
  stats.final_clusters = session.clustering().clusters.size();
  return stats;
}

}  // namespace colscore
