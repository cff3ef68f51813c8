#include "src/protocols/small_radius.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/bitmatrix.hpp"
#include "src/common/workspace.hpp"
#include "src/protocols/select.hpp"

namespace colscore {

namespace {

std::size_t subset_count(const SmallRadiusParams& params, std::size_t n_objects) {
  const double raw = params.subset_scale *
                     std::pow(std::max<double>(1.0, static_cast<double>(params.diameter)),
                              params.subset_exponent);
  // Clamp before the cast: a huge exponent makes `raw` inf, which no
  // size_t can hold.
  return static_cast<std::size_t>(
      std::clamp(std::ceil(raw), 1.0, static_cast<double>(n_objects)));
}

}  // namespace

SmallRadiusResult small_radius(std::span<const PlayerId> players,
                               std::span<const ObjectId> objects,
                               const SmallRadiusParams& params, ProtocolEnv& env,
                               std::uint64_t phase_key) {
  CS_ASSERT(params.budget >= 1, "small_radius: budget >= 1 required");
  SmallRadiusResult result;
  result.outputs.assign(players.size(), BitVector(objects.size()));
  if (players.empty() || objects.empty()) return result;

  const std::size_t s = subset_count(params, objects.size());
  result.stats.subsets = s;

  ZeroRadiusParams zr = params.zr;
  zr.budget = 5 * params.budget;

  // Support threshold for U_i: vectors output by >= n/(divisor*B) players.
  const auto support_threshold = static_cast<std::size_t>(std::max(
      1.0, std::floor(static_cast<double>(env.n_players()) /
                      (params.support_divisor * static_cast<double>(params.budget)))));
  const std::size_t max_candidates = std::max<std::size_t>(
      2, static_cast<std::size_t>(params.support_divisor *
                                  static_cast<double>(params.budget)));

  // candidates[r] row i = candidate vector of players[i] from repeat r.
  // Contiguous rows: the per-subset parallel writes below touch only their
  // own row, and BitMatrix rows never share a cache line. The matrices are
  // pooled in the per-worker workspace so repeated grid cells reuse the
  // allocation (sr_* group; disjoint from calculate_preferences' cp_* pool,
  // whose matrices are live while this runs).
  std::vector<BitMatrix>& candidates = env.workspace().sr_candidates;
  if (candidates.size() < params.repeats) candidates.resize(params.repeats);

  // Flat partition buffers (counting sort) — a vector-of-vectors here cost s
  // allocations per repeat.
  RunWorkspace& ws = env.workspace();
  auto& subset_of = ws.sr_subset_of;
  auto& subset_offsets = ws.sr_subset_offsets;
  auto& subset_cursor = ws.sr_subset_cursor;
  auto& coords_flat = ws.sr_coords_flat;
  auto& sub_objects = ws.sr_sub_objects;

  for (std::size_t rep = 0; rep < params.repeats; ++rep) {
    const std::uint64_t rep_key = mix_keys(phase_key, 0x5e9ULL, rep);

    // Step 1: shared random partition of objects into s subsets (same draw
    // per coordinate as the vector-of-vectors formulation, then a counting
    // sort so subset j's coordinate indices stay ascending).
    Rng shared = env.shared_rng(mix_keys(rep_key, 0x9a97ULL));
    subset_of.resize(objects.size());
    for (std::size_t j = 0; j < objects.size(); ++j)
      subset_of[j] = static_cast<std::uint32_t>(shared.below(s));
    subset_offsets.assign(s + 1, 0);
    for (std::uint32_t sub : subset_of) ++subset_offsets[sub + 1];
    for (std::size_t sub = 1; sub <= s; ++sub)
      subset_offsets[sub] += subset_offsets[sub - 1];
    coords_flat.resize(objects.size());
    subset_cursor.assign(subset_offsets.begin(), subset_offsets.end() - 1);
    for (std::size_t j = 0; j < objects.size(); ++j)
      coords_flat[subset_cursor[subset_of[j]]++] = j;

    candidates[rep].reset(players.size(), objects.size());

    // Steps 2-3 per subset: ZeroRadius, support-vote U_i, per-player Select.
    for (std::size_t sub = 0; sub < s; ++sub) {
      const std::span<const std::size_t> coords{
          coords_flat.data() + subset_offsets[sub],
          subset_offsets[sub + 1] - subset_offsets[sub]};
      if (coords.empty()) continue;
      sub_objects.resize(coords.size());
      for (std::size_t j = 0; j < coords.size(); ++j) sub_objects[j] = objects[coords[j]];

      const std::uint64_t sub_key = mix_keys(rep_key, 0x50b5ULL, sub);
      ZeroRadiusResult zr_out = zero_radius(players, sub_objects, zr, env, sub_key);
      result.stats.zr.merge(zr_out.stats);

      // Publish outputs so support can be counted on the board (dishonest
      // players may publish garbage here). Honest publications are the
      // protocol output verbatim — no behaviour call, no RNG stream (an
      // honest publication never draws from it).
      const std::uint64_t channel = mix_keys(sub_key, 0xbea0ULL);
      const ReportContext rctx{Phase::kSmallRadius, channel};
      {
        auto writer = env.board.vector_channel(channel);
        for (std::size_t i = 0; i < players.size(); ++i) {
          if (env.population.is_honest(players[i])) {
            writer.post(players[i], zr_out.outputs[i]);
            continue;
          }
          Rng prng = env.local_rng(players[i], channel);
          writer.post(players[i],
                      env.population.publication(players[i], zr_out.outputs[i],
                                                 sub_objects, rctx, prng));
        }
      }
      auto supported = env.board.take_support(channel);
      std::vector<BitVector> ui;
      for (auto& sv : supported) {
        if (sv.support >= support_threshold) ui.push_back(std::move(sv.vector));
        if (ui.size() >= max_candidates) break;
      }
      if (ui.empty()) {
        // Preferences are too fragmented for the support filter (assumption
        // violated); keep the most popular vectors so Select can still run.
        ++result.stats.candidate_overflow;
        for (auto& sv : supported) {
          ui.push_back(std::move(sv.vector));
          if (ui.size() >= max_candidates) break;
        }
      }

      // Step 3: every player selects its vector for this subset. Everything
      // that depends only on U_i (candidate words, hashes, pair differences)
      // is planned once here; workers play the plan read-only. Each player's
      // key mix_keys(sub_key, p) is mixed only if its tournament draws. A
      // forced plan (two candidates one coordinate apart) that the prefilter
      // would not touch is settled in closed form: each player's vector is
      // U_i's first with the decision coordinate set to its own bit.
      const std::vector<ConstBitRow> ui_views(ui.begin(), ui.end());
      const SelectPlan plan(ui_views, sub_objects);
      const bool settled = plan.forced_coordinate() != SelectPlan::kNotForced &&
                           plan.size() <= params.max_finalists;
      result.stats.settled_subsets += settled;
      env.par_for(0, players.size(), [&](std::size_t i) {
        const SelectOutcome sel =
            settled ? select_forced(players[i], plan, env, params.probes_per_pair)
                    : select_prefiltered(players[i], plan, env,
                                         SelectKey(sub_key, players[i]),
                                         params.probes_per_pair, params.prefilter_probes,
                                         params.max_finalists, /*skip_below=*/0);
        // Write the chosen subset vector into the repeat's full candidate.
        BitRow row = candidates[rep].row(i);
        const ConstBitRow chosen(ui[sel.chosen]);
        for (std::size_t j = 0; j < coords.size(); ++j)
          row.set(coords[j], chosen.get(j));
      });
    }
  }

  // Final step: Select among the per-repeat candidates (zero-copy views).
  env.par_for(0, players.size(), [&](std::size_t i) {
    std::vector<ConstBitRow> cands;
    cands.reserve(params.repeats);
    for (std::size_t rep = 0; rep < params.repeats; ++rep)
      cands.push_back(candidates[rep].row(i));
    const SelectOutcome sel = select_deterministic(
        players[i], cands, objects, env, mix_keys(phase_key, 0xf17a1ULL, players[i]),
        params.probes_per_pair, /*skip_below=*/params.diameter);
    result.outputs[i] = cands[sel.chosen].to_bitvector();
  });

  return result;
}

}  // namespace colscore
