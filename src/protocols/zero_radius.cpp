#include "src/protocols/zero_radius.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/mathutil.hpp"
#include "src/common/workspace.hpp"

namespace colscore {

void ZeroRadiusStats::merge(const ZeroRadiusStats& other) {
  base_case_players += other.base_case_players;
  fallbacks += other.fallbacks;
  empty_support += other.empty_support;
  repairs += other.repairs;
  max_depth = std::max(max_depth, other.max_depth);
}

namespace {

/// Support threshold for adopted vectors: max(2, |P''| / (kSupportDivisor *
/// budget)). The floor of 2 keeps small honest clusters eligible at deep
/// recursion levels while still dropping liars' singleton garbage.
constexpr double kSupportDivisor = 2.0;

struct Ctx {
  const ZeroRadiusParams& params;
  ProtocolEnv& env;
  std::size_t base_threshold;
  std::size_t elim_cap;
  std::size_t verify_probes;
};

/// Splits `items` into two non-empty halves with the shared coin. If a side
/// comes out empty (only possible for tiny inputs), re-draws.
template <typename T>
void shared_partition(std::span<const T> items, Rng& shared, std::vector<T>& left,
                      std::vector<T>& right) {
  left.clear();
  right.clear();
  for (int attempt = 0; attempt < 64; ++attempt) {
    for (const T& item : items) (shared() & 1 ? left : right).push_back(item);
    if (items.size() < 2 || (!left.empty() && !right.empty())) return;
    left.clear();
    right.clear();
  }
  // Deterministic fallback: alternate.
  for (std::size_t i = 0; i < items.size(); ++i)
    (i % 2 == 0 ? left : right).push_back(items[i]);
}

/// One player adopts a vector over `objects` from the published candidates.
/// `verify_key` seeds the deterministic verification coordinates. Every look
/// at the player's own bits goes through one WideProbeMemo (planes in
/// zr_memo_words): a coordinate is charged once however often it is read,
/// and the whole bill lands when adoption returns.
BitVector adopt(PlayerId p, std::span<const ObjectId> objects,
                const std::vector<BulletinBoard::SupportedVector>& candidates,
                Ctx& ctx, std::uint64_t verify_key, ZeroRadiusStats& stats) {
  RunWorkspace& ws = ctx.env.workspace();
  WideProbeMemo memo = ctx.env.own_probe_memo(p, objects, ws.zr_memo_words);
  if (candidates.empty()) {
    // Nothing published at all (degenerate); probe everything we can afford.
    ++stats.fallbacks;
    BitVector own(objects.size());
    const std::size_t limit = std::min(objects.size(), ctx.elim_cap);
    for (std::size_t c = 0; c < limit; ++c) memo.read(c);
    memo.patch(own);
    return own;
  }

  auto& alive = ws.zr_alive;
  alive.resize(candidates.size());
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = i;

  bool fell_back = false;
  auto& diff = ws.zr_diff;  // reused across elimination rounds

  while (alive.size() > 1) {
    // Deduplicate identical leaders to avoid probing ties.
    const BitVector& front = candidates[alive[0]].vector;
    diff.clear();
    front.diff_positions_into(candidates[alive[1]].vector, diff);
    if (diff.empty()) {
      alive.erase(alive.begin() + 1);
      continue;
    }
    // Every coordinate read so far was read by this loop.
    if (memo.seen_count() >= ctx.elim_cap) {
      fell_back = true;
      break;
    }
    // Elimination is adaptive -- each coordinate is picked from the
    // survivors of the previous answer -- so it reads one bit at a time.
    const std::size_t coord = diff.front();
    const bool bit = memo.read(coord);
    auto& next = ws.zr_next;
    next.clear();
    for (std::size_t idx : alive)
      if (candidates[idx].vector.get(coord) == bit) next.push_back(idx);
    if (next.empty()) {
      // Our true vector was not among the candidates (noisy invocation from
      // SmallRadius). Keep the highest-support candidate and patch below.
      fell_back = true;
      break;
    }
    std::swap(alive, next);
  }

  if (fell_back) ++stats.fallbacks;
  BitVector result = candidates[alive.empty() ? 0 : alive.front()].vector;

  // Verification-repair: sample a few coordinates and patch mismatches. This
  // mops up the rare deep-recursion failure where the player's exact vector
  // missed the support filter and the survivor is merely the nearest cluster.
  // The coordinates are SHARED across learners (derived from the channel, not
  // the player): identical twins must patch identical coordinates, otherwise
  // their published vectors fragment and upstream support voting collapses.
  // A repair is a newly read coordinate where the survivor is wrong.
  Rng verify(mix_keys(verify_key, 0x7e81f1ULL));
  for (std::size_t s = 0; s < ctx.verify_probes && s < objects.size(); ++s) {
    const std::size_t coord = verify.below(objects.size());
    if (memo.seen(coord)) continue;
    if (memo.read(coord) != result.get(coord)) ++stats.repairs;
  }

  // Patch in everything this player actually observed.
  memo.patch(result);
  return result;
}

/// Publication + adoption for one direction of the merge: `learners` adopt
/// vectors over `objects` computed by `publishers` (whose outputs are given).
void cross_adopt(std::span<const PlayerId> learners,
                 std::span<const PlayerId> publishers,
                 std::span<const ObjectId> objects,
                 const std::vector<BitVector>& publisher_outputs,
                 std::vector<BitVector>& learner_outputs, Ctx& ctx,
                 std::uint64_t channel, ZeroRadiusStats& stats) {
  // publish posts serially, so candidate order is deterministic; adoption
  // below is the expensive part and runs parallel.
  auto supported = ctx.env.publish(channel, Phase::kZeroRadius, publishers,
                                   publisher_outputs, objects);
  const auto threshold = static_cast<std::size_t>(
      std::max(2.0, std::floor(static_cast<double>(publishers.size()) /
                               (kSupportDivisor *
                                static_cast<double>(ctx.params.budget)))));
  std::vector<BulletinBoard::SupportedVector> filtered;
  for (auto& sv : supported)
    if (sv.support >= threshold) filtered.push_back(std::move(sv));
  if (filtered.empty() && !supported.empty()) {
    ++stats.empty_support;
    // Keep the most-supported few so adoption can still proceed.
    const std::size_t keep = std::min<std::size_t>(supported.size(),
                                                   2 * ctx.params.budget);
    filtered.assign(supported.begin(), supported.begin() + static_cast<long>(keep));
  }

  std::vector<ZeroRadiusStats> local(learners.size());
  learner_outputs.assign(learners.size(), BitVector());
  ctx.env.par_for(0, learners.size(), [&](std::size_t i) {
    learner_outputs[i] =
        adopt(learners[i], objects, filtered, ctx, channel, local[i]);
  });
  for (const auto& s : local) stats.merge(s);
}

ZeroRadiusResult solve(std::span<const PlayerId> players,
                       std::span<const ObjectId> objects, Ctx& ctx,
                       std::uint64_t phase_key, std::size_t depth) {
  ZeroRadiusResult result;
  result.stats.max_depth = depth;
  result.outputs.assign(players.size(), BitVector(objects.size()));
  if (players.empty() || objects.empty()) return result;

  if (std::min(players.size(), objects.size()) <= ctx.base_threshold) {
    // Base case: every player probes every object in O — a whole known slate
    // per player, so each row is one batched charge through the word-level
    // pipeline (contiguous object spans skip bit staging entirely).
    result.stats.base_case_players = players.size();
    ctx.env.par_for(0, players.size(), [&](std::size_t i) {
      ctx.env.own_probe_bits(players[i], objects, result.outputs[i]);
    });
    return result;
  }

  // Shared-random halving of both universes (same partition for everyone).
  Rng shared = ctx.env.shared_rng(mix_keys(phase_key, 0xA11, depth));
  std::vector<PlayerId> p_left, p_right;
  std::vector<ObjectId> o_left, o_right;
  shared_partition<PlayerId>(players, shared, p_left, p_right);
  shared_partition<ObjectId>(objects, shared, o_left, o_right);

  ZeroRadiusResult left =
      solve(p_left, o_left, ctx, mix_keys(phase_key, 1), depth + 1);
  ZeroRadiusResult right =
      solve(p_right, o_right, ctx, mix_keys(phase_key, 2), depth + 1);
  result.stats.merge(left.stats);
  result.stats.merge(right.stats);

  // Cross adoption: left players adopt o_right vectors published by right
  // players, and vice versa.
  std::vector<BitVector> left_adopted, right_adopted;
  cross_adopt(p_left, p_right, o_right, right.outputs, left_adopted, ctx,
              mix_keys(phase_key, 0xC0, 1), result.stats);
  cross_adopt(p_right, p_left, o_left, left.outputs, right_adopted, ctx,
              mix_keys(phase_key, 0xC0, 2), result.stats);

  // Reassemble full vectors in the original `objects` coordinate order.
  // Index maps are flat workspace arrays, not per-level hash maps: this node
  // stamps its whole span after the recursion below it has finished with the
  // arrays, and only ever reads ids inside its span.
  RunWorkspace& ws = ctx.env.workspace();
  auto& coord_of = ws.ze_coord_of;
  auto& row_of = ws.ze_row_of;
  if (coord_of.size() < ctx.env.n_objects()) coord_of.resize(ctx.env.n_objects());
  if (row_of.size() < ctx.env.n_players()) row_of.resize(ctx.env.n_players());
  for (std::size_t j = 0; j < objects.size(); ++j)
    coord_of[objects[j]] = static_cast<std::uint32_t>(j);
  for (std::size_t i = 0; i < players.size(); ++i)
    row_of[players[i]] = static_cast<std::uint32_t>(i);

  auto emit = [&](std::span<const PlayerId> group, const std::vector<BitVector>& own,
                  std::span<const ObjectId> own_objs,
                  const std::vector<BitVector>& adopted,
                  std::span<const ObjectId> adopted_objs) {
    ctx.env.par_for(0, group.size(), [&](std::size_t i) {
      BitRow row(result.outputs[row_of[group[i]]]);
      const ConstBitRow own_bits(own[i]);
      const ConstBitRow adopted_bits(adopted[i]);
      for (std::size_t j = 0; j < own_objs.size(); ++j)
        row.set(coord_of[own_objs[j]], own_bits.get(j));
      for (std::size_t j = 0; j < adopted_objs.size(); ++j)
        row.set(coord_of[adopted_objs[j]], adopted_bits.get(j));
    });
  };
  emit(p_left, left.outputs, o_left, left_adopted, o_right);
  emit(p_right, right.outputs, o_right, right_adopted, o_left);
  return result;
}

}  // namespace

ZeroRadiusResult zero_radius(std::span<const PlayerId> players,
                             std::span<const ObjectId> objects,
                             const ZeroRadiusParams& params, ProtocolEnv& env,
                             std::uint64_t phase_key) {
  CS_ASSERT(params.budget >= 1, "zero_radius: budget must be >= 1");
  const std::size_t n_total = env.n_players();
  Ctx ctx{params, env,
          /*base_threshold=*/static_cast<std::size_t>(
              params.base_factor * static_cast<double>(params.budget) *
              static_cast<double>(log2_ceil(n_total))),
          /*elim_cap=*/4 * params.budget * log2_ceil(n_total) + 4,
          /*verify_probes=*/params.verify_probes != 0 ? params.verify_probes
                                                      : 2 * log2_ceil(n_total)};
  return solve(players, objects, ctx, phase_key, 0);
}

}  // namespace colscore
