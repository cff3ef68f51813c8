#include "src/protocols/select.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "src/common/assert.hpp"
#include "src/common/workspace.hpp"

namespace colscore {

// Small plans cover one-word universes. SmallRadius runs millions of
// Selects over subsets of a handful of objects; at that size the workspace
// buffers of the general path are pure overhead, so every per-pair list is a
// fixed stack array and the play reads its own bits through a ProbeMemo: one
// truth read fills the universe, and the coordinates the play looks at are
// charged once, together, when it ends. (The commonest shape, two
// candidates one coordinate apart -- 44% of SmallRadius's calls on the
// pinned 18-run grid -- no longer reaches a tournament: SmallRadius settles
// it with select_forced.) A small play skips the draws of a pair its
// player's own bits decide when they could add nothing to the bill; every
// other draw, and every stream, probe charge and elimination, is the
// general path's.
SelectPlan::SelectPlan(std::span<const ConstBitRow> candidates,
                       std::span<const ObjectId> objects)
    : candidates_(candidates), objects_(objects) {
  CS_ASSERT(!candidates.empty(), "select: no candidates");
  for (const ConstBitRow& c : candidates)
    CS_ASSERT(c.size() == objects.size(), "select: candidate/universe size mismatch");
  small_ = objects.size() <= 64 && candidates.size() <= kSmallK;
  if (!small_) return;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    words_[i] = objects.empty() ? 0 : candidates[i].words()[0];
    hashes_[i] = candidates[i].content_hash();
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      const std::uint64_t diff = words_[i] ^ words_[j];
      pair_diff_[pair_index(i, j)] = diff;
      // colscore-lint: allow(CL011) single-word universe: one popcount per
      // pair, once per plan, beats any kernel call (small plans only)
      pair_count_[pair_index(i, j)] = static_cast<std::uint8_t>(std::popcount(diff));
    }
  }
}

/// The per-player play of a SelectPlan. Pair streams depend only on the
/// phase key and the pair (content hashes for Select, indices for RSelect),
/// never on probe results, so a pair's t coordinates are all drawn before
/// any probe. Players remember their own probe results within a tournament,
/// so each distinct coordinate is charged once: small plays read through a
/// ProbeMemo, general plays through a WideProbeMemo, and both pay when the
/// play ends.
///
/// A pair that differs in exactly one coordinate is forced: below(1) == 0
/// under every stream, so all its draws are that coordinate and neither the
/// key nor the stream is built. In a small play, a pair on whose whole
/// difference the player's bits side with one candidate is decided too: all
/// t draws agree with that candidate, whatever the stream. The bill is the
/// union of the coordinates drawn, so if the player has already read the
/// whole difference, the draws cannot add to it and are not made. Draws are
/// thus made only where they can change the outcome or the bill; streams,
/// charges and elimination order are otherwise the general path's.
struct SelectTournament {
  static SelectOutcome play(PlayerId p, const SelectPlan& plan, ProtocolEnv& env,
                            SelectKey& key, std::size_t probes_per_pair,
                            std::size_t skip_below, bool deterministic) {
    if (plan.size() == 1) return {};
    return plan.small_
               ? play_small(p, plan, env, key, probes_per_pair, skip_below, deterministic)
               : play_general(p, plan, env, key, probes_per_pair, skip_below,
                              deterministic);
  }

  static SelectOutcome prefiltered(PlayerId p, const SelectPlan& plan, ProtocolEnv& env,
                                   SelectKey& key, std::size_t probes_per_pair,
                                   std::size_t prefilter_probes,
                                   std::size_t max_finalists, std::size_t skip_below);

 private:
  /// Draw stream of pair (i, j): keyed on the candidates' content hashes
  /// for Select, on the pair's indices and p's local randomness for RSelect
  /// (hashes == nullptr).
  static Rng pair_stream(PlayerId p, ProtocolEnv& env, SelectKey& key,
                         const std::uint64_t* hashes, std::size_t i, std::size_t j) {
    return hashes != nullptr
               ? Rng(mix_keys(key.get(), hashes[i], hashes[j]))
               : env.local_rng(p, mix_keys(key.get(), i * 1315423911ULL + j));
  }

  /// Fig. 1's elimination for pair (i, j) after t draws, agree_i of which
  /// match candidate i: the loser of a 2/3 supermajority is eliminated; in a
  /// close race both survive (they are near-equidistant from v(p)).
  template <typename Alive, typename Wins>
  static void eliminate(std::size_t i, std::size_t j, std::size_t t,
                        std::size_t agree_i, Alive& alive, Wins& wins) {
    const std::size_t agree_j = t - agree_i;
    if (3 * agree_i >= 2 * t) {
      alive[j] = 0;
      ++wins[i];
    } else if (3 * agree_j >= 2 * t) {
      alive[i] = 0;
      ++wins[j];
    } else {
      ++wins[agree_i >= agree_j ? i : j];
    }
  }

  /// The alive candidate with the most wins (first on ties).
  template <typename Alive, typename Wins>
  static std::size_t winner(std::size_t k, const Alive& alive, const Wins& wins) {
    std::size_t best = 0;
    bool found = false;
    for (std::size_t i = 0; i < k; ++i) {
      if (!alive[i]) continue;
      if (!found || wins[i] > wins[best]) {
        best = i;
        found = true;
      }
    }
    CS_ASSERT(found, "select: tournament eliminated every candidate");
    return best;
  }

  static SelectOutcome play_small(PlayerId p, const SelectPlan& plan, ProtocolEnv& env,
                                  SelectKey& key, std::size_t probes_per_pair,
                                  std::size_t skip_below, bool deterministic);
  static SelectOutcome play_general(PlayerId p, const SelectPlan& plan, ProtocolEnv& env,
                                    SelectKey& key, std::size_t probes_per_pair,
                                    std::size_t skip_below, bool deterministic);
};

SelectOutcome SelectTournament::play_small(PlayerId p, const SelectPlan& plan,
                                           ProtocolEnv& env, SelectKey& key,
                                           std::size_t probes_per_pair,
                                           std::size_t skip_below, bool deterministic) {
  const std::size_t k = plan.size();
  SelectOutcome out;
  ProbeMemo memo = env.own_probe_memo(p, plan.objects_);
  std::uint8_t alive[SelectPlan::kSmallK];
  std::uint32_t wins[SelectPlan::kSmallK] = {};
  std::fill_n(alive, SelectPlan::kSmallK, 1);

  for (std::size_t i = 0; i < k; ++i) {
    if (!alive[i]) continue;
    for (std::size_t j = i + 1; j < k; ++j) {
      if (!alive[i]) break;
      if (!alive[j]) continue;
      const std::size_t pair = SelectPlan::pair_index(i, j);
      const std::size_t cnt = plan.pair_count_[pair];
      if (cnt == 0 || cnt <= skip_below) continue;
      const std::uint64_t diffw = plan.pair_diff_[pair];
      const std::uint64_t wi = plan.words_[i];

      const std::size_t t = std::min(probes_per_pair, cnt);
      std::size_t agree_i = 0;
      if (cnt == 1) {
        // Every draw is the one coordinate: all t agree with i, or none.
        if (t != 0 && memo.read(diffw) == (wi & diffw)) agree_i = t;
      } else if (const std::optional<std::uint64_t> own = memo.known(diffw);
                 own && (*own == (wi & diffw) || *own == (~wi & diffw))) {
        // The whole difference is read already, so the draws cannot add to
        // the bill, and v(p) sides with one candidate on all of it, so every
        // draw agrees with that candidate: no draw is needed.
        if (*own == (wi & diffw)) agree_i = t;
      } else {
        Rng stream =
            pair_stream(p, env, key, deterministic ? plan.hashes_ : nullptr, i, j);
        std::uint8_t pos[64];
        std::uint64_t rest = diffw;
        for (std::size_t d = 0; d < cnt; ++d) {
          pos[d] = static_cast<std::uint8_t>(std::countr_zero(rest));
          rest &= rest - 1;
        }
        std::uint8_t drawn[64];
        std::uint64_t mask = 0;
        for (std::size_t s = 0; s < t; ++s) {
          drawn[s] = pos[stream.below(cnt)];
          mask |= 1ULL << drawn[s];
        }
        const std::uint64_t agree = ~(memo.read(mask) ^ wi);
        for (std::size_t s = 0; s < t; ++s) agree_i += (agree >> drawn[s]) & 1;
      }
      ++out.pairs_probed;
      eliminate(i, j, t, agree_i, alive, wins);
    }
  }
  out.chosen = winner(k, alive, wins);
  out.probes = memo.seen_count();
  return out;
}

/// Scratch discipline: all buffers live in the per-thread RunWorkspace
/// (sel_* group) — the tournament runs millions of times per suite, so
/// per-call allocations were the dominant cost at scale. The play reads its
/// own bits through a WideProbeMemo whose planes are sel_memo_words.
SelectOutcome SelectTournament::play_general(PlayerId p, const SelectPlan& plan,
                                             ProtocolEnv& env, SelectKey& key,
                                             std::size_t probes_per_pair,
                                             std::size_t skip_below,
                                             bool deterministic) {
  const std::span<const ConstBitRow> candidates = plan.candidates_;
  const std::size_t k = candidates.size();
  SelectOutcome out;

  RunWorkspace& ws = env.workspace();
  WideProbeMemo memo = env.own_probe_memo(p, plan.objects_, ws.sel_memo_words);
  ws.sel_alive.assign(k, 1);
  ws.sel_wins.assign(k, 0);
  auto& alive = ws.sel_alive;
  auto& wins = ws.sel_wins;
  auto& hashes = ws.sel_hashes;
  if (deterministic) {
    // Per-pair streams are keyed on candidate content hashes; hash each
    // candidate once instead of twice per pair.
    hashes.resize(k);
    for (std::size_t i = 0; i < k; ++i) hashes[i] = candidates[i].content_hash();
  }
  auto& diff = ws.sel_diff;

  for (std::size_t i = 0; i < k; ++i) {
    if (!alive[i]) continue;
    for (std::size_t j = i + 1; j < k; ++j) {
      if (!alive[i]) break;
      if (!alive[j]) continue;
      // Word-parallel distance first: identical or skip_below-close pairs
      // (the common case once candidates converge) never materialize their
      // difference positions.
      if (!candidates[i].hamming_exceeds(candidates[j], skip_below)) continue;
      diff.clear();
      candidates[i].diff_positions_into(candidates[j], diff);

      const std::size_t t = std::min(probes_per_pair, diff.size());
      std::size_t agree_i = 0;
      if (diff.size() == 1) {
        // Every draw is the one coordinate: all t agree with i, or none.
        if (t != 0 && memo.read(diff[0]) == candidates[i].get(diff[0])) agree_i = t;
      } else {
        Rng stream = pair_stream(p, env, key, deterministic ? hashes.data() : nullptr, i, j);
        for (std::size_t s = 0; s < t; ++s) {
          const std::size_t coord = diff[stream.below(diff.size())];
          if (memo.read(coord) == candidates[i].get(coord)) ++agree_i;
        }
      }
      ++out.pairs_probed;
      eliminate(i, j, t, agree_i, alive, wins);
    }
  }
  out.chosen = winner(k, alive, wins);
  out.probes = memo.seen_count();
  return out;
}

SelectOutcome SelectTournament::prefiltered(PlayerId p, const SelectPlan& plan,
                                            ProtocolEnv& env, SelectKey& key,
                                            std::size_t probes_per_pair,
                                            std::size_t prefilter_probes,
                                            std::size_t max_finalists,
                                            std::size_t skip_below) {
  CS_ASSERT(max_finalists >= 1, "select_prefiltered: need at least one finalist");
  if (plan.size() <= max_finalists)
    return play(p, plan, env, key, probes_per_pair, skip_below, /*deterministic=*/true);

  const std::span<const ConstBitRow> candidates = plan.candidates_;
  const std::span<const ObjectId> objects = plan.objects_;
  SelectOutcome out;
  // Prefilter coordinates are drawn from the phase key: shared by every
  // player given the same key, per-player under a per-player key (as
  // SmallRadius passes). The t probes go through one batched charge instead
  // of t counter round-trips; the charge total is unchanged (duplicate
  // coordinates still pay, as before).
  //
  // Scratch comes from the pf_* workspace group — disjoint from the sel_*
  // buffers the inner tournament uses, because the finalist list must stay
  // alive across that call.
  RunWorkspace& ws = env.workspace();
  const std::uint64_t phase_key = key.get();
  Rng coords_rng(mix_keys(phase_key, 0x9ef1a7e4ULL));
  const std::size_t t = std::min(prefilter_probes, objects.size());
  auto& pf_coords = ws.pf_coords;
  auto& pf_objects = ws.pf_objects;
  pf_coords.resize(t);
  pf_objects.resize(t);
  for (std::size_t s = 0; s < t; ++s) {
    pf_coords[s] = coords_rng.below(objects.size());
    pf_objects[s] = objects[pf_coords[s]];
  }
  ws.pf_own_words.assign(bitkernel::word_count(t), 0);
  BitRow own_bits(ws.pf_own_words.data(), t);
  env.own_probe_bits(p, pf_objects, own_bits);
  out.probes += t;

  auto& scored = ws.pf_scored;  // (disagreements, idx)
  scored.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    std::size_t miss = 0;
    for (std::size_t s = 0; s < t; ++s)
      if (candidates[i].get(pf_coords[s]) != own_bits.get(s)) ++miss;
    scored.emplace_back(miss, i);
  }
  std::stable_sort(scored.begin(), scored.end());

  auto& finalists = ws.pf_finalists;
  auto& finalist_ids = ws.pf_finalist_ids;
  finalists.clear();
  finalist_ids.clear();
  for (std::size_t i = 0; i < max_finalists; ++i) {
    finalists.push_back(candidates[scored[i].second]);
    finalist_ids.push_back(scored[i].second);
  }

  const SelectPlan inner_plan(finalists, objects);
  SelectKey inner_key(phase_key, 0xf1a1ULL);
  const SelectOutcome inner = play(p, inner_plan, env, inner_key, probes_per_pair,
                                   skip_below, /*deterministic=*/true);
  out.chosen = finalist_ids[inner.chosen];
  out.probes += inner.probes;
  out.pairs_probed = inner.pairs_probed;
  return out;
}

SelectOutcome select_forced(PlayerId p, const SelectPlan& plan, ProtocolEnv& env,
                            std::size_t probes_per_pair) {
  const std::size_t c = plan.forced_coordinate();
  CS_ASSERT(c != SelectPlan::kNotForced, "select_forced: plan is not forced");
  SelectOutcome out;
  out.pairs_probed = 1;
  if (probes_per_pair == 0) return out;  // no draw: the 0-of-0 majority keeps 0
  std::uint64_t own = 0;
  env.own_probe_bits(p, plan.objects_.subspan(c, 1), BitRow(&own, 1));
  out.probes = 1;
  out.chosen = own == ((plan.words_[0] >> c) & 1) ? 0 : 1;
  return out;
}

SelectOutcome rselect(PlayerId p, std::span<const ConstBitRow> candidates,
                      std::span<const ObjectId> objects, ProtocolEnv& env,
                      std::uint64_t phase_key, std::size_t probes_per_pair) {
  const SelectPlan plan(candidates, objects);
  SelectKey key(phase_key);
  return SelectTournament::play(p, plan, env, key, probes_per_pair, /*skip_below=*/0,
                                /*deterministic=*/false);
}

SelectOutcome select_deterministic(PlayerId p, std::span<const ConstBitRow> candidates,
                                   std::span<const ObjectId> objects, ProtocolEnv& env,
                                   std::uint64_t phase_key,
                                   std::size_t probes_per_pair,
                                   std::size_t skip_below) {
  const SelectPlan plan(candidates, objects);
  SelectKey key(phase_key);
  return SelectTournament::play(p, plan, env, key, probes_per_pair, skip_below,
                                /*deterministic=*/true);
}

SelectOutcome select_prefiltered(PlayerId p, const SelectPlan& plan, ProtocolEnv& env,
                                 SelectKey phase_key, std::size_t probes_per_pair,
                                 std::size_t prefilter_probes,
                                 std::size_t max_finalists, std::size_t skip_below) {
  return SelectTournament::prefiltered(p, plan, env, phase_key, probes_per_pair,
                                       prefilter_probes, max_finalists, skip_below);
}

}  // namespace colscore
