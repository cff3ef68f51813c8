#include "src/protocols/election.hpp"

#include <algorithm>
#include <limits>

#include "src/common/assert.hpp"

namespace colscore {

namespace {

/// Greedy rushing strategy: given honest loads, the colluders pick the bin
/// where, after adding x of their own, the bin still wins and their fraction
/// x / (load + x) is maximal; leftover colluders pile onto the heaviest bin
/// (extra weight elsewhere can only help the chosen bin win).
/// Returns per-bin dishonest placements.
std::vector<std::size_t> place_colluders(const std::vector<std::size_t>& honest_load,
                                         std::size_t colluders) {
  const std::size_t m = honest_load.size();
  std::vector<std::size_t> placement(m, 0);
  if (colluders == 0) return placement;

  // The winning bin is the lightest non-empty (ties -> smallest index).
  auto winner_of = [&](const std::vector<std::size_t>& total) {
    std::size_t win = m;  // sentinel: none
    for (std::size_t b = 0; b < m; ++b) {
      if (total[b] == 0) continue;
      if (win == m || total[b] < total[win]) win = b;
    }
    return win;
  };

  double best_fraction = -1.0;
  std::size_t best_bin = m;
  std::size_t best_x = 0;
  for (std::size_t b = 0; b < m; ++b) {
    // Try to capture bin b with x colluders, x as large as possible while b
    // still wins (all other colluders go to the current heaviest bin).
    for (std::size_t x = colluders; x > 0; --x) {
      std::vector<std::size_t> total = honest_load;
      total[b] += x;
      // Dump the rest on the heaviest other bin.
      std::size_t heavy = b == 0 ? 1 : 0;
      for (std::size_t h = 0; h < m; ++h)
        if (h != b && total[h] > total[heavy]) heavy = h;
      if (heavy < m && heavy != b) total[heavy] += colluders - x;
      if (winner_of(total) != b) continue;
      const double fraction =
          static_cast<double>(x) / static_cast<double>(total[b]);
      if (fraction > best_fraction) {
        best_fraction = fraction;
        best_bin = b;
        best_x = x;
      }
      break;  // largest feasible x found for this bin
    }
  }

  if (best_bin == m) {
    // No capture possible; minimize damage by joining the currently winning
    // bin with everyone (keeps colluders alive if that bin still wins).
    std::size_t win = winner_of(honest_load);
    if (win == m) win = 0;
    placement[win] = colluders;
    return placement;
  }
  placement[best_bin] = best_x;
  std::size_t heavy = best_bin == 0 ? (m > 1 ? 1 : 0) : 0;
  for (std::size_t h = 0; h < m; ++h) {
    if (h == best_bin) continue;
    if (honest_load[h] > honest_load[heavy] || heavy == best_bin) heavy = h;
  }
  if (heavy != best_bin) placement[heavy] += colluders - best_x;
  return placement;
}

}  // namespace

ElectionResult feige_election(ProtocolEnv& env, std::uint64_t phase_key,
                              const ElectionParams& params) {
  ElectionResult result;
  std::vector<PlayerId> remaining(env.n_players());
  for (PlayerId p = 0; p < remaining.size(); ++p) remaining[p] = p;

  std::size_t round = 0;
  while (remaining.size() > 1 && round < params.max_rounds) {
    const std::uint64_t round_key = mix_keys(phase_key, 0xe1ec7ULL, round);
    const std::size_t m =
        std::max<std::size_t>(2, remaining.size() / params.bin_load);

    // Honest players announce first (their choices are local randomness).
    std::vector<std::size_t> honest_load(m, 0);
    std::vector<PlayerId> honest_in_bin_order;  // stable registry per bin
    std::vector<std::vector<PlayerId>> bin_members(m);
    std::size_t colluders = 0;
    std::vector<PlayerId> dishonest;
    for (PlayerId p : remaining) {
      if (env.population.is_honest(p)) {
        Rng local = env.local_rng(p, round_key);
        const std::size_t b = local.below(m);
        ++honest_load[b];
        bin_members[b].push_back(p);
        env.board.post_report(round_key, p, static_cast<ObjectId>(b), true);
      } else {
        ++colluders;
        dishonest.push_back(p);
      }
    }

    // Rushing colluders answer last.
    const std::vector<std::size_t> placement = place_colluders(honest_load, colluders);
    std::size_t cursor = 0;
    for (std::size_t b = 0; b < m && cursor < dishonest.size(); ++b) {
      for (std::size_t x = 0; x < placement[b] && cursor < dishonest.size(); ++x) {
        bin_members[b].push_back(dishonest[cursor]);
        env.board.post_report(round_key, dishonest[cursor], static_cast<ObjectId>(b),
                              true);
        ++cursor;
      }
    }
    // Any stragglers (placement underflow) go to bin 0.
    for (; cursor < dishonest.size(); ++cursor)
      bin_members[0].push_back(dishonest[cursor]);

    // Lightest non-empty bin survives.
    std::size_t win = m;
    for (std::size_t b = 0; b < m; ++b) {
      if (bin_members[b].empty()) continue;
      if (win == m || bin_members[b].size() < bin_members[win].size()) win = b;
    }
    CS_ASSERT(win < m, "election: no non-empty bin");

    if (bin_members[win].size() == remaining.size() && m >= remaining.size()) {
      // Degenerate no-progress round with maximal bin count: drop the last
      // announcer to force termination (cannot happen with > 1 bin occupied).
      bin_members[win].pop_back();
    }
    remaining = std::move(bin_members[win]);
    ++round;
  }

  result.rounds = round;
  result.leader = remaining.empty() ? kInvalidPlayer : remaining.front();
  result.leader_honest =
      result.leader != kInvalidPlayer && env.population.is_honest(result.leader);
  return result;
}

}  // namespace colscore
