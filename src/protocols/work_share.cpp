#include "src/protocols/work_share.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "src/common/assert.hpp"
#include "src/common/workspace.hpp"

namespace colscore {

// The voting loop is the hottest probe path in CalculatePreferences: every
// cluster charges votes_per_object probes per object. Instead of one charged
// probe per (object, vote) — which hammers the per-player atomic counters —
// the loop materialises the shared-random voter assignment first, groups the
// slots by voter, and lets each honest voter answer its whole slate with one
// ProbeOracle::probe_gather (one charge round-trip per voter; the gather
// builds the slate's words in registers). Verdicts and board reports are
// identical to the one-probe-at-a-time formulation: assignments, tie-break
// coins, and per-slot RNG streams are all derived from stable keys, never
// from execution order, and the cluster's reports post as one object-major
// block. Assignment/report buffers come from the per-worker workspace (vt_*
// group) so back-to-back clusters and grid cells reuse them.
BitVector cluster_votes(std::span<const PlayerId> members, ProtocolEnv& env,
                        std::uint64_t phase_key, const WorkShareParams& params,
                        WorkShareStats* stats, std::span<const std::size_t> weights) {
  CS_ASSERT(!members.empty(), "cluster_votes: empty cluster");
  CS_ASSERT(weights.empty() || weights.size() == members.size(),
            "cluster_votes: one weight per member");
  const std::size_t n_objects = env.n_objects();
  const std::size_t k = params.votes_per_object;
  const std::size_t n_slots = n_objects * k;
  RunWorkspace& ws = env.workspace();

  // Phase 1: derive the voter assignment and tie-break coins from the shared
  // randomness (with an honest beacon the adversary cannot aim its members
  // at chosen objects). slot = object * k + vote_index. Each vote draws one
  // of `total` tickets; member m holds max(weights[m], 1) consecutive ones
  // (prefix sums in `tickets`). Unweighted, ticket m is member m's only one.
  std::vector<std::uint64_t> tickets(weights.size());
  std::uint64_t total = members.size();
  if (!weights.empty()) {
    std::transform(weights.begin(), weights.end(), tickets.begin(),
                   [](std::size_t w) { return std::max<std::uint64_t>(w, 1); });
    std::partial_sum(tickets.begin(), tickets.end(), tickets.begin());
    total = tickets.back();
  }
  auto& voter_of = ws.vt_voter_of;
  auto& tie_coin = ws.vt_tie_coin;
  voter_of.resize(n_slots);
  tie_coin.resize(n_objects);
  env.par_for(0, n_objects, [&](std::size_t o) {
    Rng assign = env.shared_rng(mix_keys(phase_key, 0xa551ULL, o));
    for (std::size_t v = 0; v < k; ++v) {
      const std::uint64_t pick = assign.below(total);
      voter_of[o * k + v] = static_cast<std::uint32_t>(
          tickets.empty() ? pick
                          : std::upper_bound(tickets.begin(), tickets.end(), pick) -
                                tickets.begin());
    }
    // Drawn unconditionally so the coin only depends on the assignment
    // stream position, not on whether a tie actually occurs.
    tie_coin[o] = (assign() & 1) != 0 ? 1 : 0;
  });

  // Phase 2: group slots by voter (counting sort — slot order within a voter
  // follows slot index, so batches are deterministic).
  auto& offsets = ws.vt_offsets;
  offsets.assign(members.size() + 1, 0);
  for (std::uint32_t m : voter_of) ++offsets[m + 1];
  for (std::size_t m = 1; m <= members.size(); ++m) offsets[m] += offsets[m - 1];
  auto& slots_of_voter = ws.vt_slots_of_voter;
  slots_of_voter.resize(n_slots);
  {
    auto& cursor = ws.vt_cursor;
    cursor.assign(offsets.begin(), offsets.end() - 1);
    for (std::size_t slot = 0; slot < n_slots; ++slot)
      slots_of_voter[cursor[voter_of[slot]]++] = static_cast<std::uint32_t>(slot);
  }

  // Phase 3: each voter answers its slate. Honest voters batch-probe through
  // the bit pipeline; dishonest voters go through their behaviour slot by
  // slot with the same (phase_key, object, vote) RNG streams the serial
  // formulation used. Each voter writes the reports of its own slots. Bodies
  // use their own worker's vt_slate_* scratch, disjoint from the caller's
  // buffers above.
  const ReportContext ctx{Phase::kVote, phase_key};
  auto& reports = ws.vt_reports;
  reports.resize(n_slots);
  env.par_for(0, members.size(), [&](std::size_t m) {
    const PlayerId voter = members[m];
    const std::span<const std::uint32_t> slate{
        slots_of_voter.data() + offsets[m], offsets[m + 1] - offsets[m]};
    if (slate.empty()) return;
    if (env.population.is_honest(voter)) {
      RunWorkspace& tws = env.workspace();
      auto& objects = tws.vt_slate_objects;
      objects.resize(slate.size());
      for (std::size_t i = 0; i < slate.size(); ++i)
        objects[i] = static_cast<ObjectId>(slate[i] / k);
      tws.vt_slate_words.assign(bitkernel::word_count(slate.size()), 0);
      BitRow bits(tws.vt_slate_words.data(), slate.size());
      env.oracle.probe_gather(voter, objects, bits);
      for (std::size_t i = 0; i < slate.size(); ++i)
        reports[slate[i]] = ProbeReport{voter, objects[i], bits.get(i)};
    } else {
      for (std::uint32_t slot : slate) {
        const auto object = static_cast<ObjectId>(slot / k);
        const std::size_t v = slot % k;
        Rng vote_rng = env.local_rng(voter, mix_keys(phase_key, object, v));
        reports[slot] = ProbeReport{
            voter, object,
            env.population.report_of(voter, object, env.oracle, ctx, vote_rng)};
      }
    }
  });

  // Phase 4: post the reports and take majorities. Slots are object-major,
  // the order the serial formulation posted in, so the whole cluster's
  // reports post as one block in one board round-trip.
  env.board.post_reports(phase_key, reports);
  std::atomic<std::uint64_t> ties{0};
  auto& verdicts = ws.vt_verdicts;
  verdicts.assign(n_objects, 0);
  env.par_for(0, n_objects, [&](std::size_t o) {
    std::size_t ones = 0;
    for (std::size_t v = 0; v < k; ++v) ones += reports[o * k + v].value ? 1 : 0;
    const std::size_t zeros = k - ones;
    bool verdict;
    if (ones > zeros) {
      verdict = true;
    } else if (zeros > ones) {
      verdict = false;
    } else {
      verdict = tie_coin[o] != 0;  // shared tie-break coin
      ties.fetch_add(1, std::memory_order_relaxed);
    }
    verdicts[o] = verdict ? 1 : 0;
  });

  BitVector prediction(n_objects);
  for (std::size_t o = 0; o < n_objects; ++o) prediction.set(o, verdicts[o] != 0);

  if (stats != nullptr) {
    stats->reports += n_slots;
    stats->ties += ties.load();
  }
  return prediction;
}

bool cluster_budget_ok(std::span<const std::size_t> budgets, std::size_t n_objects,
                       std::size_t votes_per_object) {
  const std::uint64_t total =
      std::accumulate(budgets.begin(), budgets.end(), std::uint64_t{0});
  return total >= static_cast<std::uint64_t>(n_objects) * votes_per_object;
}

}  // namespace colscore
