// CalculatePreferences (Fig. 2) and its Byzantine-tolerant wrapper (§7).
//
// The core loop guesses the correlation diameter D = 2^d, and for each guess:
//   1.b  draws a shared-random sample S with rate ~ 10 ln n / D,
//   1.c  estimates every player's preferences on S via SmallRadius,
//   1.d  builds the neighbor graph on the estimates and clusters players
//        into groups of >= n/B,
//   1.e  splits the probing of all n objects across each cluster with
//        Θ(log n)-redundant majority voting,
//   2    finally each player RSelects among the per-guess candidates.
//
// The robust wrapper repeats the whole protocol under leaders chosen by
// Byzantine leader election; candidates produced under dishonest leaders are
// discarded by a final RSelect (§7.1).
#pragma once

#include <functional>
#include <memory>

#include "src/core/params.hpp"
#include "src/core/result.hpp"
#include "src/protocols/election.hpp"
#include "src/protocols/env.hpp"

namespace colscore {

/// One full execution of Fig. 2 using env.beacon as the shared randomness.
/// In the honest-players setting (§6) this is the complete algorithm.
ProtocolResult calculate_preferences(ProtocolEnv& env, const Params& params,
                                     std::uint64_t phase_key);

struct RobustParams {
  Params inner;
  /// Θ(log n) in the paper; each repetition elects a leader and reruns
  /// CalculatePreferences under that leader's beacon.
  std::size_t outer_reps = 3;
  ElectionParams election;
  /// Beacon used when a dishonest leader wins. Defaults to a predictable
  /// (non-random) beacon; experiments can supply a grinding beacon.
  std::function<std::unique_ptr<RandomnessBeacon>(std::uint64_t rep_key,
                                                  PlayerId leader)>
      dishonest_beacon;
  /// Root seed for honest leaders' published bits.
  std::uint64_t beacon_seed = 0xbea0c5eedULL;
};

struct RobustResult {
  ProtocolResult result;
  std::vector<ElectionResult> elections;
  std::size_t honest_leader_reps = 0;
};

/// §7: leader election + repeated CalculatePreferences + final RSelect.
/// Every inner ProtocolEnv (and so every parallel loop) runs under `policy`.
RobustResult robust_calculate_preferences(
    ProbeOracle& oracle, BulletinBoard& board, const Population& population,
    const RobustParams& params, std::uint64_t phase_key,
    std::uint64_t local_seed = 0x10ca1ULL,
    const ExecPolicy& policy = ExecPolicy::serial());

}  // namespace colscore
