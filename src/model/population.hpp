// Population = behaviour table for all n players, plus the two interaction
// helpers every protocol uses:
//   * report_of:   obtain the bit a player reports about an object
//                  (honest -> charged oracle probe of the truth;
//                   dishonest -> free omniscient lie)
//   * publication: obtain the vector a player publishes for an object subset.
//
// Centralizing these keeps the paper's information-flow rules (§2: a player
// learns a preference only by probing it, while Byzantine players are
// omniscient) in one place: honest players pay probes and never lie;
// dishonest players never pay and may say anything.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/board/probe_oracle.hpp"
#include "src/model/behavior.hpp"

namespace colscore {

class Population {
 public:
  explicit Population(std::size_t n_players);

  std::size_t size() const noexcept { return behaviors_.size(); }

  /// Replaces player p's behaviour (default-constructed players are honest).
  void set_behavior(PlayerId p, std::unique_ptr<Behavior> behavior);

  /// O(1) cached flag (set_behavior keeps it in sync) — this sits on every
  /// probe-charging decision, so it must not cost a virtual call.
  bool is_honest(PlayerId p) const {
    CS_ASSERT(p < honest_.size(), "is_honest: bad player");
    return honest_[p] != 0;
  }
  std::size_t honest_count() const;
  std::size_t dishonest_count() const { return size() - honest_count(); }
  std::vector<PlayerId> honest_players() const;
  std::vector<PlayerId> dishonest_players() const;

  Behavior& behavior(PlayerId p) const;

  /// The bit player p reports about object o in context ctx. Honest players
  /// probe (charged via oracle) and report truthfully; dishonest players
  /// peek for free and report whatever their strategy says.
  bool report_of(PlayerId p, ObjectId o, ProbeOracle& oracle, const ReportContext& ctx,
                 Rng& rng) const;

  /// The vector player p publishes when protocol-compliant content is
  /// `honest_vector` over the subset `objects`.
  BitVector publication(PlayerId p, const BitVector& honest_vector,
                        std::span<const ObjectId> objects, const ReportContext& ctx,
                        Rng& rng) const;

  // ---- construction helpers ----------------------------------------------

  /// All-honest population.
  static Population honest(std::size_t n_players);

  /// Marks `count` players dishonest, chosen uniformly (excluding
  /// `protected_player` if valid), each getting a behaviour from `factory`.
  void corrupt_random(std::size_t count, Rng& rng,
                      const std::function<std::unique_ptr<Behavior>()>& factory,
                      PlayerId protected_player = kInvalidPlayer);

 private:
  std::vector<std::unique_ptr<Behavior>> behaviors_;
  std::vector<std::uint8_t> honest_;  // behaviors_[p]->honest(), cached
};

}  // namespace colscore
