// Equivalence of the planned Select tournament with a reference model.
//
// A SelectPlan is built once per candidate set and played per player; the
// per-call entry points (rselect, select_deterministic) build one per call.
// Both must reproduce the Fig. 1 tournament exactly as the reference below
// spells it out — one probe per first-seen coordinate, per-pair streams
// keyed on content hashes (Select) or indices and local randomness
// (RSelect), every draw made even when a pair differs in one coordinate or
// the player's own bits already decide it — in the chosen index, the probe
// and pair counts, and every player's charges. The trials sweep k = 1..16
// over 0..64 objects (the small plan) plus wider universes (the general
// path), with duplicate candidates, forced pairs, decided pairs and
// skip_below > 0, for honest and dishonest players under both oracle budget
// modes. select_forced, the closed form SmallRadius uses for forced plans,
// must agree with the small tournament on every forced shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/model/generators.hpp"
#include "src/protocols/select.hpp"
#include "tests/test_util.hpp"

namespace colscore {
namespace {

constexpr std::size_t kPlayers = 6;
constexpr std::size_t kObjects = 160;

constexpr std::size_t kHonest = 4;

/// One oracle/env stack over a shared world; players 4 and 5 are dishonest.
struct Stack {
  Population population;
  ProbeOracle oracle;
  BulletinBoard board;
  HonestBeacon beacon{7};
  ProtocolEnv env;

  explicit Stack(const World& world,
                 ProbeOracle::BudgetMode mode = ProbeOracle::BudgetMode::kTrack,
                 std::uint64_t budget = 0,
                 const ExecPolicy& policy = testutil::pool_policy())
      : population(world.n_players()),
        oracle(world.matrix, mode, budget),
        env(oracle, board, population, beacon, 0x5e1ec7ULL, policy) {
    oracle.bind_policy(env.policy);
    population.set_behavior(4, std::make_unique<Inverter>());
    population.set_behavior(5, std::make_unique<RandomLiar>());
  }
};

// ---- reference model --------------------------------------------------------

/// What a sweep exercised, counted by the reference.
struct Coverage {
  std::size_t pairs = 0;        // pairs probed
  std::size_t forced = 0;       // ... differing in exactly one coordinate
  std::size_t decided = 0;      // ... in 2+ coordinates, on all of which the
                                //     player's bits side with one candidate
  std::size_t decided_read = 0;    // ... all of whose coordinates are probed
  std::size_t decided_billed = 0;  // ... whose draws reach an unprobed one
  std::size_t identical = 0;    // pairs skipped as identical
  std::size_t skipped = 0;      // pairs skipped by skip_below > 0
  std::size_t prefilters = 0;   // prefilter rounds
};
Coverage coverage;

SelectOutcome reference_tournament(PlayerId p, std::span<const ConstBitRow> cands,
                                   std::span<const ObjectId> objects, ProtocolEnv& env,
                                   std::uint64_t key, std::size_t probes_per_pair,
                                   std::size_t skip_below, bool deterministic) {
  SelectOutcome out;
  const std::size_t k = cands.size();
  if (k == 1) return out;
  std::vector<char> probed(objects.size(), 0);
  std::vector<char> value(objects.size(), 0);
  std::vector<char> alive(k, 1);
  std::vector<std::size_t> wins(k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      if (!alive[i] || !alive[j]) continue;
      std::vector<std::size_t> diff;
      for (std::size_t c = 0; c < objects.size(); ++c)
        if (cands[i].get(c) != cands[j].get(c)) diff.push_back(c);
      if (diff.empty()) ++coverage.identical;
      if (!diff.empty() && diff.size() <= skip_below) ++coverage.skipped;
      if (diff.empty() || diff.size() <= skip_below) continue;
      if (diff.size() == 1) ++coverage.forced;
      // Coverage only: whether v(p) sides with one candidate on the whole
      // difference, read without a charge.
      std::size_t own_agree = 0;
      for (const std::size_t c : diff)
        own_agree += env.oracle.adversary_peek(p, objects[c]) == cands[i].get(c);
      const bool decided =
          diff.size() >= 2 && (own_agree == 0 || own_agree == diff.size());
      const bool all_read =
          std::all_of(diff.begin(), diff.end(), [&](std::size_t c) { return probed[c] != 0; });
      const std::size_t probes_before = out.probes;
      Rng stream = deterministic
                       ? Rng(mix_keys(key, cands[i].content_hash(), cands[j].content_hash()))
                       : env.local_rng(p, mix_keys(key, i * 1315423911ULL + j));
      const std::size_t t = std::min(probes_per_pair, diff.size());
      std::size_t agree_i = 0;
      for (std::size_t s = 0; s < t; ++s) {
        const std::size_t c = diff[stream.below(diff.size())];
        if (!probed[c]) {
          probed[c] = 1;
          value[c] = env.own_probe(p, objects[c]);
          ++out.probes;
        }
        if (static_cast<bool>(value[c]) == cands[i].get(c)) ++agree_i;
      }
      ++out.pairs_probed;
      ++coverage.pairs;
      coverage.decided += decided;
      coverage.decided_read += decided && all_read;
      coverage.decided_billed += decided && out.probes > probes_before;
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
  }
  bool found = false;
  for (std::size_t i = 0; i < k; ++i) {
    if (alive[i] && (!found || wins[i] > wins[out.chosen])) {
      out.chosen = i;
      found = true;
    }
  }
  return out;
}

SelectOutcome reference_prefiltered(PlayerId p, std::span<const ConstBitRow> cands,
                                    std::span<const ObjectId> objects, ProtocolEnv& env,
                                    std::uint64_t key, std::size_t probes_per_pair,
                                    std::size_t prefilter_probes,
                                    std::size_t max_finalists, std::size_t skip_below) {
  if (cands.size() <= max_finalists)
    return reference_tournament(p, cands, objects, env, key, probes_per_pair, skip_below,
                                true);
  SelectOutcome out;
  ++coverage.prefilters;
  Rng coords_rng(mix_keys(key, 0x9ef1a7e4ULL));
  const std::size_t t = std::min(prefilter_probes, objects.size());
  std::vector<std::size_t> coords(t);
  std::vector<char> own(t);
  for (std::size_t s = 0; s < t; ++s) coords[s] = coords_rng.below(objects.size());
  for (std::size_t s = 0; s < t; ++s) own[s] = env.own_probe(p, objects[coords[s]]);
  out.probes += t;
  std::vector<std::pair<std::size_t, std::size_t>> scored;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    std::size_t miss = 0;
    for (std::size_t s = 0; s < t; ++s)
      if (cands[i].get(coords[s]) != static_cast<bool>(own[s])) ++miss;
    scored.emplace_back(miss, i);
  }
  std::stable_sort(scored.begin(), scored.end());
  std::vector<ConstBitRow> finalists;
  for (std::size_t i = 0; i < max_finalists; ++i) finalists.push_back(cands[scored[i].second]);
  const SelectOutcome inner =
      reference_tournament(p, finalists, objects, env, mix_keys(key, 0xf1a1ULL),
                           probes_per_pair, skip_below, true);
  out.chosen = scored[inner.chosen].second;
  out.probes += inner.probes;
  out.pairs_probed = inner.pairs_probed;
  return out;
}

// ---- random instances -------------------------------------------------------

/// A candidate set over `nbits` scattered objects. Candidates stay close to
/// each other (mostly 0-2 flips off player `around`'s truth), so duplicates,
/// pairs differing in one coordinate and pairs that player's bits decide are
/// common.
struct Instance {
  std::vector<ObjectId> objects;
  std::vector<BitVector> candidates;
  std::vector<ConstBitRow> views;
};

Instance random_instance(const World& world, std::size_t k, std::size_t nbits, Rng& rng,
                         PlayerId around = 0) {
  Instance inst;
  std::vector<ObjectId> all(kObjects);
  for (ObjectId o = 0; o < kObjects; ++o) all[o] = o;
  for (std::size_t s = 0; s < nbits; ++s)
    std::swap(all[s], all[s + rng.below(kObjects - s)]);
  inst.objects.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(nbits));
  if (rng.below(4) == 0) std::sort(inst.objects.begin(), inst.objects.end());
  const BitVector base = world.matrix.row(around).gather(inst.objects);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t kind = rng.below(8);
    if (i > 0 && kind == 0) {
      inst.candidates.push_back(inst.candidates[rng.below(i)]);  // duplicate
      continue;
    }
    BitVector c = base;
    if (kind == 1) {
      c.randomize(rng);
    } else if (nbits != 0) {
      c.flip_random(rng, std::min<std::size_t>(nbits, rng.below(3)));
    }
    inst.candidates.push_back(std::move(c));
  }
  inst.views.assign(inst.candidates.begin(), inst.candidates.end());
  return inst;
}

void expect_same(const SelectOutcome& got, const SelectOutcome& want, const char* what,
                 std::size_t trial, PlayerId p) {
  EXPECT_EQ(got.chosen, want.chosen) << what << " trial=" << trial << " p=" << p;
  EXPECT_EQ(got.probes, want.probes) << what << " trial=" << trial << " p=" << p;
  EXPECT_EQ(got.pairs_probed, want.pairs_probed) << what << " trial=" << trial << " p=" << p;
}

/// Runs `trials` random instances through the reference (on `ref`) and the
/// planned tournament (on `got`), comparing every outcome and, at the end,
/// every player's charges. Each instance is built around one honest
/// player's truth, in turn, and its plan is built once and played by every
/// player.
void compare_trials(const World& world, Stack& ref, Stack& got, std::size_t trials,
                    std::uint64_t seed, bool wide) {
  Rng rng(seed);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const std::size_t k = 1 + rng.below(SelectPlan::kSmallK);
    const std::size_t nbits = wide ? 65 + rng.below(kObjects - 64) : rng.below(65);
    const Instance inst =
        random_instance(world, k, nbits, rng, static_cast<PlayerId>(trial % kHonest));
    const std::size_t per_pair = 1 + rng.below(14);
    const std::size_t skip = rng.below(3) == 0 ? 1 + rng.below(3) : 0;
    const std::size_t prefilter = 1 + rng.below(20);
    const std::size_t finalists = 1 + rng.below(10);
    const std::uint64_t base = rng();

    const SelectPlan plan(inst.views, inst.objects);
    for (PlayerId p = 0; p < world.n_players(); ++p) {
      const std::uint64_t key = mix_keys(base, p);
      expect_same(select_deterministic(p, inst.views, inst.objects, got.env, key,
                                       per_pair, skip),
                  reference_tournament(p, inst.views, inst.objects, ref.env, key,
                                       per_pair, skip, true),
                  "select_deterministic", trial, p);
      expect_same(rselect(p, inst.views, inst.objects, got.env, key, per_pair),
                  reference_tournament(p, inst.views, inst.objects, ref.env, key,
                                       per_pair, 0, false),
                  "rselect", trial, p);
      expect_same(select_prefiltered(p, plan, got.env, SelectKey(base, p), per_pair,
                                     prefilter, finalists, skip),
                  reference_prefiltered(p, inst.views, inst.objects, ref.env, key,
                                        per_pair, prefilter, finalists, skip),
                  "select_prefiltered", trial, p);
    }
  }
  for (PlayerId p = 0; p < world.n_players(); ++p)
    EXPECT_EQ(got.oracle.probes_by(p), ref.oracle.probes_by(p)) << "p=" << p;
}

World test_world() { return uniform_random(kPlayers, kObjects, Rng(0x5e1)); }

TEST(SelectPlan, SmallPlansMatchReference) {
  const World world = test_world();
  Stack ref(world);
  Stack got(world);
  coverage = {};
  compare_trials(world, ref, got, 600, 1, /*wide=*/false);
  // The sweep must reach every case the plan treats specially.
  EXPECT_GT(coverage.pairs, 1000u);
  EXPECT_GT(coverage.forced, 200u);
  EXPECT_GT(coverage.identical, 200u);
  EXPECT_GT(coverage.skipped, 50u);
  EXPECT_GT(coverage.prefilters, 200u);
  // Decided pairs: the play skips the draws of those already read and must
  // bill the draws of those that are not.
  EXPECT_GT(coverage.decided, 2000u);
  EXPECT_GT(coverage.decided_read, 1000u);
  EXPECT_GT(coverage.decided_billed, 1000u);
  EXPECT_EQ(ref.oracle.probes_by(4), 0u);  // dishonest players peek for free
  EXPECT_GT(ref.oracle.probes_by(0), 0u);
}

TEST(SelectPlan, WidePlansMatchReference) {
  const World world = test_world();
  Stack ref(world);
  Stack got(world);
  coverage = {};
  compare_trials(world, ref, got, 120, 2, /*wide=*/true);
  EXPECT_GT(coverage.pairs, 200u);
  EXPECT_GT(coverage.forced, 20u);
}

TEST(SelectPlan, HardBudgetChargesMatchReference) {
  // Size a kHard budget to the reference's largest bill, then replay the
  // same sweep against it: one probe too many aborts.
  const World world = test_world();
  std::uint64_t budget = 0;
  {
    Stack ref(world);
    Stack got(world);
    compare_trials(world, ref, got, 200, 3, /*wide=*/false);
    budget = ref.oracle.max_probes();
  }
  Stack ref(world);
  Stack got(world, ProbeOracle::BudgetMode::kHard, budget);
  compare_trials(world, ref, got, 200, 3, /*wide=*/false);
  EXPECT_EQ(got.oracle.max_probes(), budget);
}

TEST(SelectPlan, ForcedPairProbesItsOneCoordinate) {
  const World world = test_world();
  Stack got(world);
  const std::vector<ObjectId> objects = {3, 17, 40, 99};
  BitVector truth = world.matrix.row(0).gather(objects);
  BitVector other = truth;
  other.flip(2);
  const std::vector<ConstBitRow> views = {other, truth};
  const SelectPlan plan(views, objects);
  for (std::uint64_t base = 1; base <= 8; ++base) {
    const SelectOutcome out =
        select_prefiltered(0, plan, got.env, SelectKey(base, 0), 12, 16, 8, 0);
    EXPECT_EQ(out.chosen, 1u);
    EXPECT_EQ(out.probes, 1u);
    EXPECT_EQ(out.pairs_probed, 1u);
  }
  EXPECT_EQ(got.oracle.probes_by(0), 8u);
}

// ---- forced plans -----------------------------------------------------------

/// Settles every forced shape in closed form on `got` and plays the small
/// tournament on `ref`: universes of 1..64 objects, every decision
/// coordinate c, both truth bits on it, probes_per_pair 0, 1 and 12, every
/// player (4 and 5 are dishonest). The winner must be candidate 0 with
/// coordinate c set to the player's own bit (left as is when nothing is
/// probed).
void compare_forced(const World& world, Stack& ref, Stack& got) {
  Rng rng(0xf0ced);
  std::vector<ObjectId> all(kObjects);
  for (ObjectId o = 0; o < kObjects; ++o) all[o] = o;
  for (std::size_t u = 1; u <= 64; ++u) {
    for (std::size_t c = 0; c < u; ++c) {
      for (const bool truth : {false, true}) {
        for (PlayerId p = 0; p < world.n_players(); ++p) {
          // A random universe whose coordinate c is an object on which p's
          // truth is `truth`, drawn from outside the rest of the universe.
          for (std::size_t s = 0; s < kObjects; ++s)
            std::swap(all[s], all[s + rng.below(kObjects - s)]);
          const auto rest = all.begin() + static_cast<std::ptrdiff_t>(u);
          std::vector<ObjectId> objects(all.begin(), rest);
          const auto decision = std::find_if(rest, all.end(), [&](ObjectId o) {
            return world.matrix.preference(p, o) == truth;
          });
          ASSERT_NE(decision, all.end());
          objects[c] = *decision;
          BitVector w0(u);
          w0.randomize(rng);
          BitVector w1 = w0;
          w1.flip(c);
          const std::vector<ConstBitRow> views = {w0, w1};
          const SelectPlan plan(views, objects);
          ASSERT_EQ(plan.forced_coordinate(), c);
          for (const std::size_t per_pair : {0u, 1u, 12u}) {
            const SelectOutcome settled = select_forced(p, plan, got.env, per_pair);
            expect_same(settled,
                        select_deterministic(p, views, objects, ref.env, rng(), per_pair, 0),
                        "select_forced", u * 64 + c, p);
            EXPECT_EQ(views[settled.chosen].get(c), per_pair == 0 ? w0.get(c) : truth)
                << "u=" << u << " c=" << c << " p=" << p;
          }
        }
      }
    }
  }
  for (PlayerId p = 0; p < world.n_players(); ++p)
    EXPECT_EQ(got.oracle.probes_by(p), ref.oracle.probes_by(p)) << "p=" << p;
}

TEST(SelectPlan, ForcedClosedFormMatchesTournament) {
  const World world = test_world();
  Stack ref(world);
  Stack got(world);
  compare_forced(world, ref, got);
  EXPECT_EQ(got.oracle.probes_by(4), 0u);  // dishonest players peek for free
  EXPECT_EQ(got.oracle.probes_by(5), 0u);
  EXPECT_GT(got.oracle.probes_by(0), 0u);

  // The same sweep against a kHard budget set to the largest bill.
  const std::uint64_t budget = ref.oracle.max_probes();
  Stack ref_hard(world);
  Stack got_hard(world, ProbeOracle::BudgetMode::kHard, budget);
  compare_forced(world, ref_hard, got_hard);
  EXPECT_EQ(got_hard.oracle.max_probes(), budget);
}

TEST(SelectPlan, OnlyTwoCandidatesOneApartAreForced) {
  const std::vector<ObjectId> objects = {3, 17, 40, 99};
  BitVector a(4), b(4), c(4);
  b.flip(1);
  c.flip(1);
  c.flip(3);
  const auto forced = [&](std::vector<ConstBitRow> views) {
    return SelectPlan(views, objects).forced_coordinate();
  };
  EXPECT_EQ(forced({a, b}), 1u);
  EXPECT_EQ(forced({b, a}), 1u);
  EXPECT_EQ(forced({a, c}), SelectPlan::kNotForced);      // two coordinates apart
  EXPECT_EQ(forced({a, b, c}), SelectPlan::kNotForced);   // three candidates
  EXPECT_EQ(forced({a}), SelectPlan::kNotForced);
  EXPECT_EQ(forced({a, a}), SelectPlan::kNotForced);      // identical
  const std::vector<ObjectId> wide(65, 0);
  BitVector x(65), y(65);
  y.flip(64);
  const std::vector<ConstBitRow> wide_views = {x, y};
  EXPECT_EQ(SelectPlan(wide_views, wide).forced_coordinate(), SelectPlan::kNotForced);
}

TEST(SelectPlan, SharedPlanAcrossWorkersMatchesSerial) {
  // One plan per candidate set, played by every player from a pool: the
  // outcomes and charges must equal a serial run.
  const World world = uniform_random(96, kObjects, Rng(0x5e2));
  ThreadPool pool(4);
  Stack serial(world, ProbeOracle::BudgetMode::kTrack, 0, ExecPolicy::serial());
  Stack pooled(world, ProbeOracle::BudgetMode::kTrack, 0, ExecPolicy::pool(pool));
  Rng rng(4);
  for (std::size_t trial = 0; trial < 40; ++trial) {
    const Instance inst = random_instance(world, 2 + rng.below(15), 1 + rng.below(64), rng);
    const SelectPlan plan(inst.views, inst.objects);
    const std::uint64_t base = rng();
    std::vector<SelectOutcome> want(world.n_players());
    std::vector<SelectOutcome> got(world.n_players());
    serial.env.par_for(0, world.n_players(), [&](std::size_t i) {
      const auto p = static_cast<PlayerId>(i);
      want[i] = select_prefiltered(p, plan, serial.env, SelectKey(base, p), 8, 12, 4, 0);
    });
    pooled.env.par_for(0, world.n_players(), [&](std::size_t i) {
      const auto p = static_cast<PlayerId>(i);
      got[i] = select_prefiltered(p, plan, pooled.env, SelectKey(base, p), 8, 12, 4, 0);
    });
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_same(got[i], want[i], "pooled", trial, static_cast<PlayerId>(i));
  }
  for (PlayerId p = 0; p < world.n_players(); ++p)
    EXPECT_EQ(pooled.oracle.probes_by(p), serial.oracle.probes_by(p)) << "p=" << p;
}

}  // namespace
}  // namespace colscore
