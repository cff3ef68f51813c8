// Equivalence guarantees for the word-level probe pipeline (PR 3).
//
// probe_row / probe_gather / own_probe_bits must be indistinguishable from
// the per-bit probe() formulation in both directions the protocol observes:
// the bits returned, and the per-player probe charges. A ProbeMemo (and
// its wide form) must be indistinguishable from probe() behind a
// per-coordinate memo, with its bill charged once, when it goes out of
// scope. The fixed-seed
// charge-hash tests at the bottom pin the whole pipeline's accounting
// against values captured on the pre-PR tree.
#include <gtest/gtest.h>

#include <bit>

#include "src/common/exec_policy.hpp"
#include "src/core/calculate_preferences.hpp"
#include "src/model/generators.hpp"
#include "src/protocols/env.hpp"
#include "src/sim/registry.hpp"
#include "tests/test_util.hpp"

namespace colscore {
namespace {

PreferenceMatrix random_matrix(std::size_t players, std::size_t objects,
                               std::uint64_t seed) {
  PreferenceMatrix m(players, objects);
  Rng rng(seed);
  for (PlayerId p = 0; p < players; ++p) m.row(p).randomize(rng);
  return m;
}

TEST(ProbePipeline, RowReadsMatchPerBitPreference) {
  // probe_row and adversary_peek_row move truth bits with word-level
  // extract_bits; check them against the per-bit PreferenceMatrix reference
  // for every alignment, including cross-word ranges, and check that the
  // padding past n comes back zero even over an all-ones output buffer.
  for (const std::size_t objects : {5u, 64u, 65u, 100u, 256u, 300u}) {
    const PreferenceMatrix m = random_matrix(4, objects, 0xf111 + objects);
    ProbeOracle oracle(m);
    std::uint64_t charged = 0;
    for (ObjectId first = 0; first < objects; first += 3) {
      const std::size_t n = std::min<std::size_t>(objects - first, 77);
      std::vector<std::uint64_t> probed(bitkernel::word_count(n), ~0ULL);
      std::vector<std::uint64_t> peeked(bitkernel::word_count(n), ~0ULL);
      oracle.probe_row(1, first, n, BitRow(probed.data(), n));
      oracle.adversary_peek_row(1, first, n, BitRow(peeked.data(), n));
      charged += n;
      for (std::size_t i = 0; i < probed.size() * bitkernel::kWordBits; ++i) {
        const bool want =
            i < n && m.preference(1, static_cast<ObjectId>(first + i));
        const std::uint64_t bit = 1ULL << (i % bitkernel::kWordBits);
        EXPECT_EQ((probed[i / bitkernel::kWordBits] & bit) != 0, want)
            << "objects=" << objects << " first=" << first << " i=" << i;
        EXPECT_EQ((peeked[i / bitkernel::kWordBits] & bit) != 0, want)
            << "objects=" << objects << " first=" << first << " i=" << i;
      }
    }
    EXPECT_EQ(oracle.probes_by(1), charged);  // peeks are free
    EXPECT_EQ(oracle.total_probes(), charged);
  }
}

TEST(ProbePipeline, ProbeRowMatchesProbeLoopBitsAndCharges) {
  Rng picks(0x9e11);
  const PreferenceMatrix m = random_matrix(8, 200, 42);
  for (int trial = 0; trial < 50; ++trial) {
    const auto p = static_cast<PlayerId>(picks.below(8));
    const auto first = static_cast<ObjectId>(picks.below(200));
    const std::size_t n = picks.below(200 - first) + 1;

    ProbeOracle serial(m);
    BitVector expected(n);
    for (std::size_t i = 0; i < n; ++i)
      expected.set(i, serial.probe(p, static_cast<ObjectId>(first + i)));

    ProbeOracle bulk(m);
    BitVector got(n);
    bulk.probe_row(p, first, n, got);

    EXPECT_EQ(got, expected);
    for (PlayerId q = 0; q < 8; ++q)
      EXPECT_EQ(bulk.probes_by(q), serial.probes_by(q));
  }
}

TEST(ProbePipeline, ProbeGatherMatchesProbeLoopWithDuplicates) {
  Rng picks(0x6a7e);
  const PreferenceMatrix m = random_matrix(6, 150, 7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto p = static_cast<PlayerId>(picks.below(6));
    std::vector<ObjectId> objects(picks.below(40) + 1);
    for (ObjectId& o : objects) o = static_cast<ObjectId>(picks.below(150));

    ProbeOracle serial(m);
    BitVector expected(objects.size());
    for (std::size_t i = 0; i < objects.size(); ++i)
      expected.set(i, serial.probe(p, objects[i]));  // duplicates pay, no memo

    ProbeOracle bulk(m);
    BitVector got(objects.size());
    bulk.probe_gather(p, objects, got);

    EXPECT_EQ(got, expected);
    EXPECT_EQ(bulk.probes_by(p), serial.probes_by(p));
    EXPECT_EQ(bulk.total_probes(), serial.total_probes());
  }
}

TEST(ProbePipeline, GatherWritesOnlyTheSlateBits) {
  // Packed gathers assemble each 64-object chunk in a register and store
  // it as one word; bits of the output past the slate must survive the
  // store of the last, partial word.
  Rng picks(0x6a7f);
  const PreferenceMatrix m = random_matrix(3, 150, 8);
  for (std::size_t n = 0; n <= 100; ++n) {
    std::vector<ObjectId> objects(n);
    for (ObjectId& o : objects) o = static_cast<ObjectId>(picks.below(150));
    ProbeOracle oracle(m);
    BitVector charged(n + 70), peeked(n + 70);
    BitRow(charged).fill(true);
    BitRow(peeked).fill(true);
    oracle.probe_gather(1, objects, charged);
    oracle.adversary_peek_gather(1, objects, peeked);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(charged.get(i), m.preference(1, objects[i])) << "n=" << n << " i=" << i;
    for (std::size_t i = n; i < n + 70; ++i) EXPECT_TRUE(charged.get(i)) << "n=" << n;
    EXPECT_EQ(peeked, charged) << "n=" << n;
    EXPECT_EQ(oracle.probes_by(1), n);
  }
}

TEST(ProbePipeline, HardModeChargesMatchAndEnforceBudget) {
  const PreferenceMatrix m = random_matrix(4, 96, 11);
  // Within budget: kHard behaves exactly like kTrack.
  ProbeOracle serial(m, ProbeOracle::BudgetMode::kHard, 96);
  ProbeOracle bulk(m, ProbeOracle::BudgetMode::kHard, 96);
  BitVector expected(96), got(96);
  for (ObjectId o = 0; o < 96; ++o) expected.set(o, serial.probe(2, o));
  bulk.probe_row(2, 0, 96, got);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(bulk.probes_by(2), serial.probes_by(2));
  EXPECT_EQ(bulk.probes_by(2), 96u);
  // One probe past the budget aborts in both formulations.
  EXPECT_DEATH(bulk.probe(2, 0), "budget");
}

TEST(ProbePipeline, OwnProbeBitsHonestChargesDishonestPeeksFree) {
  // 150 objects, so that slates of more than 64 objects fit: contiguous
  // ones take the row path (probe_row / adversary_peek_row), everything
  // else the gather.
  const std::size_t n = 32, m = 150;
  World world = identical_clusters(n, m, 2, Rng(3));
  Population pop(n);
  pop.set_behavior(5, std::make_unique<Inverter>());
  ProbeOracle oracle(world.matrix);
  BulletinBoard board;
  HonestBeacon beacon(1);
  ProtocolEnv env(oracle, board, pop, beacon, 0x10ca1ULL,
                  testutil::pool_policy());

  std::vector<ObjectId> scattered{3, 9, 4, 20};
  std::vector<ObjectId> contiguous{8, 9, 10, 11, 12};
  BitVector out4(4), out5(5);

  env.own_probe_bits(2, scattered, out4);   // honest: charged
  env.own_probe_bits(2, contiguous, out5);  // honest: short slate, gathered, charged
  EXPECT_EQ(oracle.probes_by(2), 9u);
  for (std::size_t i = 0; i < scattered.size(); ++i)
    EXPECT_EQ(out4.get(i), world.matrix.preference(2, scattered[i]));
  for (std::size_t i = 0; i < contiguous.size(); ++i)
    EXPECT_EQ(out5.get(i), world.matrix.preference(2, contiguous[i]));

  env.own_probe_bits(5, scattered, out4);  // dishonest: free omniscient peek
  EXPECT_EQ(oracle.probes_by(5), 0u);
  for (std::size_t i = 0; i < scattered.size(); ++i)
    EXPECT_EQ(out4.get(i), world.matrix.preference(5, scattered[i]));

  // Slates of 97 objects: contiguous (row path) and scattered (gather).
  std::vector<ObjectId> wide_contiguous(97), wide_scattered(97);
  for (std::size_t i = 0; i < wide_contiguous.size(); ++i) {
    wide_contiguous[i] = static_cast<ObjectId>(40 + i);
    wide_scattered[i] = static_cast<ObjectId>((7 * i + 3) % m);
  }
  for (const auto* slate : {&wide_contiguous, &wide_scattered}) {
    BitVector honest(slate->size()), dishonest(slate->size());
    oracle.reset_counts();
    env.own_probe_bits(2, *slate, honest);     // honest: charged
    env.own_probe_bits(5, *slate, dishonest);  // dishonest: free peek
    EXPECT_EQ(oracle.probes_by(2), slate->size());
    EXPECT_EQ(oracle.probes_by(5), 0u);
    for (std::size_t i = 0; i < slate->size(); ++i) {
      EXPECT_EQ(honest.get(i), world.matrix.preference(2, (*slate)[i])) << i;
      EXPECT_EQ(dishonest.get(i), world.matrix.preference(5, (*slate)[i])) << i;
    }
  }
}

/// The bits of word w of a memo's universe on `mask`, read through either
/// memo form (a ProbeMemo has only word 0).
std::uint64_t read_word(ProbeMemo& memo, std::size_t w, std::uint64_t mask) {
  EXPECT_EQ(w, 0u);
  return memo.read(mask);
}
std::uint64_t read_word(WideProbeMemo& memo, std::size_t w, std::uint64_t mask) {
  std::uint64_t got = 0;
  for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const int b = std::countr_zero(rest);
    got |= static_cast<std::uint64_t>(memo.read(w * bitkernel::kWordBits + b)) << b;
  }
  return got;
}

/// Six rounds of random reads over every word of the universe, checked
/// against `serial`, which probes each coordinate the first time a read
/// covers it. Returns the reference's seen plane.
template <typename Memo>
std::vector<std::uint64_t> check_memoized_reads(Memo& memo, ProbeOracle& serial,
                                                PlayerId p,
                                                std::span<const ObjectId> objects,
                                                Rng& picks, int trial) {
  const std::size_t words = bitkernel::word_count(objects.size());
  std::vector<std::uint64_t> seen(words, 0), value(words, 0);
  for (int read = 0; read < 6; ++read) {
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t bits =
          std::min(objects.size() - w * bitkernel::kWordBits, bitkernel::kWordBits);
      const std::uint64_t universe =
          bits == bitkernel::kWordBits ? ~0ULL : (1ULL << bits) - 1;
      const std::uint64_t mask = picks() & picks() & universe;
      for (std::size_t c = 0; c < bits; ++c) {
        if (((mask >> c) & 1) == 0 || ((seen[w] >> c) & 1) != 0) continue;
        seen[w] |= 1ULL << c;
        value[w] |= static_cast<std::uint64_t>(
                        serial.probe(p, objects[w * bitkernel::kWordBits + c]))
                    << c;
      }
      EXPECT_EQ(read_word(memo, w, mask), value[w] & mask) << "trial=" << trial;
    }
    EXPECT_EQ(memo.seen_count(), serial.probes_by(p)) << "trial=" << trial;
  }
  return seen;
}

TEST(ProbePipeline, ProbeMemoMatchesMemoizedProbesAndChargesOnce) {
  // Each trial reads a universe of 1..64 objects through a ProbeMemo, or of
  // 65..200 through a WideProbeMemo (duplicates allowed: a memo charges
  // coordinates, not objects), through random masks. The reference probes
  // every coordinate the first time a mask covers it.
  Rng picks(0x3e30);
  const PreferenceMatrix m = random_matrix(4, 150, 12);
  std::vector<std::uint64_t> planes;
  for (int trial = 0; trial < 400; ++trial) {
    const bool wide = trial >= 200;
    const auto p = static_cast<PlayerId>(picks.below(4));
    std::vector<ObjectId> objects(wide ? 65 + picks.below(136) : 1 + picks.below(64));
    for (ObjectId& o : objects) o = static_cast<ObjectId>(picks.below(150));

    ProbeOracle serial(m);
    ProbeOracle memoized(m);
    if (wide) {
      WideProbeMemo memo(memoized, p, objects, /*charged=*/true, planes);
      const std::vector<std::uint64_t> seen =
          check_memoized_reads(memo, serial, p, objects, picks, trial);
      // patch overwrites exactly the seen coordinates with v(p).
      BitVector out(objects.size());
      out.randomize(picks);
      const BitVector before = out;
      memo.patch(out);
      for (std::size_t c = 0; c < objects.size(); ++c) {
        const bool was_seen = (seen[c / bitkernel::kWordBits] >> (c % bitkernel::kWordBits)) & 1;
        EXPECT_EQ(memo.seen(c), was_seen) << "trial=" << trial << " c=" << c;
        EXPECT_EQ(out.get(c), was_seen ? m.preference(p, objects[c]) : before.get(c))
            << "trial=" << trial << " c=" << c;
      }
      EXPECT_EQ(memoized.total_probes(), 0u);  // the bill lands at scope exit
    } else {
      ProbeMemo memo(memoized, p, objects, /*charged=*/true);
      check_memoized_reads(memo, serial, p, objects, picks, trial);
      EXPECT_EQ(memoized.total_probes(), 0u);  // the bill lands at scope exit
    }
    EXPECT_EQ(memoized.probes_by(p), serial.probes_by(p)) << "trial=" << trial;
    EXPECT_EQ(memoized.total_probes(), serial.total_probes()) << "trial=" << trial;
  }
}

TEST(ProbePipeline, ProbeMemoDishonestAndUnreadAreFree) {
  const std::size_t n = 8, m = 100;
  World world = identical_clusters(n, m, 2, Rng(4));
  Population pop(n);
  pop.set_behavior(5, std::make_unique<Inverter>());
  ProbeOracle oracle(world.matrix);
  BulletinBoard board;
  HonestBeacon beacon(1);
  ProtocolEnv env(oracle, board, pop, beacon, 0x10ca1ULL,
                  testutil::pool_policy());
  const std::vector<ObjectId> objects{7, 90, 3, 41, 41, 12};
  std::uint64_t truth5 = 0;
  for (std::size_t c = 0; c < objects.size(); ++c)
    truth5 |= static_cast<std::uint64_t>(world.matrix.preference(5, objects[c])) << c;
  // A 150-coordinate universe (every object, then 50 repeats) for the wide form.
  std::vector<ObjectId> wide_objects(150);
  for (std::size_t c = 0; c < wide_objects.size(); ++c)
    wide_objects[c] = static_cast<ObjectId>(c % m);
  std::vector<std::uint64_t> planes;

  {
    ProbeMemo memo = env.own_probe_memo(5, objects);  // dishonest: free
    EXPECT_EQ(memo.read(0x3f), truth5);
    EXPECT_EQ(memo.seen_count(), 6u);
  }
  {
    WideProbeMemo memo = env.own_probe_memo(5, wide_objects, planes);  // dishonest
    for (std::size_t c = 0; c < wide_objects.size(); ++c)
      EXPECT_EQ(memo.read(c), world.matrix.preference(5, wide_objects[c]));
    EXPECT_EQ(memo.seen_count(), 150u);
  }
  { ProbeMemo unread = env.own_probe_memo(2, objects); }
  { WideProbeMemo unread = env.own_probe_memo(2, wide_objects, planes); }
  {
    ProbeMemo empty_read = env.own_probe_memo(2, objects);
    EXPECT_EQ(empty_read.read(0), 0u);
  }
  { ProbeMemo no_universe = env.own_probe_memo(2, {}); }
  { WideProbeMemo no_universe = env.own_probe_memo(2, {}, planes); }
  EXPECT_EQ(oracle.total_probes(), 0u);
  {
    ProbeMemo honest = env.own_probe_memo(2, objects);
    honest.read(0x5);
    honest.read(0x7);
  }
  EXPECT_EQ(oracle.probes_by(2), 3u);
  {
    WideProbeMemo honest = env.own_probe_memo(2, wide_objects, planes);
    for (const std::size_t c : {0u, 140u, 140u, 64u, 0u}) honest.read(c);
  }
  EXPECT_EQ(oracle.probes_by(2), 6u);
  EXPECT_EQ(oracle.total_probes(), 6u);
}

TEST(ProbePipeline, ProbeMemoHardBudgetChargesTheWholeBill) {
  const PreferenceMatrix m = random_matrix(3, 1000, 13);
  std::vector<ObjectId> objects(16), wide_objects(200);
  for (std::size_t c = 0; c < objects.size(); ++c) objects[c] = static_cast<ObjectId>(5 * c);
  for (std::size_t c = 0; c < wide_objects.size(); ++c)
    wide_objects[c] = static_cast<ObjectId>(5 * c);
  std::vector<std::uint64_t> planes;
  // A bill of exactly the budget passes; rereads pay nothing more.
  ProbeOracle at_budget(m, ProbeOracle::BudgetMode::kHard, 10);
  {
    ProbeMemo memo(at_budget, 1, objects, /*charged=*/true);
    memo.read(0x3ff);
    memo.read(0x0ff);
  }
  EXPECT_EQ(at_budget.probes_by(1), 10u);
  ProbeOracle wide_at_budget(m, ProbeOracle::BudgetMode::kHard, 10);
  {
    WideProbeMemo memo(wide_at_budget, 1, wide_objects, /*charged=*/true, planes);
    for (std::size_t c = 190; c < 200; ++c) memo.read(c);
    for (std::size_t c = 195; c < 200; ++c) memo.read(c);
  }
  EXPECT_EQ(wide_at_budget.probes_by(1), 10u);
  // A bill of budget + 1 aborts when the memo charges it.
  ProbeOracle over_budget(m, ProbeOracle::BudgetMode::kHard, 10);
  EXPECT_DEATH(
      {
        ProbeMemo memo(over_budget, 1, objects, /*charged=*/true);
        memo.read(0x7ff);
      },
      "budget");
  EXPECT_DEATH(
      {
        WideProbeMemo memo(over_budget, 1, wide_objects, /*charged=*/true, planes);
        for (std::size_t c = 189; c < 200; ++c) memo.read(c);
      },
      "budget");
}

/// FNV-style hash over the per-player probe counters after a full
/// calculate_preferences run.
std::uint64_t charge_hash(const char* spec_text) {
  const ExecPolicy policy = ExecPolicy::serial();
  const Scenario sc = Scenario::resolve(ScenarioSpec::parse(spec_text));
  const World world = build_scenario_world(sc, testutil::pool_policy());
  const Population pop = build_scenario_population(sc, world);
  ProbeOracle oracle(world.matrix);
  oracle.bind_policy(policy);
  BulletinBoard board;
  Params params = sc.params;
  params.budget = sc.budget;
  HonestBeacon beacon(mix_keys(sc.seed, 0xbeacULL));
  ProtocolEnv env(oracle, board, pop, beacon, mix_keys(sc.seed, 0x10ca1ULL),
                  policy);
  calculate_preferences(env, params, mix_keys(sc.seed, 0xca1cULL));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (PlayerId p = 0; p < sc.n; ++p) {
    h ^= oracle.probes_by(p);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Golden per-player charge hashes captured on the pre-PR-3 tree: the word
// pipeline, batched tournament charging, and workspace reuse must leave
// every player's probe bill untouched.
TEST(ProbePipeline, FixedSeedPerPlayerChargesUnchanged) {
  EXPECT_EQ(charge_hash("workload=planted n=128 budget=4 dishonest=8 "
                        "adversary=sleeper seed=3"),
            0xbd25859a27ed9f0ULL);
  EXPECT_EQ(charge_hash("workload=planted n=96 budget=4 dishonest=6 "
                        "adversary=hijacker seed=7"),
            0xb0e63b84c0986d83ULL);
}

}  // namespace
}  // namespace colscore
