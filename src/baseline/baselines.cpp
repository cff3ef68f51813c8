#include "src/baseline/baselines.hpp"

#include <algorithm>
#include <numeric>

#include "src/common/assert.hpp"
#include "src/common/mathutil.hpp"
#include "src/protocols/work_share.hpp"

namespace colscore {

ProtocolResult probe_all(ProtocolEnv& env) {
  const std::size_t n = env.n_players();
  const std::size_t n_objects = env.n_objects();
  ProtocolResult result;
  const auto before = probe_snapshot(env.oracle);
  result.outputs.assign(n, BitVector(n_objects));
  env.par_for(0, n, [&](std::size_t p) {
    env.own_probe_row(static_cast<PlayerId>(p), 0, n_objects, result.outputs[p]);
  });
  fill_probe_deltas(result, env.oracle, before);
  return result;
}

ProtocolResult random_guess(ProtocolEnv& env, std::uint64_t seed) {
  const std::size_t n = env.n_players();
  ProtocolResult result;
  result.outputs.reserve(n);
  for (PlayerId p = 0; p < n; ++p) {
    Rng rng(mix_keys(seed, p));
    result.outputs.push_back(random_bitvector(env.n_objects(), rng));
  }
  result.probes_by_player.assign(n, 0);
  return result;
}

ProtocolResult oracle_clusters(ProtocolEnv& env, const World& world,
                               const OracleClustersParams& params) {
  const std::size_t n = env.n_players();
  const std::size_t n_objects = env.n_objects();
  CS_ASSERT(world.n_players() == n, "oracle_clusters: world/oracle mismatch");
  ProtocolResult result;
  const auto before = probe_snapshot(env.oracle);
  result.outputs.assign(n, BitVector(n_objects));

  WorkShareParams ws;
  ws.votes_per_object = params.votes_per_object;
  for (std::uint32_t c = 0; c < world.n_clusters; ++c) {
    const std::vector<PlayerId> members = world.cluster_members(c);
    if (members.empty()) continue;
    const BitVector prediction =
        cluster_votes(members, env, mix_keys(0x09ac1eULL, c), ws);
    for (PlayerId p : members) result.outputs[p] = prediction;
  }
  // Background players get no collaboration: they probe everything.
  env.par_for(0, n, [&](std::size_t p) {
    if (world.cluster_of[p] != kNoCluster) return;
    env.own_probe_row(static_cast<PlayerId>(p), 0, n_objects, result.outputs[p]);
  });

  fill_probe_deltas(result, env.oracle, before);
  return result;
}

SampleShareResult sample_and_share(ProtocolEnv& env, const SampleShareParams& params) {
  const std::size_t n = env.n_players();
  const std::size_t n_objects = env.n_objects();
  const std::size_t log2n = log2_ceil(n);
  CS_ASSERT(params.budget >= 1, "sample_and_share: budget >= 1");

  SampleShareResult out;
  ProtocolResult& result = out.result;
  const auto before = probe_snapshot(env.oracle);

  // ---- public sample T (size ~ B^2 log n) --------------------------------
  const std::size_t t_size = std::min<std::size_t>(
      n_objects, ceil_size(params.sample_c *
                           static_cast<double>(params.budget * params.budget) *
                           static_cast<double>(log2n)));
  Rng coins(params.seed);
  std::vector<ObjectId> universe(n_objects);
  std::iota(universe.begin(), universe.end(), 0);
  for (std::size_t i = 0; i < t_size; ++i) {
    const std::size_t j = i + coins.below(n_objects - i);
    std::swap(universe[i], universe[j]);
  }
  const std::span<const ObjectId> sample(universe.data(), t_size);

  // ---- phase 1: everyone answers the sample ------------------------------
  const std::uint64_t sample_channel = mix_keys(params.seed, 0x5a3ULL);
  std::vector<BitVector> answers(n, BitVector(t_size));
  for (PlayerId p = 0; p < n; ++p) {
    const ReportContext ctx{Phase::kSample, sample_channel};
    if (env.population.is_honest(p)) {
      // The sample slate is known up front: one batched charge of t_size
      // probes, bit-identical to probing sample[i] one at a time.
      env.oracle.probe_gather(p, sample, answers[p]);
    } else {
      Rng prng = env.local_rng(p, sample_channel);
      for (std::size_t i = 0; i < t_size; ++i)
        answers[p].set(i, env.population.report_of(p, sample[i], env.oracle, ctx, prng));
    }
    env.board.post_vector(sample_channel, p, answers[p]);
  }

  // ---- phase 2: everyone publishes a random slice of the universe --------
  const std::size_t slice = std::min<std::size_t>(
      n_objects, ceil_size(params.slice_c * static_cast<double>(params.budget) *
                           static_cast<double>(log2n)));
  const std::uint64_t slice_channel = mix_keys(params.seed, 0x51cULL);
  struct SliceReport {
    PlayerId author;
    bool value;
  };
  std::vector<std::vector<SliceReport>> by_object(n_objects);
  for (PlayerId p = 0; p < n; ++p) {
    Rng assign(mix_keys(params.seed, 0xa551ULL, p));
    const ReportContext ctx{Phase::kVote, slice_channel};
    Rng prng = env.local_rng(p, slice_channel);
    for (std::size_t i = 0; i < slice; ++i) {
      const auto o = static_cast<ObjectId>(assign.below(n_objects));
      const bool bit = env.population.report_of(p, o, env.oracle, ctx, prng);
      env.board.post_report(slice_channel, p, o, bit);
      by_object[o].push_back(SliceReport{p, bit});
    }
  }

  // ---- per-player adoption: n/B sample-nearest star, object majority ------
  const std::size_t group_size = std::max<std::size_t>(2, n / params.budget);
  result.outputs.assign(n, BitVector(n_objects));
  std::vector<std::size_t> uncovered(n, 0);
  env.par_for(0, n, [&](std::size_t p) {
    // Rank everyone by sample distance to p's own answers.
    std::vector<std::pair<std::size_t, PlayerId>> ranked;
    ranked.reserve(n);
    for (PlayerId q = 0; q < n; ++q)
      ranked.emplace_back(answers[p].hamming(answers[q]), q);
    std::nth_element(ranked.begin(), ranked.begin() + static_cast<long>(group_size - 1),
                     ranked.end());
    BitVector member(n);
    for (std::size_t i = 0; i < group_size; ++i) member.set(ranked[i].second, true);

    BitVector& row = result.outputs[p];
    for (ObjectId o = 0; o < n_objects; ++o) {
      std::size_t ones = 0, zeros = 0;
      for (const SliceReport& r : by_object[o])
        if (member.get(r.author)) (r.value ? ones : zeros)++;
      if (ones + zeros == 0) {
        ++uncovered[p];
        // Fall back to the global majority; failing that, 0.
        for (const SliceReport& r : by_object[o]) (r.value ? ones : zeros)++;
      }
      row.set(o, ones > zeros);
    }
  });
  for (std::size_t u : uncovered) out.uncovered_objects += u;

  fill_probe_deltas(result, env.oracle, before);
  return out;
}

}  // namespace colscore
