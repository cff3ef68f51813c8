// Execution environment threaded through every protocol: the probe oracle,
// the public bulletin board, the behaviour table, the shared-randomness
// beacon, and a root for players' local (non-shared) randomness.
//
// Key derivation convention: every protocol invocation owns a 64-bit
// `phase_key`; sub-phases, board channels and per-player local streams are
// derived with mix_keys so the whole simulation is reproducible and
// independent of thread scheduling.
#pragma once

#include "src/board/bulletin_board.hpp"
#include "src/board/probe_oracle.hpp"
#include "src/board/shared_random.hpp"
#include "src/common/exec_policy.hpp"
#include "src/common/workspace.hpp"
#include "src/model/population.hpp"

namespace colscore {

struct ProtocolEnv {
  ProtocolEnv(ProbeOracle& oracle_in, BulletinBoard& board_in,
              const Population& population_in, RandomnessBeacon& beacon_in,
              std::uint64_t local_seed_in = 0x10ca1ULL,
              const ExecPolicy& policy_in = ExecPolicy::serial())
      : oracle(oracle_in), board(board_in), population(population_in),
        beacon(beacon_in), local_seed(local_seed_in), policy(policy_in) {}

  ProbeOracle& oracle;
  BulletinBoard& board;
  const Population& population;
  RandomnessBeacon& beacon;
  /// Root seed for per-player local randomness (probe sampling in RSelect
  /// etc.). Local randomness is private to a player, never shared.
  std::uint64_t local_seed;
  /// Where this invocation's data-parallel loops run (see exec_policy.hpp).
  /// Held by value — a copy names the original's pool — so callers may pass
  /// a temporary (e.g. ExecPolicy::serial()).
  const ExecPolicy policy;

  /// A player privately learning one of its own preference bits. Honest
  /// players pay a charged probe; dishonest players peek for free (their own
  /// outputs are irrelevant to the error metric, and the paper's adversary
  /// is omniscient anyway).
  bool own_probe(PlayerId p, ObjectId o) {
    return population.is_honest(p) ? oracle.probe(p, o) : oracle.adversary_peek(p, o);
  }

  /// Word-level form: learn the contiguous object range [first_object,
  /// first_object + n) straight into a BitRow (one charge, packed transfer).
  void own_probe_row(PlayerId p, ObjectId first_object, std::size_t n, BitRow out) {
    if (population.is_honest(p))
      oracle.probe_row(p, first_object, n, out);
    else
      oracle.adversary_peek_row(p, first_object, n, out);
  }

  /// Learn an arbitrary object slate into a BitRow: bit i = v(p)_objects[i].
  /// Contiguous ascending slates of more than 64 objects take the word path
  /// (probe_row); every other slate (a forced Select's one coordinate, the
  /// prefilter's draws, a voting slate) is one gather, inline off a packed
  /// truth row. Charges are identical to probing the slate object by object
  /// with no memo (duplicates pay).
  void own_probe_bits(PlayerId p, std::span<const ObjectId> objects, BitRow out) {
    if (objects.size() > bitkernel::kWordBits) {
      bool contiguous = true;
      for (std::size_t i = 1; contiguous && i < objects.size(); ++i)
        contiguous = objects[i] == objects[i - 1] + 1;
      if (contiguous && out.size() == objects.size()) {
        own_probe_row(p, objects.front(), objects.size(), out);
        return;
      }
    }
    if (population.is_honest(p))
      oracle.probe_gather(p, objects, out);
    else
      oracle.adversary_peek_gather(p, objects, out);
  }

  /// A memo over p's bits on `objects` (at most 64): each coordinate read
  /// through it is charged once, when the memo goes out of scope, to honest
  /// players only (see ProbeMemo).
  ProbeMemo own_probe_memo(PlayerId p, std::span<const ObjectId> objects) {
    return ProbeMemo(oracle, p, objects, population.is_honest(p));
  }

  /// The same memo over a universe of any size, its planes kept in the
  /// caller's workspace words `planes` (see WideProbeMemo).
  WideProbeMemo own_probe_memo(PlayerId p, std::span<const ObjectId> objects,
                               std::vector<std::uint64_t>& planes) {
    return WideProbeMemo(oracle, p, objects, population.is_honest(p), planes);
  }

  /// Publishes one vector per author on board channel `channel` and returns
  /// its ranking (take_support, which consumes the channel). Honest authors
  /// post vectors[i], their protocol output, verbatim; a dishonest author
  /// posts what its behaviour makes of it over `objects`, drawn from its
  /// local stream for the channel. Posts are serial in `authors` order, so
  /// the ranking's tie order is deterministic.
  std::vector<BulletinBoard::SupportedVector> publish(
      std::uint64_t channel, Phase phase, std::span<const PlayerId> authors,
      std::span<const BitVector> vectors, std::span<const ObjectId> objects) {
    const ReportContext ctx{phase, channel};
    {
      auto writer = board.vector_channel(channel);
      for (std::size_t i = 0; i < authors.size(); ++i) {
        const PlayerId a = authors[i];
        if (population.is_honest(a)) {
          writer.post(a, vectors[i]);
          continue;
        }
        Rng rng = local_rng(a, channel);
        writer.post(a, population.publication(a, vectors[i], objects, ctx, rng));
      }
    }
    return board.take_support(channel);
  }

  /// The executing thread's reusable scratch (see src/common/workspace.hpp
  /// for the group-aliasing contract).
  RunWorkspace& workspace() const { return policy.workspace(); }

  /// Runs body(i) for i in [begin, end) under this env's policy.
  template <typename Body>
  void par_for(std::size_t begin, std::size_t end, Body&& body,
               std::size_t grain = 0) const {
    policy.par_for(begin, end, std::forward<Body>(body), grain);
  }

  /// Local RNG stream for (player, phase).
  Rng local_rng(PlayerId p, std::uint64_t phase_key) const {
    return Rng(mix_keys(local_seed, p, phase_key));
  }

  /// Shared RNG stream for a phase (from the beacon; adversarial if the
  /// beacon is dishonest).
  Rng shared_rng(std::uint64_t phase_key) { return beacon.rng_for(phase_key); }

  std::size_t n_players() const { return oracle.n_players(); }
  std::size_t n_objects() const { return oracle.n_objects(); }
};

}  // namespace colscore
