// lint-fixture-as: src/protocols/fixture_uncharged_read.cpp
// CL013: uncharged truth reads belong to the oracle, the env's dispatch and
// the population; protocol code learns its own bits through env.own_probe*.
#include "src/protocols/env.hpp"

namespace colscore {

void fixture_uncharged_reads(ProtocolEnv& env, PlayerId p,
                             std::span<const ObjectId> slate, BitRow out) {
  // Peek, then charge by hand: the bill drifts from what was read.
  const bool bit = env.oracle.adversary_peek(p, slate.front());  // VIOLATION
  env.oracle.adversary_peek_gather(p, slate, out);               // VIOLATION
  env.oracle.adversary_peek_row(p, 0, out.size(), out);          // VIOLATION

  if (!env.population.is_honest(p)) {
    // colscore-lint: allow(CL013) fixture: a dishonest player's own branch
    const bool free_read = env.oracle.adversary_peek(p, slate.front());  // suppressed
    (void)free_read;
  }

  env.own_probe_bits(p, slate, out);  // charged for honest players: fine
  ProbeMemo memo = env.own_probe_memo(p, slate.first(1));
  const std::uint64_t own = memo.read(1);  // charged once at scope exit: fine
  (void)bit;
  (void)own;
}

}  // namespace colscore
