// lint-fixture-as: src/protocols/fixture_board_log.cpp
// CL014: the default board keeps counts, not posts. Library code reads a
// vector channel once, through take_support; the log readers work only on a
// test-only BoardRetention::kFull board.
#include "src/protocols/env.hpp"

namespace colscore {

std::size_t fixture_board_log_reads(ProtocolEnv& env, BulletinBoard* board,
                                    std::uint64_t tag) {
  const auto reports = env.board.all_reports(tag);        // VIOLATION
  const auto votes = env.board.reports_for(tag, 0);       // VIOLATION
  const auto posts = board->vectors(tag);                 // VIOLATION
  // colscore-lint: allow(CL014) fixture: an audit path that builds its own kFull board
  const auto audit = board->vectors(tag + 1);             // suppressed

  const auto ranked = env.board.take_support(tag);        // consuming read: fine
  const std::uint64_t seen = env.board.report_count();    // counts: fine
  std::vector<BitVector> vectors(ranked.size());          // a local named vectors: fine
  return reports.size() + votes.size() + posts.size() + audit.size() +
         vectors.size() + static_cast<std::size_t>(seen);
}

}  // namespace colscore
