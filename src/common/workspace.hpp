// Per-thread run workspace: reusable scratch for the protocol hot path.
//
// A whole-suite sweep executes millions of small protocol steps (Select
// tournaments, ZeroRadius adoptions, voting slates), and before PR 3 every
// one of them re-malloc'd its scratch — diff buffers, probe memos, voter
// assignments — from cold. RunWorkspace keeps one set of named, growable
// buffers per thread; a buffer grows to the high-water mark of the runs its
// thread executes and then stops touching the allocator entirely.
//
// Contract (see ROADMAP "Performance" and "Execution policy"):
//   * Access via ExecPolicy::workspace() (protocol code spells it
//     ProtocolEnv::workspace()), which returns the calling thread's
//     instance. Every per-player step is data-parallel over players, so a
//     player's scratch lives for one frame on one thread, and the thread's
//     buffers stay warm across the grid cells it runs: cell N+1 reuses
//     cell N's allocations. A sweep does not keep them: SuiteRunner::execute
//     releases the calling thread's workspace when the sweep ends, and a
//     suite-owned pool's threads free theirs when the pool joins them.
//   * Buffers are grouped by owner (sel_* for the Select tournament, pf_*
//     for the prefilter, zr_* for ZeroRadius adoption, vt_* for work-share
//     voting, ze_* for ZeroRadius reassembly, nb_* for the CSR
//     neighbor-graph build). The sel_ and zr_ groups each hold one
//     WideProbeMemo's planes: the owner hands the buffer to
//     ProtocolEnv::own_probe_memo, and the memo lives no longer than the
//     owner's frame.
//     A function may only touch its own group, because nested frames on one
//     thread are live simultaneously: select_prefiltered (pf_*) is still
//     using its finalist list while the inner tournament (sel_*) runs, and
//     a par_for body shares a thread — and therefore a workspace — with
//     the caller that spawned it. A thread never holds two runs' frames at
//     once: ThreadPool::parallel_for does not run foreign queue entries
//     while it waits.
//   * Every user re-initialises (assign/resize/clear) what it reads; no
//     state is carried between calls on purpose.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/bitmatrix.hpp"
#include "src/common/types.hpp"

namespace colscore {

struct RunWorkspace {
  /// This thread's workspace (created on first use, lives with the thread).
  static RunWorkspace& current();

  /// Hands every buffer back to the allocator, in destruction order; the
  /// next user regrows them. Only between runs, while no frame is using
  /// the workspace.
  void release() { RunWorkspace gone = std::exchange(*this, RunWorkspace{}); }

  // ---- Select tournament (select.cpp play_general) -------------------------
  std::vector<std::uint64_t> sel_memo_words;  // WideProbeMemo seen/value planes
  std::vector<std::uint8_t> sel_alive;
  std::vector<std::size_t> sel_wins;
  std::vector<std::uint64_t> sel_hashes;
  std::vector<std::size_t> sel_diff;

  // ---- Select prefilter (select.cpp select_prefiltered) --------------------
  std::vector<std::uint64_t> pf_own_words;
  std::vector<std::size_t> pf_coords;
  std::vector<ObjectId> pf_objects;
  std::vector<std::pair<std::size_t, std::size_t>> pf_scored;
  std::vector<ConstBitRow> pf_finalists;
  std::vector<std::size_t> pf_finalist_ids;

  // ---- ZeroRadius adoption (zero_radius.cpp adopt) -------------------------
  std::vector<std::uint64_t> zr_memo_words;  // WideProbeMemo seen/value planes
  std::vector<std::size_t> zr_alive;
  std::vector<std::size_t> zr_next;
  std::vector<std::size_t> zr_diff;

  // ---- ZeroRadius reassembly (zero_radius.cpp solve/emit) ------------------
  // objects[j] -> j and players[i] -> i index maps as flat arrays. Safe
  // without generations: a solve node stamps its whole span before reading,
  // and only ever reads ids inside that span.
  std::vector<std::uint32_t> ze_coord_of;
  std::vector<std::uint32_t> ze_row_of;

  // ---- work-share voting (work_share.cpp cluster_votes) --------------------
  std::vector<std::uint32_t> vt_voter_of;
  std::vector<std::uint8_t> vt_tie_coin;
  std::vector<std::size_t> vt_offsets;
  std::vector<std::size_t> vt_cursor;
  std::vector<std::uint32_t> vt_slots_of_voter;
  std::vector<ProbeReport> vt_reports;          // slot-indexed, object-major
  std::vector<std::uint8_t> vt_verdicts;
  std::vector<ObjectId> vt_slate_objects;       // per-voter (parallel body)
  std::vector<std::uint64_t> vt_slate_words;    // per-voter (parallel body)

  // ---- SmallRadius orchestration (small_radius.cpp, caller thread) ---------
  std::vector<std::uint32_t> sr_subset_of;
  std::vector<std::size_t> sr_subset_offsets;
  std::vector<std::size_t> sr_subset_cursor;
  std::vector<std::size_t> sr_coords_flat;
  std::vector<ObjectId> sr_sub_objects;

  // ---- CSR neighbor-graph build (neighbor_csr.cpp) -------------------------
  // nb_tile_edges[ti] is written only by the task owning tile ti (the outer
  // vector is sized before the parallel sweep); counts/cursor are sequential.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> nb_tile_edges;
  std::vector<std::uint32_t> nb_degree;
  std::vector<std::uint32_t> nb_cursor;

  // ---- scratch matrices (calculate_preferences / small_radius) -------------
  BitMatrix cp_z;                         // per-iteration z family
  std::vector<BitMatrix> cp_candidates;   // per-guess candidate matrices
  std::vector<BitMatrix> sr_candidates;   // per-repeat candidate matrices
};

}  // namespace colscore
