#include "src/board/probe_oracle.hpp"

#include "src/common/assert.hpp"
#include "src/common/bitkernels.hpp"

namespace colscore {

ProbeOracle::ProbeOracle(const PreferenceMatrix& truth, BudgetMode mode,
                         std::uint64_t budget)
    : mode_(mode), budget_(budget), rows_(truth.rows().words()),
      row_stride_(truth.rows().word_stride()), n_objects_(truth.n_objects()),
      counts_(truth.n_players()) {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

void ProbeOracle::probe_row(PlayerId p, ObjectId first_object, std::size_t n,
                            BitRow out) {
  CS_ASSERT(p < counts_.size(), "probe_row: bad player id");
  CS_ASSERT(out.size() == n, "probe_row: output size mismatch");
  if (n == 0) return;
  CS_ASSERT(first_object + n <= n_objects_, "probe_row: bad object range");
  charge(p, n);
  bitkernel::extract_bits(truth_row(p), bitkernel::word_count(n_objects_),
                          first_object, n, out.word_data());
}

void ProbeOracle::adversary_peek_row(PlayerId p, ObjectId first_object,
                                     std::size_t n, BitRow out) const {
  CS_ASSERT(out.size() == n, "adversary_peek_row: output size mismatch");
  if (n == 0) return;
  CS_ASSERT(first_object + n <= n_objects_, "adversary_peek_row: bad object range");
  bitkernel::extract_bits(truth_row(p), bitkernel::word_count(n_objects_),
                          first_object, n, out.word_data());
}

std::uint64_t ProbeOracle::probes_by(PlayerId p) const {
  CS_ASSERT(p < counts_.size(), "probes_by: bad player id");
  return counts_[p].load(std::memory_order_relaxed);
}

std::uint64_t ProbeOracle::total_probes() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t ProbeOracle::max_probes() const {
  std::uint64_t best = 0;
  for (const auto& c : counts_) {
    const std::uint64_t v = c.load(std::memory_order_relaxed);
    if (v > best) best = v;
  }
  return best;
}

void ProbeOracle::reset_counts() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

}  // namespace colscore
