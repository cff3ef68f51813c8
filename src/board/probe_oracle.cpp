#include "src/board/probe_oracle.hpp"

#include "src/common/assert.hpp"
#include "src/common/bitkernels.hpp"
#include "src/common/workspace.hpp"

namespace colscore {

void TruthSource::fill_row_words(PlayerId p, ObjectId first_object, std::size_t n,
                                 std::uint64_t* out) const {
  const std::size_t words = bitkernel::word_count(n);
  for (std::size_t w = 0; w < words; ++w) out[w] = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (preference(p, static_cast<ObjectId>(first_object + i)))
      out[i / bitkernel::kWordBits] |= 1ULL << (i % bitkernel::kWordBits);
}

ProbeOracle::ProbeOracle(const TruthSource& truth, BudgetMode mode, std::uint64_t budget)
    : truth_(&truth), mode_(mode), budget_(budget),
      n_objects_(truth.n_objects()), counts_(truth.n_players()) {
  // Assigned here, not in the init list: packed_rows writes the stride
  // through its out-parameter, which must not race the members' default
  // initializers.
  packed_ = truth.packed_rows(&packed_stride_);
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

void ProbeOracle::probe_row(PlayerId p, ObjectId first_object, std::size_t n,
                            BitRow out) {
  CS_ASSERT(p < counts_.size(), "probe_row: bad player id");
  CS_ASSERT(out.size() == n, "probe_row: output size mismatch");
  if (n == 0) return;
  CS_ASSERT(first_object + n <= n_objects_, "probe_row: bad object range");
  charge(p, n);
  if (packed_ != nullptr) {
    bitkernel::extract_bits(packed_ + p * packed_stride_,
                            bitkernel::word_count(n_objects_), first_object, n,
                            out.word_data());
    return;
  }
  truth_->fill_row_words(p, first_object, n, out.word_data());
}

void ProbeOracle::gather_unpacked(PlayerId p, std::span<const ObjectId> objects,
                                  BitRow out) const {
  const std::size_t row_words = bitkernel::word_count(n_objects_);
  // A staged full-row read costs ~row_words word writes once; per-bit reads
  // cost one virtual call each. Stage whenever the slate is at least a
  // quarter of the row's word count; only tiny slates against very wide
  // rows read bit by bit.
  if (objects.size() >= 4 && 4 * objects.size() >= row_words) {
    // Staging scratch comes from the bound policy's per-worker workspace;
    // before bind_policy (standalone oracle in a test/bench) the default
    // policy falls back to the caller's private per-thread workspace.
    const ExecPolicy& policy =
        policy_ != nullptr ? *policy_ : ExecPolicy::process_default();
    auto& staging = policy.workspace().probe_row_words;
    staging.resize(row_words);
    truth_->fill_row_words(p, 0, n_objects_, staging.data());
    const ConstBitRow row(staging.data(), n_objects_);
    for (std::size_t i = 0; i < objects.size(); ++i) {
      CS_ASSERT(objects[i] < n_objects_, "probe_gather: bad object id");
      out.set(i, row.get(objects[i]));
    }
    return;
  }
  for (std::size_t i = 0; i < objects.size(); ++i) {
    CS_ASSERT(objects[i] < n_objects_, "probe_gather: bad object id");
    out.set(i, truth_->preference(p, objects[i]));
  }
}

void ProbeOracle::adversary_peek_row(PlayerId p, ObjectId first_object,
                                     std::size_t n, BitRow out) const {
  CS_ASSERT(out.size() == n, "adversary_peek_row: output size mismatch");
  if (n == 0) return;
  CS_ASSERT(first_object + n <= n_objects_, "adversary_peek_row: bad object range");
  if (packed_ != nullptr) {
    bitkernel::extract_bits(packed_ + p * packed_stride_,
                            bitkernel::word_count(n_objects_), first_object, n,
                            out.word_data());
    return;
  }
  truth_->fill_row_words(p, first_object, n, out.word_data());
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
