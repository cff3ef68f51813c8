#include "src/common/bitvector.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "src/common/assert.hpp"

namespace colscore {

namespace {
constexpr std::size_t kWordBits = bitkernel::kWordBits;

std::size_t word_count(std::size_t bits) { return bitkernel::word_count(bits); }
}  // namespace

// ---- ConstBitRow / BitRow (out-of-line pieces) ------------------------------

BitVector ConstBitRow::to_bitvector() const { return BitVector(*this); }

BitVector ConstBitRow::gather(std::span<const ObjectId> positions) const {
  BitVector out(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    CS_ASSERT(positions[i] < bits_, "gather: position out of range");
    out.set(i, get(positions[i]));
  }
  return out;
}

std::string ConstBitRow::to_string() const {
  std::string s(bits_, '0');
  for (std::size_t i = 0; i < bits_; ++i)
    if (get(i)) s[i] = '1';
  return s;
}

bool operator==(const ConstBitRow& a, const ConstBitRow& b) noexcept {
  if (a.size() != b.size()) return false;
  const auto aw = a.words();
  const auto bw = b.words();
  return std::equal(aw.begin(), aw.end(), bw.begin());
}

void BitRow::fill(bool value) noexcept {
  std::uint64_t* w = word_data();
  const std::size_t words = word_count(bits_);
  for (std::size_t i = 0; i < words; ++i) w[i] = value ? ~0ULL : 0ULL;
  const std::size_t rem = bits_ % kWordBits;
  if (rem != 0 && words != 0) w[words - 1] &= (1ULL << rem) - 1;
}

void BitRow::randomize(Rng& rng, double density) noexcept {
  if (density == 0.5) {
    std::uint64_t* w = word_data();
    const std::size_t words = word_count(bits_);
    for (std::size_t i = 0; i < words; ++i) w[i] = rng();
    const std::size_t rem = bits_ % kWordBits;
    if (rem != 0 && words != 0) w[words - 1] &= (1ULL << rem) - 1;
    return;
  }
  for (std::size_t i = 0; i < bits_; ++i) set(i, rng.chance(density));
}

void BitRow::flip_random(Rng& rng, std::size_t count) {
  CS_ASSERT(count <= bits_, "flip_random: count exceeds size");
  // Floyd's algorithm for a uniform k-subset without replacement.
  std::vector<std::size_t> chosen;
  chosen.reserve(count);
  for (std::size_t j = bits_ - count; j < bits_; ++j) {
    const std::size_t t = rng.below(j + 1);
    bool already = std::find(chosen.begin(), chosen.end(), t) != chosen.end();
    chosen.push_back(already ? j : t);
  }
  for (std::size_t pos : chosen) flip(pos);
}

BitRow& BitRow::operator=(const ConstBitRow& src) noexcept {
  CS_ASSERT(bits_ == src.size(), "BitRow assign: size mismatch");
  if (bits_ != 0)
    std::memmove(word_data(), src.words().data(),
                 word_count(bits_) * sizeof(std::uint64_t));
  return *this;
}

BitRow& BitRow::operator^=(ConstBitRow other) noexcept {
  CS_ASSERT(bits_ == other.size(), "xor: size mismatch");
  bitkernel::xor_into(word_data(), other.words().data(), word_count(bits_));
  return *this;
}

BitRow& BitRow::operator&=(ConstBitRow other) noexcept {
  CS_ASSERT(bits_ == other.size(), "and: size mismatch");
  std::uint64_t* w = word_data();
  const std::uint64_t* ow = other.words().data();
  for (std::size_t i = 0; i < word_count(bits_); ++i) w[i] &= ow[i];
  return *this;
}

BitRow& BitRow::operator|=(ConstBitRow other) noexcept {
  CS_ASSERT(bits_ == other.size(), "or: size mismatch");
  std::uint64_t* w = word_data();
  const std::uint64_t* ow = other.words().data();
  for (std::size_t i = 0; i < word_count(bits_); ++i) w[i] |= ow[i];
  return *this;
}

// ---- BitVector --------------------------------------------------------------

void BitVector::acquire(std::size_t size) {
  const std::size_t words = word_count(size);
  if (words <= kInlineWords) {
    std::ranges::fill(inline_words_, 0);
    words_ = inline_words_;
  } else {
    words_ = static_cast<std::uint64_t*>(std::calloc(words, sizeof(std::uint64_t)));
    CS_ASSERT(words_ != nullptr, "BitVector: allocation failed");
  }
  bits_ = size;
}

void BitVector::release() noexcept {
  if (!is_inline()) std::free(word_data());
}

void BitVector::steal(BitVector& other) noexcept {
  if (other.is_inline()) {
    std::copy_n(other.inline_words_, word_count(other.bits_), inline_words_);
    words_ = inline_words_;
  } else {
    words_ = other.words_;
  }
  bits_ = other.bits_;
  other.words_ = other.inline_words_;
  other.bits_ = 0;
}

BitVector::BitVector(std::size_t size, bool value) {
  acquire(size);
  if (value) fill(true);
}

BitVector::BitVector(ConstBitRow row) {
  acquire(row.size());
  std::ranges::copy(row.words(), word_data());
}

BitVector& BitVector::operator=(const BitVector& other) {
  if (this == &other) return *this;
  if (word_count(bits_) != word_count(other.bits_)) {
    release();
    acquire(other.bits_);
  }
  bits_ = other.bits_;
  std::ranges::copy(other.words(), word_data());
  return *this;
}

BitVector& BitVector::operator=(BitVector&& other) noexcept {
  if (this == &other) return *this;
  release();
  steal(other);
  return *this;
}

BitVector BitVector::operator~() const {
  BitVector out(bits_, true);
  out ^= *this;
  return out;
}

BitVector random_bitvector(std::size_t size, Rng& rng, double density) {
  BitVector v(size);
  v.randomize(rng, density);
  return v;
}

}  // namespace colscore
