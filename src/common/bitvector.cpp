#include "src/common/bitvector.hpp"

#include <algorithm>
#include <cstring>

#include "src/common/assert.hpp"

namespace colscore {

namespace {
constexpr std::size_t kWordBits = bitkernel::kWordBits;

std::size_t word_count(std::size_t bits) { return bitkernel::word_count(bits); }
}  // namespace

// ---- ConstBitRow / BitRow (out-of-line pieces) ------------------------------

BitVector ConstBitRow::to_bitvector() const {
  BitVector out(bits_);
  if (bits_ != 0)
    std::memcpy(out.word_data(), words_, word_count(bits_) * sizeof(std::uint64_t));
  return out;
}

BitVector ConstBitRow::gather(std::span<const std::size_t> positions) const {
  BitVector out(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    CS_ASSERT(positions[i] < bits_, "gather: position out of range");
    out.set(i, get(positions[i]));
  }
  return out;
}

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
  const std::size_t words = word_count(bits_);
  for (std::size_t i = 0; i < words; ++i) mwords_[i] = value ? ~0ULL : 0ULL;
  const std::size_t rem = bits_ % kWordBits;
  if (rem != 0 && words != 0) mwords_[words - 1] &= (1ULL << rem) - 1;
}

void BitRow::randomize(Rng& rng, double density) noexcept {
  if (density == 0.5) {
    const std::size_t words = word_count(bits_);
    for (std::size_t i = 0; i < words; ++i) mwords_[i] = rng();
    const std::size_t rem = bits_ % kWordBits;
    if (rem != 0 && words != 0) mwords_[words - 1] &= (1ULL << rem) - 1;
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
    std::memmove(mwords_, src.words().data(),
                 word_count(bits_) * sizeof(std::uint64_t));
  return *this;
}

BitRow& BitRow::operator^=(ConstBitRow other) noexcept {
  CS_ASSERT(bits_ == other.size(), "xor: size mismatch");
  bitkernel::xor_into(mwords_, other.words().data(), word_count(bits_));
  return *this;
}

BitRow& BitRow::operator&=(ConstBitRow other) noexcept {
  CS_ASSERT(bits_ == other.size(), "and: size mismatch");
  const std::uint64_t* ow = other.words().data();
  for (std::size_t i = 0; i < word_count(bits_); ++i) mwords_[i] &= ow[i];
  return *this;
}

BitRow& BitRow::operator|=(ConstBitRow other) noexcept {
  CS_ASSERT(bits_ == other.size(), "or: size mismatch");
  const std::uint64_t* ow = other.words().data();
  for (std::size_t i = 0; i < word_count(bits_); ++i) mwords_[i] |= ow[i];
  return *this;
}

// ---- BitVector --------------------------------------------------------------

void BitVector::acquire(std::size_t size) {
  size_ = size;
  const std::size_t words = word_count(size);
  if (words <= kInlineWords) {
    for (std::size_t i = 0; i < kInlineWords; ++i) store_.inline_words[i] = 0;
  } else {
    store_.heap = static_cast<std::uint64_t*>(
        std::calloc(words, sizeof(std::uint64_t)));
    CS_ASSERT(store_.heap != nullptr, "BitVector: allocation failed");
  }
}

void BitVector::release() noexcept {
  if (!is_inline()) std::free(store_.heap);
}

BitVector::BitVector(std::size_t size, bool value) {
  acquire(size);
  if (value) fill(true);
}

BitVector::BitVector(ConstBitRow row) {
  acquire(row.size());
  if (size_ != 0)
    std::memcpy(word_ptr(), row.words().data(),
                word_count(size_) * sizeof(std::uint64_t));
}

BitVector::BitVector(const BitVector& other) {
  acquire(other.size_);
  if (size_ != 0)
    std::memcpy(word_ptr(), other.word_ptr(),
                word_count(size_) * sizeof(std::uint64_t));
}

BitVector::BitVector(BitVector&& other) noexcept
    : size_(other.size_), store_(other.store_) {
  other.size_ = 0;
  other.store_.heap = nullptr;
}

BitVector& BitVector::operator=(const BitVector& other) {
  if (this == &other) return *this;
  if (word_count(size_) != word_count(other.size_) || is_inline() != other.is_inline()) {
    release();
    acquire(other.size_);
  } else {
    size_ = other.size_;
  }
  if (size_ != 0)
    std::memcpy(word_ptr(), other.word_ptr(),
                word_count(size_) * sizeof(std::uint64_t));
  return *this;
}

BitVector& BitVector::operator=(BitVector&& other) noexcept {
  if (this == &other) return *this;
  release();
  size_ = other.size_;
  store_ = other.store_;
  other.size_ = 0;
  other.store_.heap = nullptr;
  return *this;
}

void BitVector::clear_padding() noexcept {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0) word_ptr()[word_count(size_) - 1] &= (1ULL << rem) - 1;
}

bool BitVector::get(std::size_t i) const noexcept {
  return (word_ptr()[i / kWordBits] >> (i % kWordBits)) & 1ULL;
}

void BitVector::set(std::size_t i, bool value) noexcept {
  const std::uint64_t mask = 1ULL << (i % kWordBits);
  if (value)
    word_ptr()[i / kWordBits] |= mask;
  else
    word_ptr()[i / kWordBits] &= ~mask;
}

void BitVector::flip(std::size_t i) noexcept {
  word_ptr()[i / kWordBits] ^= 1ULL << (i % kWordBits);
}

std::size_t BitVector::popcount() const noexcept {
  return bitkernel::popcount(word_ptr(), word_count(size_));
}

std::size_t BitVector::hamming(ConstBitRow other) const noexcept {
  return ConstBitRow(*this).hamming(other);
}

bool BitVector::hamming_exceeds(ConstBitRow other, std::size_t threshold) const noexcept {
  return ConstBitRow(*this).hamming_exceeds(other, threshold);
}

std::vector<std::size_t> BitVector::diff_positions(ConstBitRow other) const {
  return ConstBitRow(*this).diff_positions(other);
}

void BitVector::diff_positions_into(ConstBitRow other,
                                    std::vector<std::size_t>& out) const {
  ConstBitRow(*this).diff_positions_into(other, out);
}

BitVector BitVector::gather(std::span<const std::size_t> positions) const {
  return ConstBitRow(*this).gather(positions);
}

BitVector BitVector::gather(std::span<const ObjectId> positions) const {
  return ConstBitRow(*this).gather(positions);
}

void BitVector::fill(bool value) noexcept {
  std::uint64_t* w = word_ptr();
  const std::size_t words = word_count(size_);
  for (std::size_t i = 0; i < words; ++i) w[i] = value ? ~0ULL : 0ULL;
  clear_padding();
}

void BitVector::randomize(Rng& rng, double density) {
  BitRow(*this).randomize(rng, density);
}

void BitVector::flip_random(Rng& rng, std::size_t count) {
  BitRow(*this).flip_random(rng, count);
}

BitVector& BitVector::operator^=(ConstBitRow other) noexcept {
  BitRow(*this) ^= other;
  return *this;
}

BitVector& BitVector::operator&=(ConstBitRow other) noexcept {
  BitRow(*this) &= other;
  return *this;
}

BitVector& BitVector::operator|=(ConstBitRow other) noexcept {
  BitRow(*this) |= other;
  return *this;
}

BitVector BitVector::operator~() const {
  BitVector out = *this;
  std::uint64_t* w = out.word_ptr();
  const std::size_t words = word_count(size_);
  for (std::size_t i = 0; i < words; ++i) w[i] = ~w[i];
  out.clear_padding();
  return out;
}

std::string BitVector::to_string() const { return ConstBitRow(*this).to_string(); }

std::uint64_t BitVector::content_hash() const noexcept {
  return bitkernel::content_hash(word_ptr(), size_);
}

BitVector random_bitvector(std::size_t size, Rng& rng, double density) {
  BitVector v(size);
  v.randomize(rng, density);
  return v;
}

}  // namespace colscore
