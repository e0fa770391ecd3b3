#include "common/rng.hpp"

namespace spikestream::common {

namespace {

using Bits = std::array<std::uint64_t, 4>;
using Matrix = std::array<Bits, 256>;  // column j: the image of state bit j

Bits times(const Matrix& m, const Bits& s) {
  Bits out{};
  for (int j = 0; j < 256; ++j) {
    const std::uint64_t take = 0 - ((s[j >> 6] >> (j & 63)) & 1);
    for (int w = 0; w < 4; ++w) out[w] ^= m[j][w] & take;
  }
  return out;
}

Matrix times(const Matrix& a, const Matrix& b) {
  Matrix out;
  for (int j = 0; j < 256; ++j) out[j] = times(a, b[j]);
  return out;
}

}  // namespace

Rng::Jump::Jump(std::uint64_t n) {
  Matrix step;
  for (int j = 0; j < 256; ++j) {
    Rng unit;
    unit.state_ = {};
    unit.state_[j >> 6] = std::uint64_t{1} << (j & 63);
    unit.next_u64();
    step[j] = unit.state_;
  }
  for (int j = 0; j < 256; ++j) {
    col_[j] = {};
    col_[j][j >> 6] = std::uint64_t{1} << (j & 63);
  }
  for (; n != 0; n >>= 1) {
    if (n & 1) col_ = times(step, col_);
    if (n > 1) step = times(step, step);
  }
}

void Rng::Jump::apply(Rng& rng) const { rng.state_ = times(col_, rng.state_); }

}  // namespace spikestream::common
