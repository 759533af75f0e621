#pragma once

// The adder network behind kernel::bucketDistances, written once over
// a word type W whose bits are 64 (std::uint64_t, in
// fingerprint_kernel.cpp) or 256 (__m256i, in the -mavx2 translation
// unit) independent entry lanes.  Only ^, & and | are applied to a W,
// which both types support (__m256i through the GCC/Clang vector
// extensions), so one network serves both widths.
//
// Everything here has internal linkage: each translation unit compiles
// its own copy, so the linker can never hand the scalar path a function
// body generated with -mavx2.

#include <array>
#include <bit>
#include <cstdint>
#include <utility>

namespace moloc::kernel::detail {
namespace {

/// kThermometerMasks[q][t] is all ones iff t < q: plane t of the
/// query's thermometer code, widened to a whole word.  Plane t of an
/// entry XORed with it has a bit set exactly where the entry and the
/// query differ in that plane, so an entry's count of set bits over
/// the B-1 planes is |q - e|.
constexpr auto kThermometerMasks = [] {
  std::array<std::array<std::uint64_t, 16>, 16> masks{};
  for (int q = 0; q < 16; ++q)
    for (int t = 0; t < 16; ++t) masks[q][t] = t < q ? ~0ull : 0ull;
  return masks;
}();

template <class W>
struct SumCarry {
  W sum;
  W carry;
};

template <class W>
inline SumCarry<W> fullAdd(W a, W b, W c) {
  const W u = a ^ b;
  return {u ^ c, (a & b) | (u & c)};
}

/// Adds one column's distance to every lane's vertical counter:
/// counters[d] holds bit d of each lane's running sum.  `plane(t)`
/// yields XORed plane t (t < P).  The P one-bit inputs are first
/// compressed into a count of bit_width(P) <= 4 bits by a fixed
/// carry-save network sized for 15 inputs; the inputs past P are
/// compile-time zeros, which the compiler folds away, leaving four
/// full adders at P = 7 and eleven at P = 15.  The count is then added
/// over all `depth` counter bits.  No step depends on the data, so the
/// loop carries no mispredictable branch.
template <int P, class W, class Plane>
inline void addColumn(Plane plane, W* counters, int depth) {
  static_assert(1 <= P && P <= 15, "1 to 15 planes per column");
  const auto x = [&]<int... T>(std::integer_sequence<int, T...>) {
    return std::array<W, 15>{(T < P ? plane(T) : W{})...};
  }(std::make_integer_sequence<int, 15>{});

  // Weight 1: x0..x6 reduce to s2 and three weight-2 carries, which
  // already settle a 7-input column; x7..x14 join in the second half.
  const auto [s0, c0] = fullAdd(x[0], x[1], x[2]);
  const auto [s1, c1] = fullAdd(x[3], x[4], x[5]);
  const auto [s2, c2] = fullAdd(x[6], s0, s1);
  const auto [s3, c3] = fullAdd(x[7], x[8], x[9]);
  const auto [s4, c4] = fullAdd(x[10], x[11], x[12]);
  const auto [s5, c5] = fullAdd(x[13], x[14], s3);
  const auto [b0, c6] = fullAdd(s2, s4, s5);
  // Weight 2 (c0..c6), then weight 4 (u0..u2).
  const auto [t0, u0] = fullAdd(c0, c1, c2);
  const auto [t1, u1] = fullAdd(c3, c4, c5);
  const auto [b1, u2] = fullAdd(t0, t1, c6);
  const auto [b2, b3] = fullAdd(u0, u1, u2);
  const W bits[4] = {b0, b1, b2, b3};

  constexpr int kBits = std::bit_width(static_cast<unsigned>(P));
  W carry{};
  for (int d = 0; d < kBits; ++d) {
    const SumCarry<W> added = fullAdd(counters[d], bits[d], carry);
    counters[d] = added.sum;
    carry = added.carry;
  }
  for (int d = kBits; d < depth; ++d) {
    const W sum = counters[d] ^ carry;
    carry = counters[d] & carry;
    counters[d] = sum;
  }
}

}  // namespace
}  // namespace moloc::kernel::detail
