// CRC-32C with the SSE4.2 `crc32` instruction.  This translation unit
// is the only one compiled with -msse4.2; callers reach it only through
// the runtime dispatch in crc32c.cpp, which checks cpuid first, so the
// binary stays safe on CPUs without SSE4.2.
//
// The instruction has a throughput of one per cycle but a latency of
// three, so a single dependent chain runs at a third of the possible
// speed.  Long buffers are therefore cut into three adjacent streams
// that are checksummed in lock step, and the three partial CRCs are
// combined afterwards: a CRC register followed by N more bytes equals
// the register "shifted by N zero bytes" XOR the CRC of those bytes
// started from zero.  Shifting by a fixed N is a linear map over
// GF(2), tabulated here byte-wise (4 x 256 entries) at compile time
// for N = 8192 and N = 256.  This is Mark Adler's crc32c.c hardware
// scheme.  The result is the same integer the slice-by-8 reference
// computes, for every length and alignment.

#if MOLOC_SIMD_ENABLED && defined(__x86_64__)

#include <nmmintrin.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace moloc::store::detail {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // 0x1EDC6F41 reflected.
constexpr std::size_t kLong = 8192;
constexpr std::size_t kShort = 256;

/// A 32x32 matrix over GF(2): entry n is the image of bit n.
using Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t gf2Times(const Matrix& mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; vec != 0; ++i, vec >>= 1)
    if (vec & 1) sum ^= mat[i];
  return sum;
}

constexpr Matrix gf2Square(const Matrix& mat) {
  Matrix square{};
  for (std::size_t n = 0; n < 32; ++n) square[n] = gf2Times(mat, mat[n]);
  return square;
}

/// The operator that feeds `bytes` zero bytes (a power of two) into a
/// CRC register.
constexpr Matrix zerosOperator(std::size_t bytes) {
  Matrix op{};  // One zero bit.
  op[0] = kPoly;
  for (std::size_t n = 1; n < 32; ++n) op[n] = 1u << (n - 1);
  op = gf2Square(gf2Square(gf2Square(op)));  // One zero byte.
  for (; bytes > 1; bytes >>= 1) op = gf2Square(op);
  return op;
}

/// zerosOperator(bytes) applied one register byte at a time.
struct ShiftTable {
  std::uint32_t t[4][256];
};

constexpr ShiftTable shiftTable(std::size_t bytes) {
  const Matrix op = zerosOperator(bytes);
  ShiftTable table{};
  for (std::uint32_t n = 0; n < 256; ++n)
    for (std::size_t k = 0; k < 4; ++k)
      table.t[k][n] = gf2Times(op, n << (8 * k));
  return table;
}

constexpr ShiftTable kLongShift = shiftTable(kLong);
constexpr ShiftTable kShortShift = shiftTable(kShort);

std::uint64_t shift(const ShiftTable& table, std::uint64_t crc) {
  return table.t[0][crc & 0xff] ^ table.t[1][(crc >> 8) & 0xff] ^
         table.t[2][(crc >> 16) & 0xff] ^ table.t[3][(crc >> 24) & 0xff];
}

std::uint64_t load64(const unsigned char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

/// Consumes whole blocks of 3 x `stream` bytes as three interleaved
/// chains, folding them into `crc`.
std::uint64_t threeStreams(std::uint64_t crc, const unsigned char*& p,
                           std::size_t& length, std::size_t stream,
                           const ShiftTable& table) {
  while (length >= 3 * stream) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    const unsigned char* const end = p + stream;
    do {
      crc = _mm_crc32_u64(crc, load64(p));
      crc1 = _mm_crc32_u64(crc1, load64(p + stream));
      crc2 = _mm_crc32_u64(crc2, load64(p + 2 * stream));
      p += 8;
    } while (p < end);
    crc = shift(table, crc) ^ crc1;
    crc = shift(table, crc) ^ crc2;
    p += 2 * stream;
    length -= 3 * stream;
  }
  return crc;
}

}  // namespace

std::uint32_t crc32cSse42(std::uint32_t crc, const void* data,
                          std::size_t length) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = ~crc;
  // Up to seven leading bytes bring the loads onto an 8-byte boundary.
  while (length > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
    --length;
  }
  c = threeStreams(c, p, length, kLong, kLongShift);
  c = threeStreams(c, p, length, kShort, kShortShift);
  for (; length >= 8; length -= 8, p += 8) c = _mm_crc32_u64(c, load64(p));
  for (; length > 0; --length)
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
  return ~static_cast<std::uint32_t>(c);
}

}  // namespace moloc::store::detail

#endif  // MOLOC_SIMD_ENABLED && __x86_64__
