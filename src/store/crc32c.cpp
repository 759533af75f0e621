#include "store/crc32c.hpp"

#include <array>

namespace moloc::store {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // 0x1EDC6F41 reflected.

/// Slice-by-8 lookup tables: table[0] is the classic byte-at-a-time
/// table, table[k] advances a byte seen k positions earlier, so the
/// inner loop folds 8 input bytes per iteration (~8x the throughput
/// of byte-at-a-time).
struct Tables {
  std::uint32_t t[8][256];
};

Tables buildTables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    tables.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i)
    for (int k = 1; k < 8; ++k)
      tables.t[k][i] =
          (tables.t[k - 1][i] >> 8) ^ tables.t[0][tables.t[k - 1][i] & 0xff];
  return tables;
}

const Tables& tables() {
  static const Tables instance = buildTables();
  return instance;
}

#if MOLOC_SIMD_ENABLED && defined(__x86_64__)
bool cpuHasSse42() {
  static const bool supported = __builtin_cpu_supports("sse4.2");
  return supported;
}
#endif

}  // namespace

#if MOLOC_SIMD_ENABLED && defined(__x86_64__)
namespace detail {
// Defined in crc32c_sse42.cpp, the one translation unit compiled with
// -msse4.2; called only once cpuHasSse42() said yes.
std::uint32_t crc32cSse42(std::uint32_t crc, const void* data,
                          std::size_t length);
}  // namespace detail
#endif

std::uint32_t crc32cScalar(std::uint32_t crc, const void* data,
                           std::size_t length) {
  const auto* p = static_cast<const unsigned char*>(data);
  const Tables& tb = tables();
  crc = ~crc;
  while (length >= 8) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = tb.t[7][crc & 0xff] ^ tb.t[6][(crc >> 8) & 0xff] ^
          tb.t[5][(crc >> 16) & 0xff] ^ tb.t[4][(crc >> 24) & 0xff] ^
          tb.t[3][p[4]] ^ tb.t[2][p[5]] ^ tb.t[1][p[6]] ^ tb.t[0][p[7]];
    p += 8;
    length -= 8;
  }
  while (length-- > 0) crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
  return ~crc;
}

std::uint32_t crc32c(std::uint32_t crc, const void* data,
                     std::size_t length) {
#if MOLOC_SIMD_ENABLED && defined(__x86_64__)
  if (cpuHasSse42()) return detail::crc32cSse42(crc, data, length);
#endif
  return crc32cScalar(crc, data, length);
}

std::uint32_t crc32c(const void* data, std::size_t length) {
  return crc32c(0, data, length);
}

}  // namespace moloc::store
