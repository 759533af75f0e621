#pragma once

#include <cstddef>
#include <cstdint>

namespace moloc::store {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) — the
/// checksum guarding every WAL record frame, checkpoint file, venue
/// image and wire frame.  Chosen over plain CRC-32 for its better
/// error-detection properties on short records and because it is the
/// de-facto standard for storage framing (iSCSI, ext4, leveldb), so
/// on-disk files stay checkable by standard tools.
///
/// crc32c(data, n) computes the checksum of one buffer; the
/// (crc, data, n) overload continues a running checksum, so large
/// checkpoints and images can be checksummed in pieces without
/// concatenation.  Both are pure functions of the bytes.
///
/// Dispatch: on x86-64 builds with MOLOC_SIMD on, the first call checks
/// the CPU once (cached in a static) and, when it has SSE4.2, every
/// call runs the `crc32` instruction over three interleaved streams
/// (crc32c_sse42.cpp).  Otherwise — other CPUs, other architectures,
/// MOLOC_SIMD=OFF — it runs crc32cScalar.  CRC-32C is an integer
/// function, so both paths give the same value for the same bytes and
/// no file or wire format depends on which one ran.
std::uint32_t crc32c(const void* data, std::size_t length);
std::uint32_t crc32c(std::uint32_t crc, const void* data,
                     std::size_t length);

/// The portable slice-by-8 implementation: the fallback of crc32c and
/// the reference the hardware path is tested against.
std::uint32_t crc32cScalar(std::uint32_t crc, const void* data,
                           std::size_t length);

}  // namespace moloc::store
