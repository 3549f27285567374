// The two CRC-32 kernels behind Crc32Update (src/util/crc32.h), exposed so
// tests can run each one directly on any CPU. Both compute the same reflected
// IEEE 802.3 CRC as the byte-at-a-time definition; production code calls
// Crc32Update, which picks a kernel once per process from the CPU's features.

#ifndef SRC_UTIL_CRC32_INTERNAL_H_
#define SRC_UTIL_CRC32_INTERNAL_H_

#include <cstdint>
#include <span>

namespace ld::crc32_internal {

// Portable kernel: slicing-by-8 (eight 256-entry tables, eight bytes per
// step, byte loop for the tail).
uint32_t UpdateSlicing8(uint32_t crc, std::span<const uint8_t> data);

// True when the carry-less-multiply kernel can run on this CPU. Always false
// where the kernel is not compiled in (any target other than x86-64).
bool ClmulSupported();

#if defined(__x86_64__)
// x86-64 kernel: PCLMULQDQ folding of 64-byte blocks, finished by the
// slicing kernel. Spans shorter than 64 bytes go to the slicing kernel
// directly. Call only when ClmulSupported().
uint32_t UpdateClmul(uint32_t crc, std::span<const uint8_t> data);
#endif

}  // namespace ld::crc32_internal

#endif  // SRC_UTIL_CRC32_INTERNAL_H_
