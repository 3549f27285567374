// CRC-32 (IEEE 802.3 polynomial) for validating on-disk structures: segment
// summaries, checkpoint regions, and superblocks, and for block payloads.
// Values match the byte-at-a-time definition exactly; the kernel that
// computes them (crc32_internal.h) is chosen once per process from the CPU.

#ifndef SRC_UTIL_CRC32_H_
#define SRC_UTIL_CRC32_H_

#include <cstdint>
#include <span>

namespace ld {

// One-shot CRC of a byte span.
uint32_t Crc32(std::span<const uint8_t> data);

// Incremental form: crc = Crc32Update(crc, chunk) starting from Crc32Init().
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> data);
uint32_t Crc32Final(uint32_t crc);

}  // namespace ld

#endif  // SRC_UTIL_CRC32_H_
