#include "src/util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#include "src/util/crc32_internal.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ld {

namespace crc32_internal {

namespace {

// Tables[0] is the classic byte-at-a-time table of the reflected polynomial;
// Tables[k][b] is the CRC contribution of byte b followed by k zero bytes, so
// eight table lookups advance the CRC over eight bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

}  // namespace

uint32_t UpdateSlicing8(uint32_t crc, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xffu] ^
          kTables[2][(hi >> 8) & 0xffu] ^ kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p) {
    crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

namespace {

// Folding constants for the reflected IEEE polynomial (bit-reflected
// x^k mod P, as in Intel's "Fast CRC Computation Using PCLMULQDQ"): the low
// lane multiplies the low 64 bits of the running value, the high lane the
// high 64 bits. kFold512 advances a 128-bit lane by 512 bits (four lanes of
// 64-byte blocks); kFold128 advances it by 128 bits.
constexpr long long kFold512Lo = 0x154442bd4;
constexpr long long kFold512Hi = 0x1c6e41596;
constexpr long long kFold128Lo = 0x1751997d0;
constexpr long long kFold128Hi = 0x0ccaa009e;

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x * x^distance + next, with the distance encoded in k.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i x, __m128i k,
                                                               __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

}  // namespace

bool ClmulSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

__attribute__((target("pclmul,sse4.1"))) uint32_t UpdateClmul(uint32_t crc,
                                                                std::span<const uint8_t> data) {
  if (data.size() < 64) {
    return UpdateSlicing8(crc, data);
  }
  const uint8_t* p = data.data();
  size_t n = data.size();

  // Four independent 128-bit lanes; the incoming CRC is XORed into the
  // first four message bytes, which is what the table kernel does implicitly.
  __m128i x0 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  n -= 64;

  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  while (n >= 64) {
    x0 = Fold(x0, k512, Load128(p));
    x1 = Fold(x1, k512, Load128(p + 16));
    x2 = Fold(x2, k512, Load128(p + 32));
    x3 = Fold(x3, k512, Load128(p + 48));
    p += 64;
    n -= 64;
  }

  // Fold the four lanes into one, then absorb any remaining whole 16-byte
  // blocks.
  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  __m128i x = Fold(x0, k128, x1);
  x = Fold(x, k128, x2);
  x = Fold(x, k128, x3);
  while (n >= 16) {
    x = Fold(x, k128, Load128(p));
    p += 16;
    n -= 16;
  }

  // The folded value is congruent to everything consumed so far, laid out as
  // one 16-byte message block: its CRC from a zero register is the running
  // CRC. Reduce it and the sub-16-byte tail with the table kernel.
  uint8_t folded[16] = {};
  _mm_storeu_si128(reinterpret_cast<__m128i*>(folded), x);
  crc = UpdateSlicing8(0, folded);
  return UpdateSlicing8(crc, std::span<const uint8_t>(p, n));
}

#else

bool ClmulSupported() { return false; }

#endif  // defined(__x86_64__)

}  // namespace crc32_internal

uint32_t Crc32Init() { return 0xffffffffu; }

uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> data) {
#if defined(__x86_64__)
  static const bool use_clmul = crc32_internal::ClmulSupported();
  if (use_clmul && data.size() >= 64) {
    return crc32_internal::UpdateClmul(crc, data);
  }
#endif
  return crc32_internal::UpdateSlicing8(crc, data);
}

uint32_t Crc32Final(uint32_t crc) { return crc ^ 0xffffffffu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

}  // namespace ld
