#include "src/compress/lzrw.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

namespace ld {

namespace {

constexpr size_t kHashBits = 12;
constexpr size_t kHashSize = size_t{1} << kHashBits;
constexpr uint32_t kMaxOffset = 4095;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 18;
constexpr int kGroupItems = 16;
// Hash-table entries hold pos + kWindow, so an empty entry (0) is always more
// than kMaxOffset behind any position and needs no sentinel test. Positions
// are 32-bit: inputs past 4 GB still encode validly, just not identically.
constexpr uint32_t kWindow = kMaxOffset + 1;
// Three 8-byte words cover the longest match. The encoder's word path loads
// them at pos and at its candidate, so positions fewer than kWordSpan bytes
// from the end take the byte path; the decoder copies three words when the
// output has that much room left.
constexpr size_t kWordSpan = 3 * 8;
static_assert(kMaxMatch <= kWordSpan);

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// Multiplicative hash of a 3-byte window, given as its little-endian value.
uint32_t HashWindow(uint32_t v) { return (v * 2654435761u) >> (32 - kHashBits); }

// Length of the match at `p` against `q`, given the XOR of their first eight
// bytes, which already agree in the low three. Needs 24 readable bytes at both.
size_t MatchLength(const uint8_t* p, const uint8_t* q, uint64_t diff) {
  if (diff != 0) {
    return static_cast<size_t>(std::countr_zero(diff)) / 8;
  }
  diff = LoadLe64(p + 8) ^ LoadLe64(q + 8);
  if (diff != 0) {
    return 8 + static_cast<size_t>(std::countr_zero(diff)) / 8;
  }
  diff = LoadLe64(p + 16) ^ LoadLe64(q + 16);
  return std::min(16 + static_cast<size_t>(std::countr_zero(diff)) / 8, kMaxMatch);
}

}  // namespace

size_t Lzrw1Compressor::Compress(std::span<const uint8_t> in, std::vector<uint8_t>* out) {
  const size_t n = in.size();
  // Every item is a literal at worst: n + 2 * ceil(n / 16) <= n + n / 8 + 4.
  out->resize(n + n / 8 + 4);
  const uint8_t* const src = in.data();
  uint8_t* const dst_begin = out->data();
  uint8_t* dst = dst_begin;

  uint32_t table[kHashSize];
  std::memset(table, 0, sizeof(table));

  size_t pos = 0;
  while (pos < n) {
    uint8_t* const control_at = dst;
    dst += 2;
    uint32_t control = 0;

    for (int item = 0; item < kGroupItems && pos < n; ++item) {
      size_t len = 0;
      uint32_t dist = 0;
      if (pos + kWordSpan <= n) {
        const uint64_t head = LoadLe64(src + pos);
        uint32_t& slot = table[HashWindow(static_cast<uint32_t>(head & 0xffffff))];
        const uint32_t here = static_cast<uint32_t>(pos) + kWindow;
        dist = here - slot;
        slot = here;
        // Out of range becomes 0, which the compare below rejects: the one
        // branch left is whether a match was found. Written as a ternary,
        // GCC turns this back into an unpredictable branch.
        dist &= -static_cast<uint32_t>(dist <= kMaxOffset);
        const uint64_t diff = head ^ LoadLe64(src + pos - dist);
        if (((diff & 0xffffff) | static_cast<uint64_t>(dist == 0)) == 0) {
          len = MatchLength(src + pos, src + pos - dist, diff);
        }
      } else if (pos + kMinMatch <= n) {
        const uint32_t window = static_cast<uint32_t>(src[pos]) |
                                (static_cast<uint32_t>(src[pos + 1]) << 8) |
                                (static_cast<uint32_t>(src[pos + 2]) << 16);
        uint32_t& slot = table[HashWindow(window)];
        const uint32_t here = static_cast<uint32_t>(pos) + kWindow;
        dist = here - slot;
        slot = here;
        if (dist <= kMaxOffset) {
          const size_t limit = std::min(kMaxMatch, n - pos);
          const uint8_t* const cand = src + pos - dist;
          size_t run = 0;
          while (run < limit && cand[run] == src[pos + run]) {
            ++run;
          }
          if (run >= kMinMatch) {
            len = run;
          }
        }
      }

      if (len != 0) {
        control |= 1u << item;
        // 12-bit offset, 4-bit (len - kMinMatch).
        const uint32_t word = (dist << 4) | static_cast<uint32_t>(len - kMinMatch);
        dst[0] = static_cast<uint8_t>(word);
        dst[1] = static_cast<uint8_t>(word >> 8);
        dst += 2;
        pos += len;
      } else {
        *dst++ = src[pos++];
      }
    }

    control_at[0] = static_cast<uint8_t>(control);
    control_at[1] = static_cast<uint8_t>(control >> 8);
  }
  out->resize(static_cast<size_t>(dst - dst_begin));
  return out->size();
}

Status Lzrw1Compressor::Decompress(std::span<const uint8_t> in, std::span<uint8_t> out) {
  const uint8_t* ip = in.data();
  const uint8_t* const ip_end = ip + in.size();
  uint8_t* const op_begin = out.data();
  uint8_t* op = op_begin;
  uint8_t* const op_end = op + out.size();
  while (op < op_end) {
    if (ip_end - ip < 2) {
      return CorruptionError("lzrw1: truncated control word");
    }
    uint32_t control = static_cast<uint32_t>(ip[0]) | (static_cast<uint32_t>(ip[1]) << 8);
    ip += 2;
    for (int item = 0; item < kGroupItems && op < op_end; ++item, control >>= 1) {
      if (control & 1) {
        if (ip_end - ip < 2) {
          return CorruptionError("lzrw1: truncated copy item");
        }
        const uint32_t word = static_cast<uint32_t>(ip[0]) | (static_cast<uint32_t>(ip[1]) << 8);
        ip += 2;
        const size_t offset = word >> 4;
        const size_t len = (word & 0xf) + kMinMatch;
        if (offset == 0 || offset > static_cast<size_t>(op - op_begin) ||
            len > static_cast<size_t>(op_end - op)) {
          return CorruptionError("lzrw1: bad copy item");
        }
        const uint8_t* const from = op - offset;
        if (offset >= 8 && static_cast<size_t>(op_end - op) >= kWordSpan) {
          // Each 8-byte chunk reads only bytes before the chunk it writes, so
          // chunked copying equals the byte loop; the overshoot past len
          // stays inside `out` and is overwritten by the items that follow.
          std::memcpy(op, from, 8);
          std::memcpy(op + 8, from + 8, 8);
          std::memcpy(op + 16, from + 16, 8);
        } else {
          // Byte-by-byte copy: overlapping copies are the RLE case.
          for (size_t i = 0; i < len; ++i) {
            op[i] = from[i];
          }
        }
        op += len;
      } else {
        if (ip >= ip_end) {
          return CorruptionError("lzrw1: truncated literal");
        }
        *op++ = *ip++;
      }
    }
  }
  if (ip != ip_end) {
    return CorruptionError("lzrw1: trailing bytes after decompression");
  }
  return OkStatus();
}

}  // namespace ld
