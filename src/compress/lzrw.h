// LZRW1-style compressor: single-pass, greedy LZ77 with a 4096-entry hash of
// 3-byte prefixes, 12-bit offsets and 3..18-byte matches, emitted in groups
// of 16 items under a control bitmap. Chosen for the same reasons the paper
// cites for Wheeler's algorithm: simplicity and speed.
//
// The encoder's output bytes are pinned by LzrwGoldenTest in
// tests/compress_test.cc: stored sizes drive compress.ratio, segment layout
// and WAF, so a faster encoder must emit exactly the same stream. The probe
// is branch-free (an out-of-range candidate is masked to offset 0, which the
// 3-byte compare rejects) and matches are measured 8 bytes at a time, so the
// only data-dependent branch per item is whether a match was found.

#ifndef SRC_COMPRESS_LZRW_H_
#define SRC_COMPRESS_LZRW_H_

#include "src/compress/compressor.h"

namespace ld {

class Lzrw1Compressor : public Compressor {
 public:
  const char* name() const override { return "lzrw1"; }

  size_t Compress(std::span<const uint8_t> in, std::vector<uint8_t>* out) override;
  Status Decompress(std::span<const uint8_t> in, std::span<uint8_t> out) override;
};

}  // namespace ld

#endif  // SRC_COMPRESS_LZRW_H_
