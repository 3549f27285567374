// Tests for the compression substrate: lossless round-trips on many data
// shapes (property-style fuzz), the pinned LZRW1 wire format, the encoder's
// worst-case output bound, corruption detection, the store-raw fallback
// contract, and the achieved ratio on workload-generated data (the paper
// assumes ~60 %).

#include <gtest/gtest.h>

#include "src/compress/lzrw.h"
#include "src/util/crc32.h"
#include "src/util/random.h"
#include "src/workload/data_gen.h"

namespace ld {
namespace {

void RoundTrip(std::span<const uint8_t> input) {
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  c.Compress(input, &packed);
  std::vector<uint8_t> out(input.size());
  ASSERT_TRUE(c.Decompress(packed, out).ok());
  EXPECT_TRUE(std::equal(input.begin(), input.end(), out.begin()));
}

TEST(LzrwTest, EmptyInput) {
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  EXPECT_EQ(c.Compress({}, &packed), 0u);
  std::vector<uint8_t> out;
  EXPECT_TRUE(c.Decompress(packed, out).ok());
}

TEST(LzrwTest, AllZerosCompressesWell) {
  std::vector<uint8_t> input(4096, 0);
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  const size_t n = c.Compress(input, &packed);
  EXPECT_LT(n, input.size() / 4);
  RoundTrip(input);
}

TEST(LzrwTest, RandomDataDoesNotShrink) {
  Rng rng(17);
  std::vector<uint8_t> input(4096);
  for (auto& b : input) {
    b = static_cast<uint8_t>(rng.Next());
  }
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  const size_t n = c.Compress(input, &packed);
  EXPECT_GE(n, input.size());  // Caller stores raw in this case.
  RoundTrip(input);
}

TEST(LzrwTest, TextCompresses) {
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "the logical disk separates file management from disk management. ";
  }
  std::vector<uint8_t> input(text.begin(), text.end());
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  const size_t n = c.Compress(input, &packed);
  EXPECT_LT(n, input.size() / 2);
  RoundTrip(input);
}

// Property-style sweep: round-trip random structured inputs of many sizes.
class LzrwFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(LzrwFuzzTest, RoundTripStructuredRandom) {
  Rng rng(GetParam());
  const size_t size = 1 + rng.Below(65535);
  std::vector<uint8_t> input(size);
  // Mix of runs, repeated motifs, and noise.
  size_t pos = 0;
  while (pos < size) {
    const int kind = static_cast<int>(rng.Below(3));
    const size_t run = std::min<size_t>(1 + rng.Below(300), size - pos);
    if (kind == 0) {
      const uint8_t v = static_cast<uint8_t>(rng.Next());
      std::fill_n(input.begin() + pos, run, v);
    } else if (kind == 1 && pos > 4) {
      for (size_t i = 0; i < run; ++i) {
        input[pos + i] = input[pos + i - 4];
      }
    } else {
      for (size_t i = 0; i < run; ++i) {
        input[pos + i] = static_cast<uint8_t>(rng.Next());
      }
    }
    pos += run;
  }
  RoundTrip(input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzrwFuzzTest, ::testing::Range(0, 64));

// Inputs for the wire-format pin, each a pure function of (shape, seed).
enum class Shape { kRandom, kText, kRuns, kPool62 };

constexpr char kPinText[] =
    "the logical disk separates file management from disk management; "
    "a file system names blocks by logical number and groups them in ordered lists, "
    "while the log-structured implementation chooses and changes their physical place. ";

std::vector<uint8_t> MakeShape(Shape shape, size_t size, uint64_t seed) {
  constexpr size_t kTextLen = sizeof(kPinText) - 1;
  Rng rng(seed);
  std::vector<uint8_t> out(size);
  size_t pos = 0;
  while (pos < size) {
    switch (shape) {
      case Shape::kRandom:
        out[pos++] = static_cast<uint8_t>(rng.Next());
        break;
      case Shape::kText: {
        const size_t start = rng.Below(kTextLen);
        const size_t run = std::min<size_t>(1 + rng.Below(400), size - pos);
        for (size_t i = 0; i < run; ++i) {
          out[pos + i] = static_cast<uint8_t>(kPinText[(start + i) % kTextLen]);
        }
        pos += run;
        break;
      }
      case Shape::kRuns: {
        const size_t run = std::min<size_t>(1 + rng.Below(300), size - pos);
        std::fill_n(out.begin() + pos, run, static_cast<uint8_t>(rng.Next()));
        pos += run;
        break;
      }
      case Shape::kPool62: {
        // ldbench's mixed payload pool: 64..255-byte runs, 62 % text.
        const size_t run = std::min<size_t>(64 + rng.Below(192), size - pos);
        if (rng.NextDouble() < 0.62) {
          const size_t start = rng.Below(kTextLen);
          for (size_t i = 0; i < run; ++i) {
            out[pos + i] = static_cast<uint8_t>(kPinText[(start + i) % kTextLen]);
          }
        } else {
          for (size_t i = 0; i < run; ++i) {
            out[pos + i] = static_cast<uint8_t>(rng.Next());
          }
        }
        pos += run;
        break;
      }
    }
  }
  return out;
}

// Pins LZRW1's output bytes. Stored sizes feed compress.ratio, segment
// layout, WAF and the golden device digests, so an encoder rewrite must
// reproduce them exactly. Each digest is the CRC-32 of (u32 input size,
// encoder output) over every input size 0..64 (the byte-at-a-time tail and
// its hand-over from the word path), 4096 (one block) and 65535 (the
// largest LLD block), one seed per size.
TEST(LzrwGoldenTest, WireFormatMatchesGoldenDigest) {
  struct Case {
    Shape shape;
    const char* name;
    uint32_t digest;
  };
  const Case cases[] = {
      {Shape::kRandom, "random", 0x5962498fu},
      {Shape::kText, "text", 0x424f1d5du},
      {Shape::kRuns, "runs", 0x6b76ee37u},
      {Shape::kPool62, "pool62", 0x257ffd32u},
  };
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 64; ++n) {
    sizes.push_back(n);
  }
  sizes.push_back(4096);
  sizes.push_back(65535);
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  for (const Case& tc : cases) {
    uint32_t crc = Crc32Init();
    for (const size_t n : sizes) {
      const std::vector<uint8_t> input = MakeShape(tc.shape, n, 1000 + n);
      c.Compress(input, &packed);
      const uint8_t size_bytes[4] = {static_cast<uint8_t>(n), static_cast<uint8_t>(n >> 8),
                                     static_cast<uint8_t>(n >> 16), static_cast<uint8_t>(n >> 24)};
      crc = Crc32Update(crc, size_bytes);
      crc = Crc32Update(crc, packed);
      std::vector<uint8_t> out(n);
      ASSERT_TRUE(c.Decompress(packed, out).ok()) << tc.name << " size " << n;
      ASSERT_EQ(out, input) << tc.name << " size " << n;
    }
    const uint32_t digest = Crc32Final(crc);
    EXPECT_EQ(digest, tc.digest) << tc.name << std::hex << " digest 0x" << digest;
  }
}

// The encoder writes through a raw pointer into a buffer sized up front, so
// incompressible input, where every item is a literal, must stay within the
// worst case of n input bytes plus one 2-byte control word per 16 items.
TEST(LzrwTest, IncompressibleOutputStaysWithinWorstCase) {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 100; ++n) {
    sizes.push_back(n);
  }
  sizes.push_back(65535);
  Lzrw1Compressor c;
  for (const size_t n : sizes) {
    const std::vector<uint8_t> input = MakeShape(Shape::kRandom, n, 7 + n);
    std::vector<uint8_t> packed;  // Fresh, so its capacity is what Compress asks for.
    const size_t csize = c.Compress(input, &packed);
    EXPECT_EQ(csize, packed.size());
    EXPECT_LE(csize, n + 2 * ((n + 15) / 16)) << "size " << n;
    std::vector<uint8_t> out(n);
    ASSERT_TRUE(c.Decompress(packed, out).ok()) << "size " << n;
    EXPECT_EQ(out, input) << "size " << n;
  }
}

TEST(LzrwTest, DecompressDetectsTruncation) {
  std::vector<uint8_t> input(1024, 'x');
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  c.Compress(input, &packed);
  packed.resize(packed.size() / 2);
  std::vector<uint8_t> out(input.size());
  EXPECT_FALSE(c.Decompress(packed, out).ok());
}

TEST(LzrwTest, DecompressDetectsTrailingGarbage) {
  std::vector<uint8_t> input(256, 'y');
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;
  c.Compress(input, &packed);
  packed.push_back(0);
  packed.push_back(0);
  packed.push_back(0);
  std::vector<uint8_t> out(input.size());
  EXPECT_FALSE(c.Decompress(packed, out).ok());
}

// A copy item must reach back no further than the bytes already produced
// and must not run past the end of the output.
TEST(LzrwTest, DecompressRejectsOutOfRangeCopies) {
  Lzrw1Compressor c;
  // Item 0 is a copy (control bit 0) of offset 1, length 3, with nothing
  // decoded yet to copy from.
  const std::vector<uint8_t> before_start = {0x01, 0x00, 0x10, 0x00};
  std::vector<uint8_t> out(8);
  EXPECT_FALSE(c.Decompress(before_start, out).ok());
  // One literal, then a copy of offset 1 and length 18 into 4 bytes of room.
  const std::vector<uint8_t> past_end = {0x02, 0x00, 'a', 0x1f, 0x00};
  std::vector<uint8_t> small(5);
  EXPECT_FALSE(c.Decompress(past_end, small).ok());
  // The same copy fits when the output has room for it.
  std::vector<uint8_t> exact(19);
  ASSERT_TRUE(c.Decompress(past_end, exact).ok());
  EXPECT_EQ(exact, std::vector<uint8_t>(19, 'a'));
}

TEST(NullCompressorTest, IdentityBehaviour) {
  NullCompressor c;
  std::vector<uint8_t> input = {1, 2, 3, 4};
  std::vector<uint8_t> packed;
  EXPECT_EQ(c.Compress(input, &packed), 4u);
  std::vector<uint8_t> out(4);
  EXPECT_TRUE(c.Decompress(packed, out).ok());
  EXPECT_EQ(out, input);
  std::vector<uint8_t> wrong(3);
  EXPECT_FALSE(c.Decompress(packed, wrong).ok());
}

// The workload generator must hit the paper's assumed ~60 % ratio so that
// the compression experiments are comparable (§3.3).
TEST(DataGeneratorTest, HitsTargetRatioApproximately) {
  DataGenerator gen(123, 0.6);
  Lzrw1Compressor c;
  uint64_t raw = 0, packed_total = 0;
  std::vector<uint8_t> packed;
  for (int i = 0; i < 50; ++i) {
    std::vector<uint8_t> block = gen.Make(4096);
    raw += block.size();
    packed_total += c.Compress(block, &packed);
  }
  const double ratio = static_cast<double>(packed_total) / raw;
  EXPECT_GT(ratio, 0.45);
  EXPECT_LT(ratio, 0.75);
}

TEST(DataGeneratorTest, ExtremesBehave) {
  Lzrw1Compressor c;
  std::vector<uint8_t> packed;

  DataGenerator incompressible(1, 1.0);
  std::vector<uint8_t> hard = incompressible.Make(8192);
  EXPECT_GT(static_cast<double>(c.Compress(hard, &packed)) / hard.size(), 0.9);

  DataGenerator soft(2, 0.35);
  std::vector<uint8_t> easy = soft.Make(8192);
  EXPECT_LT(static_cast<double>(c.Compress(easy, &packed)) / easy.size(), 0.55);
}

}  // namespace
}  // namespace ld
