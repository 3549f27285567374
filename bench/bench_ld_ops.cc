// CPU microbenchmarks of the LD interface primitives (google-benchmark).
//
// The paper's performance results are disk-bound; this binary measures the
// *CPU* cost of LLD's in-memory work (block-map updates, list maintenance,
// summary logging, segment assembly) on a zero-latency MemDisk, which is
// what a host would pay per operation on top of the I/O.
//
// BM_Memcpy_4K is the in-binary calibration: host cost checks compare other
// rows to it as a ratio (e.g. CRC of 4 KB against a 4-KB copy), which holds
// across hosts of different speed. BM_LzrwCompress4K/BM_LzrwDecompress4K
// time LZRW1 on 4-KB blocks of mixed text and noise. BM_CleanRound times
// whole cleaning rounds on an aged volume; BM_MinixLookupLargeDir times MINIX
// name lookups in a large linear directory on LLD.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "src/compress/lzrw.h"
#include "src/disk/mem_disk.h"
#include "src/lld/lld.h"
#include "src/minixfs/minix_fs.h"
#include "src/util/crc32.h"
#include "src/util/random.h"

namespace ld {
namespace {

struct Rig {
  SimClock clock;
  std::unique_ptr<MemDisk> disk;
  std::unique_ptr<LogStructuredDisk> lld;
  Lid list;

  Rig() {
    disk = std::make_unique<MemDisk>((256ull << 20) / 512, 512, &clock);
    LldOptions options;
    lld = *LogStructuredDisk::Format(disk.get(), options);
    list = *lld->NewList(kBeginOfListOfLists, ListHints{});
  }
};

std::vector<uint8_t> RandomPage() {
  std::vector<uint8_t> page(4096);
  Rng rng(1);
  for (auto& b : page) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return page;
}

void BM_Crc32_4K(benchmark::State& state) {
  const std::vector<uint8_t> page = RandomPage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(page));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Crc32_4K);

void BM_Memcpy_4K(benchmark::State& state) {
  const std::vector<uint8_t> page = RandomPage();
  std::vector<uint8_t> copy(page.size());
  for (auto _ : state) {
    std::memcpy(copy.data(), page.data(), page.size());
    benchmark::DoNotOptimize(copy.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Memcpy_4K);

// 64 distinct 4-KB blocks cut from one pool of 64..255-byte runs, 62 % of
// them text and the rest random bytes (ldbench's mixed payload shape; LZRW1
// packs it to 0.57). The rows cycle through all of them: with one repeated
// block the branch predictor learns its match pattern, and an encoder with
// data-dependent branches reads ~1.8x cheaper than on fresh blocks.
constexpr size_t kLzrwBlocks = 64;

std::vector<uint8_t> MixedTextPool() {
  static const char kText[] =
      "the logical disk separates file management from disk management; "
      "a file system names blocks by logical number and groups them in ordered lists, "
      "while the log-structured implementation chooses and changes their physical place. ";
  const size_t text_len = sizeof(kText) - 1;
  std::vector<uint8_t> pool(kLzrwBlocks * 4096);
  Rng rng(7);
  size_t pos = 0;
  while (pos < pool.size()) {
    const size_t run = std::min<size_t>(64 + rng.Below(192), pool.size() - pos);
    const bool text = rng.NextDouble() < 0.62;
    const size_t start = rng.Below(text_len);
    for (size_t i = 0; i < run; ++i) {
      pool[pos + i] = text ? static_cast<uint8_t>(kText[(start + i) % text_len])
                           : static_cast<uint8_t>(rng.Next());
    }
    pos += run;
  }
  return pool;
}

void BM_LzrwCompress4K(benchmark::State& state) {
  const std::vector<uint8_t> pool = MixedTextPool();
  Lzrw1Compressor lzrw;
  std::vector<uint8_t> packed;
  size_t i = 0;
  for (auto _ : state) {
    const std::span<const uint8_t> block(pool.data() + (i++ % kLzrwBlocks) * 4096, 4096);
    benchmark::DoNotOptimize(lzrw.Compress(block, &packed));
    benchmark::DoNotOptimize(packed.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_LzrwCompress4K);

void BM_LzrwDecompress4K(benchmark::State& state) {
  const std::vector<uint8_t> pool = MixedTextPool();
  Lzrw1Compressor lzrw;
  std::vector<std::vector<uint8_t>> packed(kLzrwBlocks);
  for (size_t b = 0; b < kLzrwBlocks; ++b) {
    lzrw.Compress(std::span<const uint8_t>(pool.data() + b * 4096, 4096), &packed[b]);
  }
  std::vector<uint8_t> out(4096);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lzrw.Decompress(packed[i++ % kLzrwBlocks], out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_LzrwDecompress4K);

void BM_NewDeleteBlock(benchmark::State& state) {
  Rig rig;
  for (auto _ : state) {
    Bid bid = *rig.lld->NewBlock(rig.list, kBeginOfList);
    benchmark::DoNotOptimize(bid);
    (void)rig.lld->DeleteBlock(bid, rig.list, kNilBid);
  }
}
BENCHMARK(BM_NewDeleteBlock);

void BM_Write4K(benchmark::State& state) {
  Rig rig;
  Bid bid = *rig.lld->NewBlock(rig.list, kBeginOfList);
  std::vector<uint8_t> data(4096, 0x7e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.lld->Write(bid, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Write4K);

void BM_Read4KFromOpenSegment(benchmark::State& state) {
  Rig rig;
  Bid bid = *rig.lld->NewBlock(rig.list, kBeginOfList);
  std::vector<uint8_t> data(4096, 0x7e);
  (void)rig.lld->Write(bid, data);
  std::vector<uint8_t> out(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.lld->Read(bid, out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Read4KFromOpenSegment);

void BM_Read4KFromDisk(benchmark::State& state) {
  Rig rig;
  // Fill past several segments so reads hit "disk" (MemDisk) paths.
  std::vector<uint8_t> data(4096, 0x7e);
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (int i = 0; i < 512; ++i) {
    Bid bid = *rig.lld->NewBlock(rig.list, pred);
    (void)rig.lld->Write(bid, data);
    bids.push_back(bid);
    pred = bid;
  }
  (void)rig.lld->Flush();
  std::vector<uint8_t> out(4096);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.lld->Read(bids[i++ % 256], out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Read4KFromDisk);

void BM_FlushPartial(benchmark::State& state) {
  Rig rig;
  Bid bid = *rig.lld->NewBlock(rig.list, kBeginOfList);
  std::vector<uint8_t> data(4096, 0x11);
  for (auto _ : state) {
    (void)rig.lld->Write(bid, data);
    benchmark::DoNotOptimize(rig.lld->Flush());
  }
}
BENCHMARK(BM_FlushPartial);

void BM_DeleteBlockWithHint(benchmark::State& state) {
  Rig rig;
  for (auto _ : state) {
    state.PauseTiming();
    Bid a = *rig.lld->NewBlock(rig.list, kBeginOfList);
    Bid b = *rig.lld->NewBlock(rig.list, a);
    state.ResumeTiming();
    (void)rig.lld->DeleteBlock(b, rig.list, a);  // Correct hint: O(1).
    state.PauseTiming();
    (void)rig.lld->DeleteBlock(a, rig.list, kNilBid);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_DeleteBlockWithHint);

// Host cost of a cleaning round, reported as ns_per_segment (host ns per
// segment cleaned). A 64-MB volume is aged to ~80 % live with 90/10-skewed
// 4-KB overwrites, the hotcold benchmark's shape; each iteration overwrites
// more blocks untimed, then times one explicit CleanSegments round.
void BM_CleanRound(benchmark::State& state) {
  SimClock clock;
  MemDisk disk((64ull << 20) / 512, 512, &clock);
  LldOptions options;
  auto lld = *LogStructuredDisk::Format(&disk, options);
  const Lid list = *lld->NewList(kBeginOfListOfLists, ListHints{});
  const uint64_t blocks = (64ull << 20) / 4096 * 8 / 10;
  const uint64_t hot = blocks / 10;
  std::vector<uint8_t> data(4096, 0x5a);
  std::vector<Bid> bids;
  Bid pred = kBeginOfList;
  for (uint64_t i = 0; i < blocks; ++i) {
    pred = *lld->NewBlock(list, pred);
    (void)lld->Write(pred, data);
    bids.push_back(pred);
  }
  Rng rng(3);
  const auto churn = [&](uint64_t writes) {
    for (uint64_t w = 0; w < writes; ++w) {
      const uint64_t pick = rng.Chance(0.9) ? rng.Below(hot) : hot + rng.Below(blocks - hot);
      (void)lld->Write(bids[pick], data);
    }
  };
  churn(2 * blocks);
  double ns = 0;
  uint64_t segments = 0;
  for (auto _ : state) {
    state.PauseTiming();
    churn(512);
    const uint64_t before = lld->counters().segments_cleaned;
    state.ResumeTiming();
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(lld->CleanSegments(options.segments_per_clean));
    ns += std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start).count();
    segments += lld->counters().segments_cleaned - before;
  }
  state.counters["ns_per_segment"] = segments == 0 ? 0.0 : ns / static_cast<double>(segments);
}
BENCHMARK(BM_CleanRound)->Unit(benchmark::kMicrosecond);

// Host cost of one OpenFile of a seeded random name in a 10 000-entry
// directory of MINIX on LLD (list per file, the paper's default cache): a
// linear scan of ~157 directory blocks, every one a buffer-cache hit.
void BM_MinixLookupLargeDir(benchmark::State& state) {
  constexpr int kFiles = 10000;
  SimClock clock;
  MemDisk disk((256ull << 20) / 512, 512, &clock);
  auto lld = *LogStructuredDisk::Format(&disk, LldOptions{});
  auto fs = *MinixFs::FormatOnLd(lld.get(), MinixOptions{}, /*list_per_file=*/true);
  std::vector<std::string> paths;
  for (int i = 0; i < kFiles; ++i) {
    paths.push_back("/f" + std::to_string(i));
    (void)fs->CreateFile(paths.back());
  }
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs->OpenFile(paths[rng.Below(kFiles)]));
  }
}
BENCHMARK(BM_MinixLookupLargeDir);

}  // namespace
}  // namespace ld

BENCHMARK_MAIN();
