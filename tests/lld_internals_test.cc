// Direct unit tests for LLD's internal data structures: the summary-record
// codec (including the data-area extension spill), the block-number map,
// the list table, and the segment usage table.

#include <gtest/gtest.h>

#include "src/disk/mem_disk.h"
#include "src/lld/block_map.h"
#include "src/lld/list_table.h"
#include "src/lld/lld.h"
#include "src/lld/summary_record.h"
#include "src/lld/usage_table.h"
#include "src/util/random.h"

namespace ld {
namespace {

// ---- Summary codec ------------------------------------------------------------

SummaryRecord SampleRecord(Rng& rng) {
  switch (rng.Below(10)) {
    case 0:
      return SummaryRecord::BlockEntry(rng.Below(1 << 20), 1 + rng.Below(1000),
                                       rng.Below(1 << 18),
                                       static_cast<uint32_t>(1 + rng.Below(4096)),
                                       static_cast<uint32_t>(1 + rng.Below(4096)),
                                       rng.Chance(0.3), rng.Chance(0.8), rng.Below(1 << 24));
    case 1:
      return SummaryRecord::LinkTuple(rng.Below(1 << 20), 1 + rng.Below(1000),
                                      rng.Below(1000), true);
    case 2:
      return SummaryRecord::ListHead(rng.Below(1 << 20), 1 + rng.Below(100), rng.Below(1000),
                                     true);
    case 3: {
      ListHints hints;
      hints.compress = rng.Chance(0.5);
      hints.cluster = rng.Chance(0.5);
      return SummaryRecord::ListCreate(rng.Below(1 << 20), 1 + rng.Below(100),
                                       hints, rng.Below(100), true);
    }
    case 4:
      return SummaryRecord::ListDelete(rng.Below(1 << 20), 1 + rng.Below(100), true);
    case 5:
      return SummaryRecord::BlockFree(rng.Below(1 << 20), 1 + rng.Below(1000), true);
    case 6:
      return SummaryRecord::BlockAlloc(rng.Below(1 << 20), 1 + rng.Below(1000),
                                       1 + rng.Below(100),
                                       static_cast<uint32_t>(64 + rng.Below(4096)), true);
    case 7:
      // Parity lengths exceed 16 bits (up to ~64 KB + a sector), so the
      // sample exercises the full 24-bit field range.
      return SummaryRecord::SegmentParity(rng.Below(1 << 20), rng.Below(1 << 18),
                                          static_cast<uint32_t>(512 + rng.Below(1 << 17)),
                                          rng.Below(1 << 18), rng.Below(1 << 24));
    case 8:
      return SummaryRecord::ScrubIntent(rng.Below(1 << 20), rng.Below(1 << 20),
                                        rng.Below(1u << 30) * 65536ull + rng.Below(65536));
    default:
      return SummaryRecord::AruCommit(rng.Below(1 << 20), 1 + rng.Below(50));
  }
}

void ExpectRecordsEqual(const SummaryRecord& a, const SummaryRecord& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.ts, b.ts);
  EXPECT_EQ(a.ends_aru, b.ends_aru);
  EXPECT_EQ(a.aru_id, b.aru_id);
  EXPECT_EQ(a.bid, b.bid);
  EXPECT_EQ(a.lid, b.lid);
  switch (a.type) {
    case SummaryRecordType::kBlockEntry:
      EXPECT_EQ(a.offset, b.offset);
      EXPECT_EQ(a.stored_size, b.stored_size);
      EXPECT_EQ(a.orig_size, b.orig_size);
      EXPECT_EQ(a.compressed, b.compressed);
      EXPECT_EQ(a.payload_crc, b.payload_crc);
      break;
    case SummaryRecordType::kLinkTuple:
    case SummaryRecordType::kListHead:
      EXPECT_EQ(a.link_to, b.link_to);
      break;
    case SummaryRecordType::kListCreate:
    case SummaryRecordType::kListMove:
      EXPECT_EQ(a.lol_next, b.lol_next);
      EXPECT_EQ(a.hints.compress, b.hints.compress);
      EXPECT_EQ(a.hints.cluster, b.hints.cluster);
      break;
    case SummaryRecordType::kBlockAlloc:
      EXPECT_EQ(a.orig_size, b.orig_size);
      break;
    case SummaryRecordType::kSegmentParity:
      EXPECT_EQ(a.offset, b.offset);
      EXPECT_EQ(a.stored_size, b.stored_size);
      EXPECT_EQ(a.orig_size, b.orig_size);
      EXPECT_EQ(a.payload_crc, b.payload_crc);
      break;
    case SummaryRecordType::kScrubIntent:
      EXPECT_EQ(a.intent_seq, b.intent_seq);
      break;
    default:
      break;
  }
}

TEST(SummaryCodecTest, RoundTripWithinTail) {
  Rng rng(42);
  std::vector<SummaryRecord> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(SampleRecord(rng));
  }
  SummaryHeader header;
  header.seq = 77;
  header.segment_index = 5;
  header.data_bytes = 12345;

  std::vector<uint8_t> tail(8192);
  ASSERT_TRUE(EncodeSummary(header, records, tail).ok());

  SummaryHeader decoded;
  std::vector<SummaryRecord> out;
  ASSERT_TRUE(DecodeSummary(tail, &decoded, &out).ok());
  EXPECT_EQ(decoded.seq, 77u);
  EXPECT_EQ(decoded.segment_index, 5u);
  EXPECT_EQ(decoded.data_bytes, 12345u);
  EXPECT_EQ(decoded.ext_bytes, 0u);
  ASSERT_EQ(out.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectRecordsEqual(records[i], out[i]);
  }
}

TEST(SummaryCodecTest, SpillsIntoExtensionAndRoundTrips) {
  Rng rng(7);
  std::vector<SummaryRecord> records;
  for (int i = 0; i < 2000; ++i) {  // Far more than a 4-KB tail can hold.
    records.push_back(SampleRecord(rng));
  }
  SummaryHeader header;
  header.seq = 9;
  header.segment_index = 1;

  std::vector<uint8_t> tail(4096);
  std::vector<uint8_t> ext(128 * 1024);
  uint32_t ext_used = 0;
  ASSERT_TRUE(EncodeSummary(header, records, tail, ext, &ext_used).ok());
  EXPECT_GT(ext_used, 0u);

  SummaryHeader decoded;
  ASSERT_TRUE(DecodeSummaryHeader(tail, &decoded).ok());
  EXPECT_EQ(decoded.ext_bytes, ext_used);

  std::vector<SummaryRecord> out;
  // The caller passes exactly the extension span (spill sits at its end).
  ASSERT_TRUE(
      DecodeSummary(tail, std::span<const uint8_t>(ext).subspan(ext.size() - ext_used, ext_used),
                    &decoded, &out)
          .ok());
  ASSERT_EQ(out.size(), records.size());
  for (size_t i = 0; i < records.size(); i += 131) {
    ExpectRecordsEqual(records[i], out[i]);
  }
}

TEST(SummaryCodecTest, OverflowWithoutExtensionFails) {
  Rng rng(3);
  std::vector<SummaryRecord> records;
  for (int i = 0; i < 2000; ++i) {
    records.push_back(SampleRecord(rng));
  }
  std::vector<uint8_t> tail(4096);
  EXPECT_EQ(EncodeSummary(SummaryHeader{}, records, tail).code(), ErrorCode::kCorruption);
}

TEST(SummaryCodecTest, BadMagicIsNotFound) {
  std::vector<uint8_t> tail(4096, 0);
  SummaryHeader header;
  std::vector<SummaryRecord> records;
  EXPECT_EQ(DecodeSummary(tail, &header, &records).code(), ErrorCode::kNotFound);
}

TEST(SummaryCodecTest, BitFlipIsCorruption) {
  Rng rng(11);
  std::vector<SummaryRecord> records;
  for (int i = 0; i < 20; ++i) {
    records.push_back(SampleRecord(rng));
  }
  std::vector<uint8_t> tail(4096);
  ASSERT_TRUE(EncodeSummary(SummaryHeader{}, records, tail).ok());
  tail[100] ^= 0x40;
  SummaryHeader header;
  std::vector<SummaryRecord> out;
  const Status status = DecodeSummary(tail, &header, &out);
  EXPECT_FALSE(status.ok());
}

TEST(SummaryCodecTest, EncodedSizeMatchesReality) {
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    const SummaryRecord r = SampleRecord(rng);
    std::vector<uint8_t> buf;
    Encoder enc(&buf);
    r.EncodeTo(&enc);
    EXPECT_EQ(buf.size(), r.EncodedSize());
  }
}

// A block entry always carries its payload checksum; one with the checksum
// flag clear is not a layout the codec writes and must not decode.
TEST(SummaryCodecTest, BlockEntryWithoutChecksumFlagIsCorruption) {
  const SummaryRecord r =
      SummaryRecord::BlockEntry(5, 42, 8192, 4096, 4096, false, true, 0xabcdef);
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  r.EncodeTo(&enc);
  Decoder clean(buf);
  ASSERT_TRUE(SummaryRecord::DecodeFrom(&clean).ok());

  constexpr size_t kFlagsByte = 1 + 6;      // After type and timestamp.
  constexpr uint8_t kFlagPayloadCrc = 0x20;
  ASSERT_NE(buf[kFlagsByte] & kFlagPayloadCrc, 0);
  buf[kFlagsByte] &= static_cast<uint8_t>(~kFlagPayloadCrc);
  Decoder cleared(buf);
  EXPECT_EQ(SummaryRecord::DecodeFrom(&cleared).status().code(), ErrorCode::kCorruption);
}

// Property sweep over randomized record mixes — all flag/type combinations
// SampleRecord can produce (block entries × parity records × scrub intents
// × the list and allocation types): the codec must (a) round-trip exactly,
// (b) reject every truncation of the encoded image, and (c) reject a bit
// flip anywhere in the encoded bytes. (b) and (c) are what recovery leans
// on when it classifies torn and rotted summaries.
TEST(SummaryCodecTest, PropertyRandomizedRoundTripTruncationAndBitFlips) {
  for (uint64_t seed = 0; seed < 48; ++seed) {
    Rng rng(1000 + seed * 7919);
    std::vector<SummaryRecord> records;
    const int n = 1 + static_cast<int>(rng.Below(24));
    size_t record_bytes = 0;
    for (int i = 0; i < n; ++i) {
      records.push_back(SampleRecord(rng));
      record_bytes += records.back().EncodedSize();
    }
    SummaryHeader header;
    header.seq = 1 + rng.Below(100000);
    header.segment_index = rng.Below(64);
    header.data_bytes = rng.Below(1 << 17);
    std::vector<uint8_t> tail(8192);
    ASSERT_TRUE(EncodeSummary(header, records, tail).ok());

    // (a) Round-trip.
    SummaryHeader decoded;
    std::vector<SummaryRecord> out;
    ASSERT_TRUE(DecodeSummary(tail, &decoded, &out).ok());
    EXPECT_EQ(decoded.seq, header.seq);
    ASSERT_EQ(out.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      ExpectRecordsEqual(records[i], out[i]);
    }

    // Every byte of [0, used) is covered by the header or record checksum.
    const size_t used = SummaryHeader::kEncodedSize + record_bytes;
    ASSERT_LE(used, tail.size());

    // (b) Truncation anywhere inside the used image must not decode.
    const size_t cut = rng.Below(used);
    std::vector<uint8_t> truncated(tail.begin(), tail.begin() + cut);
    SummaryHeader h2;
    std::vector<SummaryRecord> out2;
    EXPECT_FALSE(DecodeSummary(truncated, &h2, &out2).ok()) << "seed " << seed;

    // (c) A single bit flip inside the used image must not decode clean.
    std::vector<uint8_t> flipped = tail;
    flipped[rng.Below(used)] ^= static_cast<uint8_t>(1u << rng.Below(8));
    SummaryHeader h3;
    std::vector<SummaryRecord> out3;
    EXPECT_FALSE(DecodeSummary(flipped, &h3, &out3).ok()) << "seed " << seed;
  }
}

// ---- Block map --------------------------------------------------------------------

TEST(BlockMapTest, AllocateFreeRecycle) {
  BlockMap map;
  const Bid a = map.Allocate(1, 4096);
  const Bid b = map.Allocate(1, 4096);
  EXPECT_NE(a, b);
  EXPECT_NE(a, kNilBid);
  EXPECT_EQ(map.allocated_count(), 2u);
  ASSERT_TRUE(map.Free(a).ok());
  EXPECT_FALSE(map.IsAllocated(a));
  EXPECT_EQ(map.Allocate(1, 4096), a);  // Freed numbers are reused.
  EXPECT_EQ(map.Free(999).code(), ErrorCode::kNotFound);
  EXPECT_EQ(map.Lookup(kNilBid).status().code(), ErrorCode::kNotFound);
}

TEST(BlockMapTest, EnsureAllocatedAndRebuild) {
  BlockMap map;
  map.EnsureAllocated(10).size_class = 64;
  map.EnsureAllocated(10);  // Idempotent.
  EXPECT_EQ(map.allocated_count(), 1u);
  map.ForceFree(10);
  map.ForceFree(10);  // Tolerant of duplicates.
  EXPECT_EQ(map.allocated_count(), 0u);
  map.EnsureAllocated(5);
  map.RebuildFreeList();
  // Bids 1..4 and 6..10 are free; a fresh allocation uses one of them.
  const Bid fresh = map.Allocate(1, 4096);
  EXPECT_NE(fresh, 5u);
  EXPECT_LE(fresh, 10u);
}

// ---- List table ----------------------------------------------------------------------

TEST(ListTableTest, ListOfListsOrdering) {
  ListTable table;
  const Lid a = *table.Allocate(kBeginOfListOfLists, ListHints{});
  const Lid b = *table.Allocate(a, ListHints{});
  const Lid c = *table.Allocate(kBeginOfListOfLists, ListHints{});
  // Order: c, a, b.
  EXPECT_EQ(table.lol_head(), c);
  EXPECT_EQ(table.entry(c).lol_next, a);
  EXPECT_EQ(table.entry(a).lol_next, b);
  ASSERT_TRUE(table.Move(b, c).ok());  // c, b, a.
  EXPECT_EQ(table.entry(c).lol_next, b);
  EXPECT_EQ(table.entry(b).lol_next, a);
  EXPECT_EQ(table.Move(b, b).code(), ErrorCode::kInvalidArgument);
  ASSERT_TRUE(table.Free(b).ok());
  EXPECT_EQ(table.entry(c).lol_next, a);
  EXPECT_EQ(table.Allocate(999, ListHints{}).status().code(), ErrorCode::kNotFound);
}

TEST(ListTableTest, RelinkAfterRecovery) {
  ListTable table;
  // Simulate recovery: materialize entries with only next pointers.
  table.EnsureAllocated(3).lol_next = 7;
  table.EnsureAllocated(7).lol_next = kNilLid;
  table.EnsureAllocated(5).lol_next = 3;
  table.RelinkListOfLists();
  EXPECT_EQ(table.lol_head(), 5u);
  EXPECT_EQ(table.entry(3).lol_prev, 5u);
  EXPECT_EQ(table.entry(7).lol_prev, 3u);
}

// ---- Usage table -----------------------------------------------------------------------

TEST(UsageTableTest, LiveAccountingAndPicks) {
  UsageTable table(4);
  table.segment(0).state = SegmentState::kFull;
  table.segment(1).state = SegmentState::kFull;
  table.segment(2).state = SegmentState::kScratch;
  table.AddLive(0, 1000, 5);
  table.AddLive(1, 200, 50);
  table.AddLive(2, 999, 1);

  EXPECT_EQ(table.TotalLiveBytes(), 2199u);
  EXPECT_EQ(table.FreeCount(), 1u);
  EXPECT_EQ(table.PickFree(), 3);
  EXPECT_EQ(table.PickGreedy(), 1);  // Lowest live among kFull only.
  table.RemoveLive(0, 900);
  EXPECT_EQ(table.PickGreedy(), 0);

  // Cost-benefit prefers the old, mostly-dead segment 0 over fresh 1.
  EXPECT_EQ(table.PickCostBenefit(4096, 100), 0);
}

TEST(UsageTableTest, AddLiveAgedPreservesAgeWhileAdvancingNewest) {
  UsageTable table(1);
  table.segment(0).state = SegmentState::kFull;
  // Cleaner relog at ts 90 of a block originally written at ts 10: record
  // authority moves to 90, the age input stays 10.
  table.AddLiveAged(0, 100, /*relog_ts=*/90, /*age=*/10);
  EXPECT_EQ(table.segment(0).newest_ts, 90u);
  EXPECT_EQ(table.segment(0).age_ts, 10u);
  // Record-only bytes (age unknown = 0) advance newest_ts but leave the age.
  table.AddLiveAged(0, 50, 95, 0);
  EXPECT_EQ(table.segment(0).newest_ts, 95u);
  EXPECT_EQ(table.segment(0).age_ts, 10u);
  // A foreground write (AddLive) refreshes both.
  table.AddLive(0, 10, 97);
  EXPECT_EQ(table.segment(0).newest_ts, 97u);
  EXPECT_EQ(table.segment(0).age_ts, 97u);
}

TEST(UsageTableTest, CostBenefitPrefersPreservedOldAgeAtEqualUtilization) {
  UsageTable table(2);
  table.segment(0).state = SegmentState::kFull;
  table.segment(1).state = SegmentState::kFull;
  // Identical live bytes and identical relog timestamps; only the preserved
  // ages differ. Scoring must read the age, not the relog time — otherwise
  // cleaner output always looks hot and gets recopied forever.
  table.AddLiveAged(0, 1000, /*relog_ts=*/90, /*age=*/5);
  table.AddLiveAged(1, 1000, /*relog_ts=*/90, /*age=*/80);
  EXPECT_EQ(table.PickCostBenefit(4096, /*now=*/100), 0);
}

TEST(UsageTableTest, CostBenefitFallsBackToNewestWhenAgeUnknown) {
  UsageTable table(2);
  table.segment(0).state = SegmentState::kFull;
  table.segment(1).state = SegmentState::kFull;
  // Both segments carry only record bytes (age 0 = unknown): the fallback
  // orders them by newest_ts, so the long-idle segment 0 wins.
  table.AddLiveAged(0, 1000, /*relog_ts=*/10, /*age=*/0);
  table.AddLiveAged(1, 1000, /*relog_ts=*/90, /*age=*/0);
  EXPECT_EQ(table.segment(0).age_ts, 0u);
  EXPECT_EQ(table.PickCostBenefit(4096, /*now=*/100), 0);
}

TEST(UsageTableTest, PicksSkipNonFullStates) {
  UsageTable table(3);
  table.segment(0).state = SegmentState::kScratch;
  table.segment(1).state = SegmentState::kCleaning;
  EXPECT_EQ(table.PickGreedy(), -1);
  EXPECT_EQ(table.PickCostBenefit(4096, 10), -1);
  EXPECT_EQ(table.PickFree(), 2);
}

uint64_t RecountLiveBytes(const UsageTable& table) {
  uint64_t total = 0;
  for (uint32_t i = 0; i < table.num_segments(); ++i) {
    total += table.segment(i).live_bytes();
  }
  return total;
}

TEST(UsageTableTest, RunningTotalMatchesRecountUnderRandomUpdates) {
  constexpr uint32_t kSegs = 16;
  UsageTable table(kSegs);
  Rng rng(42);
  for (int step = 0; step < 20000; ++step) {
    const uint32_t seg = static_cast<uint32_t>(rng.Below(kSegs));
    const uint32_t live = table.segment(seg).live_bytes();
    switch (rng.Below(5)) {
      case 0:
        table.AddLive(seg, static_cast<uint32_t>(rng.Below(8192)), step);
        break;
      case 1:
        table.AddLiveAged(seg, static_cast<uint32_t>(rng.Below(8192)), step, rng.Below(step + 1));
        break;
      case 2:
        table.RemoveLive(seg, static_cast<uint32_t>(rng.Below(uint64_t{live} + 1)));
        break;
      case 3:
        table.SetLive(seg, rng.Chance(0.5) ? 0 : static_cast<uint32_t>(rng.Below(1 << 20)));
        break;
      default:
        if (rng.Chance(0.01)) {
          table.Reset();
        }
        break;
    }
    ASSERT_EQ(table.TotalLiveBytes(), RecountLiveBytes(table)) << "step " << step;
  }
}

// The running total must survive every path that rewrites segment counts
// wholesale inside LLD: cleaner victim resets and checkpoint decode on Open
// (both the clean-shutdown load and the crash-time chain replay).
TEST(UsageTableTest, RunningTotalMatchesRecountAfterCleaningAndCheckpointOpen) {
  SimClock clock;
  MemDisk disk((64ull << 20) / 512, 512, &clock);
  LldOptions options;
  options.segment_bytes = 128 * 1024;
  options.summary_bytes = 8192;
  options.checkpoint_interval_segments = 2;
  std::vector<uint8_t> data(4096);
  {
    auto lld = LogStructuredDisk::Format(&disk, options);
    ASSERT_TRUE(lld.ok()) << lld.status().ToString();
    auto list = (*lld)->NewList(kBeginOfListOfLists, ListHints{});
    ASSERT_TRUE(list.ok());
    std::vector<Bid> bids;
    Bid pred = kBeginOfList;
    for (uint32_t i = 0; i < 300; ++i) {
      auto bid = (*lld)->NewBlock(*list, pred);
      ASSERT_TRUE(bid.ok());
      data[0] = static_cast<uint8_t>(i);
      ASSERT_TRUE((*lld)->Write(*bid, data).ok());
      bids.push_back(*bid);
      pred = *bid;
    }
    // Kill two thirds of the blocks so the victims carry some live data.
    for (size_t i = 0; i < bids.size(); ++i) {
      if (i % 3 != 0) {
        ASSERT_TRUE((*lld)->DeleteBlock(bids[i], *list, kNilBid).ok());
      }
    }
    ASSERT_TRUE((*lld)->Flush().ok());
    ASSERT_TRUE((*lld)->CleanSegments((*lld)->num_segments()).ok());
    ASSERT_GT((*lld)->counters().segments_cleaned, 0u);
    EXPECT_EQ((*lld)->usage_table().TotalLiveBytes(), RecountLiveBytes((*lld)->usage_table()));
    ASSERT_TRUE((*lld)->Flush().ok());
    // Crash: abandon without Shutdown, so Open replays the checkpoint chain.
  }
  {
    auto lld = LogStructuredDisk::Open(&disk, options);
    ASSERT_TRUE(lld.ok()) << lld.status().ToString();
    EXPECT_EQ((*lld)->last_recovery().mode, RecoveryMode::kCheckpointChain);
    EXPECT_EQ((*lld)->usage_table().TotalLiveBytes(), RecountLiveBytes((*lld)->usage_table()));
    ASSERT_TRUE((*lld)->Shutdown().ok());
  }
  auto lld = LogStructuredDisk::Open(&disk, options);
  ASSERT_TRUE(lld.ok()) << lld.status().ToString();
  EXPECT_EQ((*lld)->last_recovery().mode, RecoveryMode::kCheckpointClean);
  EXPECT_GT((*lld)->usage_table().TotalLiveBytes(), 0u);
  EXPECT_EQ((*lld)->usage_table().TotalLiveBytes(), RecountLiveBytes((*lld)->usage_table()));
}

}  // namespace
}  // namespace ld
