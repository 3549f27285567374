// The four workloads, their pinned configuration and the stack they run on.
//
// Each workload builds its whole script and payload pool from the seed in its
// constructor, before any clock starts; the timed loop only indexes into them.

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "ldbench/ldbench.h"

namespace ldbench {

using ld::StatusOr;

// ---------------------------------------------------------------------------
// Inputs

PayloadPool PayloadPool::Make(uint64_t seed, size_t size, double compressible_share) {
  static const char kText[] =
      "the logical disk separates file management from disk management; "
      "a file system names blocks by logical number and groups them in ordered lists, "
      "while the log-structured implementation chooses and changes their physical place. ";
  const size_t text_len = sizeof(kText) - 1;
  PayloadPool pool;
  pool.bytes.resize(size);
  Rng rng(seed);
  size_t pos = 0;
  while (pos < size) {
    const size_t run = std::min<size_t>(64 + rng.Below(192), size - pos);
    if (rng.Unit() < compressible_share) {
      const size_t start = rng.Below(text_len);
      for (size_t i = 0; i < run; ++i) {
        pool.bytes[pos + i] = static_cast<uint8_t>(kText[(start + i) % text_len]);
      }
    } else {
      for (size_t i = 0; i < run; i += 8) {
        const uint64_t word = rng.Next();
        std::memcpy(&pool.bytes[pos + i], &word, std::min<size_t>(8, run - i));
      }
    }
    pos += run;
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Configuration

Config PinnedConfig(uint64_t partition_bytes, bool minix_on_lld, bool compress_file_data) {
  Config c;
  c.partition_bytes = partition_bytes;
  c.minix_on_lld = minix_on_lld;

  c.device.backend = ld::DeviceBackend::kHpC3010;
  c.device.geometry = ld::DiskGeometry::HpC3010Partition(partition_bytes);
  c.device.channels = 1;
  c.device.queue_policy = ld::QueuePolicy::kCScan;
  c.device.queue_depth = 0;
  c.device.qos = ld::QosConfig{};

  ld::LldOptions& l = c.lld;
  l.block_size = 4096;
  l.segment_bytes = 512 * 1024;
  l.summary_bytes = 16384;
  l.partial_segment_threshold = 0.75;
  l.free_segment_reserve = 4;
  l.segments_per_clean = 4;
  l.cleaning_policy = ld::CleaningPolicy::kGreedy;
  l.max_utilization = 0.95;
  l.compressor = nullptr;  // Stack::Format plugs in LZRW1 for compressed lists.
  l.compress_kb_per_s = 1600.0;
  l.decompress_kb_per_s = 1400.0;
  l.pipeline_segment_writes = true;
  l.cluster_on_clean = true;
  l.maintain_lists = true;
  l.track_read_heat = false;
  l.nvram_bytes = 0;
  l.retry = ld::RetryPolicy{};
  l.verify_read_checksums = true;
  l.segment_parity = false;
  l.stripe_parity = false;
  l.rebuild_tenant = ld::kDefaultTenant;
  l.cleaner_tenant = ld::kDefaultTenant;
  l.checkpoint_interval_segments = 0;
  l.defer_checkpoint_frames = false;
  l.parallel_recovery_scan = true;
  l.tenant = ld::kDefaultTenant;
  l.cpu_per_list_op_us = 0.0;

  ld::MinixOptions& m = c.minix;
  m.block_size = 4096;
  m.num_inodes = 16384;
  m.cache_bytes = 6144 * 1024;
  m.synchronous_metadata = false;
  m.readahead_blocks = 8;
  m.async_reads = true;
  m.ld_readahead = false;
  m.cluster_writes = false;
  m.max_cluster_blocks = 16;
  m.compress_file_data = compress_file_data;
  m.sync_with_arus = false;
  m.tenant = ld::kDefaultTenant;
  return c;
}

std::string ConfigJson(const Config& c) {
  std::ostringstream o;
  const ld::LldOptions& l = c.lld;
  const ld::MinixOptions& m = c.minix;
  o << "{\"device\": \"hp_c3010\", \"partition_bytes\": " << c.partition_bytes
    << ", \"channels\": " << c.device.channels << ", \"queue\": \"cscan\""
    << ", \"fs\": \"" << (c.minix_on_lld ? "minix_lld_list_per_file" : "none") << "\""
    << ", \"lld\": {\"block_size\": " << l.block_size << ", \"segment_bytes\": " << l.segment_bytes
    << ", \"summary_bytes\": " << l.summary_bytes
    << ", \"partial_segment_threshold\": " << l.partial_segment_threshold
    << ", \"free_segment_reserve\": " << l.free_segment_reserve
    << ", \"segments_per_clean\": " << l.segments_per_clean
    << ", \"cleaning_policy\": \"greedy\", \"max_utilization\": " << l.max_utilization
    << ", \"compressor\": \"" << (m.compress_file_data ? "lzrw1" : "none") << "\""
    << ", \"pipeline_segment_writes\": " << l.pipeline_segment_writes
    << ", \"checkpoint_interval_segments\": " << l.checkpoint_interval_segments
    << ", \"verify_read_checksums\": " << l.verify_read_checksums
    << ", \"segment_parity\": " << l.segment_parity << ", \"nvram_bytes\": " << l.nvram_bytes
    << "}";
  if (c.minix_on_lld) {
    o << ", \"minix\": {\"block_size\": " << m.block_size << ", \"num_inodes\": " << m.num_inodes
      << ", \"cache_bytes\": " << m.cache_bytes << ", \"async_reads\": " << m.async_reads
      << ", \"ld_readahead\": " << m.ld_readahead
      << ", \"compress_file_data\": " << m.compress_file_data << "}";
  }
  o << "}";
  return o.str();
}

// ---------------------------------------------------------------------------
// Stack

Status Stack::Format(Tracer* t) {
  tracer = t;
  device = ld::MakeDevice(config.device, &clock);
  if (tracer != nullptr) {
    traced_dev = MakeTracingDevice(device.get(), tracer);
  }
  if (config.minix.compress_file_data) {
    config.lld.compressor = &lzrw;
    if (tracer != nullptr) {
      traced_lzrw = MakeTracingCompressor(&lzrw, tracer, &compress_trace);
      config.lld.compressor = traced_lzrw.get();
    }
  }
  ASSIGN_OR_RETURN(lld, ld::LogStructuredDisk::Format(dev(), config.lld));
  if (tracer != nullptr) {
    traced_ld = MakeTracingLd(lld.get(), tracer, &ld_trace);
  }
  if (config.minix_on_lld) {
    ASSIGN_OR_RETURN(fs, ld::MinixFs::FormatOnLd(ld(), config.minix, /*list_per_file=*/true));
  }
  return ld::OkStatus();
}

Status Stack::CrashAndRecover(double* open_host_ms, double* open_sim_s) {
  fs.reset();
  traced_ld.reset();
  lld.reset();
  const double sim0 = clock.Now();
  const int64_t t0 = NowNs();
  ASSIGN_OR_RETURN(lld, ld::LogStructuredDisk::Open(dev(), config.lld));
  *open_host_ms = static_cast<double>(NowNs() - t0) * 1e-6;
  *open_sim_s = clock.Now() - sim0;
  if (config.minix_on_lld) {
    ASSIGN_OR_RETURN(fs, ld::MinixFs::MountOnLd(lld.get(), config.minix));
  }
  return ld::OkStatus();
}

// ---------------------------------------------------------------------------
// OpLoop

OpLoop::OpLoop(Stack* stack, size_t expected_ops) : stack_(stack) {
  host_us.reserve(expected_ops);
  sim_ms.reserve(expected_ops);
}

void OpLoop::SamplePeak() {
  const uint64_t live = stack_->lld->block_map().allocated_count();
  if (live > peak_live_blocks) {
    peak_live_blocks = live;
    peak_memory = stack_->lld->MeasureMemory();
  }
}

namespace {

bool Same(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

// A file of a seeded length (0 to kMaxBlocks 4-KB blocks) written and synced
// during set-up on the MINIX workloads, so each seed's timed phase starts at
// its own position in the log and on the disk's tracks. Without it the
// sequential phases would run the identical disk schedule for every seed.
class AgingFile {
 public:
  static constexpr uint32_t kMaxBlocks = 512;
  static constexpr uint32_t kBlock = 4096;

  AgingFile(Rng* rng, const PayloadPool* pool) : pool_(pool) {
    offsets_.resize(rng->Below(kMaxBlocks + 1));
    for (uint64_t& o : offsets_) {
      o = pool_->PickOffset(rng, kBlock);
    }
  }

  Status Write(ld::MinixFs* fs) const {
    ASSIGN_OR_RETURN(uint32_t ino, fs->CreateFile(kName));
    for (size_t i = 0; i < offsets_.size(); ++i) {
      RETURN_IF_ERROR(fs->WriteFile(ino, i * kBlock, pool_->Slice(offsets_[i], kBlock)));
    }
    return fs->SyncFs();
  }

  void Verify(ld::MinixFs* fs, VerifyResult* v) const {
    v->checked++;
    StatusOr<uint32_t> ino = fs->OpenFile(kName);
    std::vector<uint8_t> buf(offsets_.size() * kBlock + 1);
    StatusOr<size_t> n = ino.ok() ? fs->ReadFile(*ino, 0, buf) : ino.status();
    bool same = n.ok() && *n == offsets_.size() * kBlock;
    for (size_t i = 0; same && i < offsets_.size(); ++i) {
      same = std::memcmp(buf.data() + i * kBlock, pool_->Slice(offsets_[i], kBlock).data(),
                         kBlock) == 0;
    }
    if (!same) {
      v->Fail(std::string(kName) + " differs after recovery");
    }
  }

  static constexpr const char* kName = "/aging";

 private:
  const PayloadPool* pool_;
  std::vector<uint64_t> offsets_;
};

// ---------------------------------------------------------------------------
// smallfile: Table 4's shape. Create+write 1-KB files in one directory, sync
// and drop caches, read them all, drop caches, unlink them all, sync. The
// read phase visits the files in a seeded random order: in creation order
// it would replay the log sequentially, the same way for every seed.

class SmallFile : public Workload {
 public:
  static constexpr uint32_t kFiles = 10000;
  static constexpr uint32_t kFileBytes = 1024;

  explicit SmallFile(uint64_t seed)
      : pool_(PayloadPool::Make(seed ^ 0x51, 2 << 20, 0.0)), rng_(seed), aging_(&rng_, &pool_) {
    files_.resize(kFiles);
    read_order_.resize(kFiles);
    for (uint32_t i = 0; i < kFiles; ++i) {
      files_[i].name = "/f" + std::to_string(i);
      files_[i].offset = pool_.PickOffset(&rng_, kFileBytes);
      read_order_[i] = i;
    }
    for (uint32_t i = kFiles - 1; i > 0; --i) {
      std::swap(read_order_[i], read_order_[rng_.Below(i + 1)]);
    }
  }

  Config MakeConfig() const override { return PinnedConfig(400ull << 20, true, false); }
  size_t ExpectedOps() const override { return 3 * kFiles + 3; }

  Status Prepare(Stack* s) override { return aging_.Write(s->fs.get()); }

  void Run(Stack* s, OpLoop* loop) override {
    ld::MinixFs* fs = s->fs.get();
    for (File& f : files_) {
      loop->Op([&] {
        StatusOr<uint32_t> ino = fs->CreateFile(f.name);
        return ino.ok() && fs->WriteFile(*ino, 0, pool_.Slice(f.offset, kFileBytes)).ok();
      });
      loop->AddUserBytes(kFileBytes);
    }
    loop->Op([&] { return fs->DropCaches().ok(); });
    loop->SamplePeak();
    std::vector<uint8_t> buf(kFileBytes);
    for (uint32_t i : read_order_) {
      const File& f = files_[i];
      size_t got = 0;
      loop->Op(
          [&] {
            StatusOr<uint32_t> ino = fs->OpenFile(f.name);
            if (!ino.ok()) {
              return false;
            }
            StatusOr<size_t> n = fs->ReadFile(*ino, 0, buf);
            got = n.ok() ? *n : 0;
            return n.ok();
          },
          [&] { return got == kFileBytes && Same(buf, pool_.Slice(f.offset, kFileBytes)); });
    }
    loop->Op([&] { return fs->DropCaches().ok(); });
    for (File& f : files_) {
      loop->Op([&] { return fs->Unlink(f.name).ok(); });
    }
    loop->Op([&] { return fs->SyncFs().ok(); });
  }

  // Every file was unlinked and the unlinks acknowledged by the final sync:
  // none may come back, and the recovered file system must be consistent.
  void Verify(Stack* s, VerifyResult* v) override {
    for (File& f : files_) {
      v->checked++;
      if (s->fs->OpenFile(f.name).ok()) {
        v->Fail("unlinked " + f.name + " reappeared after recovery");
      }
    }
    aging_.Verify(s->fs.get(), v);
    v->checked++;
    Status st = s->fs->CheckConsistency();
    if (!st.ok()) {
      v->Fail("fsck: " + st.ToString());
    }
  }

 private:
  struct File {
    std::string name;
    uint64_t offset = 0;
  };
  PayloadPool pool_;
  Rng rng_;
  AgingFile aging_;
  std::vector<File> files_;
  std::vector<uint32_t> read_order_;
};

// ---------------------------------------------------------------------------
// largefile: Table 5's shape. An 80-MB file of incompressible data in 8-KB
// chunks: sequential write, sequential read, random write, random read.

class LargeFile : public Workload {
 public:
  static constexpr uint32_t kChunk = 8192;
  static constexpr uint32_t kChunks = (80u << 20) / kChunk;

  explicit LargeFile(uint64_t seed)
      : pool_(PayloadPool::Make(seed ^ 0x1a, 4 << 20, 0.0)), rng_(seed), aging_(&rng_, &pool_) {
    Rng& rng = rng_;
    seq_write_.resize(kChunks);
    for (uint64_t& o : seq_write_) {
      o = pool_.PickOffset(&rng, kChunk);
    }
    random_write_.resize(kChunks);
    for (Write& w : random_write_) {
      w.chunk = static_cast<uint32_t>(rng.Below(kChunks));
      w.offset = pool_.PickOffset(&rng, kChunk);
    }
    random_read_.resize(kChunks);
    for (uint32_t& c : random_read_) {
      c = static_cast<uint32_t>(rng.Below(kChunks));
    }
  }

  Config MakeConfig() const override { return PinnedConfig(400ull << 20, true, false); }
  size_t ExpectedOps() const override { return 4 * kChunks + 3; }

  Status Prepare(Stack* s) override {
    RETURN_IF_ERROR(aging_.Write(s->fs.get()));
    ASSIGN_OR_RETURN(ino_, s->fs->CreateFile("/large"));
    return ld::OkStatus();
  }

  void Run(Stack* s, OpLoop* loop) override {
    ld::MinixFs* fs = s->fs.get();
    contents_.assign(kChunks, 0);
    auto write = [&](uint32_t chunk, uint64_t offset) {
      loop->Op([&] {
        return fs->WriteFile(ino_, uint64_t{chunk} * kChunk, pool_.Slice(offset, kChunk)).ok();
      });
      loop->AddUserBytes(kChunk);
      contents_[chunk] = offset;
    };
    std::vector<uint8_t> buf(kChunk);
    auto read = [&](uint32_t chunk) {
      size_t got = 0;
      loop->Op(
          [&] {
            StatusOr<size_t> n = fs->ReadFile(ino_, uint64_t{chunk} * kChunk, buf);
            got = n.ok() ? *n : 0;
            return n.ok();
          },
          [&] { return got == kChunk && Same(buf, pool_.Slice(contents_[chunk], kChunk)); });
    };
    auto sync = [&](bool drop) {
      loop->Op([&] { return (drop ? fs->DropCaches() : fs->SyncFs()).ok(); });
    };

    for (uint32_t c = 0; c < kChunks; ++c) {
      write(c, seq_write_[c]);
    }
    sync(true);
    loop->SamplePeak();
    for (uint32_t c = 0; c < kChunks; ++c) {
      read(c);
    }
    for (const Write& w : random_write_) {
      write(w.chunk, w.offset);
    }
    sync(true);
    for (uint32_t c : random_read_) {
      read(c);
    }
    sync(false);
  }

  void Verify(Stack* s, VerifyResult* v) override {
    StatusOr<uint32_t> ino = s->fs->OpenFile("/large");
    if (!ino.ok()) {
      v->Fail("/large lost: " + ino.status().ToString());
      return;
    }
    std::vector<uint8_t> buf(kChunk);
    for (uint32_t c = 0; c < kChunks; ++c) {
      v->checked++;
      StatusOr<size_t> n = s->fs->ReadFile(*ino, uint64_t{c} * kChunk, buf);
      if (!n.ok() || *n != kChunk || !Same(buf, pool_.Slice(contents_[c], kChunk))) {
        v->Fail("chunk " + std::to_string(c) + " of /large differs after recovery");
      }
    }
    aging_.Verify(s->fs.get(), v);
    v->checked++;
    Status st = s->fs->CheckConsistency();
    if (!st.ok()) {
      v->Fail("fsck: " + st.ToString());
    }
  }

 private:
  struct Write {
    uint32_t chunk;
    uint64_t offset;
  };
  PayloadPool pool_;
  Rng rng_;
  AgingFile aging_;
  std::vector<uint64_t> seq_write_;
  std::vector<Write> random_write_;
  std::vector<uint32_t> random_read_;
  uint32_t ino_ = 0;
  std::vector<uint64_t> contents_;  // Pool offset each chunk holds.
};

// ---------------------------------------------------------------------------
// hotcold: raw LLD, no file system. A 96-MB volume filled to 80% live, then
// 4-KB overwrites, 90% of them to the hottest 10% of the blocks. Set-up ages
// the volume with kAgingWrites overwrites of the same skew: per-20000-write
// WAF climbs from 4.4 to about 5.7 over the first ~30000 overwrites and then
// stays within a few percent, so the timed phase measures the cleaner in
// steady state rather than the transient of a fresh volume.

class HotCold : public Workload {
 public:
  static constexpr uint64_t kVolumeBytes = 96ull << 20;
  static constexpr double kUtilization = 0.80;
  static constexpr uint32_t kBlock = 4096;
  static constexpr uint64_t kAgingWrites = 40000;
  static constexpr uint64_t kWrites = 60000;

  explicit HotCold(uint64_t seed)
      : seed_(seed), pool_(PayloadPool::Make(seed ^ 0x4c, 2 << 20, 0.0)) {}

  Config MakeConfig() const override { return PinnedConfig(kVolumeBytes, false, false); }
  size_t ExpectedOps() const override { return kWrites + 1; }

  Status Prepare(Stack* s) override {
    const uint64_t blocks = s->lld->TotalDataCapacity() * kUtilization / kBlock;
    if (script_.empty()) {
      BuildScript(blocks);
    }
    ld::ListHints hints;
    hints.cluster = true;
    ld::LogicalDisk* d = s->ld();
    ASSIGN_OR_RETURN(ld::Lid lid, d->NewList(ld::kBeginOfListOfLists, hints));
    bids_.clear();
    contents_ = fill_;
    ld::Bid pred = ld::kBeginOfList;
    for (uint64_t i = 0; i < blocks; ++i) {
      ASSIGN_OR_RETURN(ld::Bid bid, d->NewBlock(lid, pred));
      RETURN_IF_ERROR(d->Write(bid, pool_.Slice(fill_[i], kBlock)));
      bids_.push_back(bid);
      pred = bid;
    }
    for (const Write& w : aging_) {
      RETURN_IF_ERROR(d->Write(bids_[w.block], pool_.Slice(w.offset, kBlock)));
      contents_[w.block] = w.offset;
    }
    return d->Flush();
  }

  void Run(Stack* s, OpLoop* loop) override {
    ld::LogicalDisk* d = s->ld();
    loop->SamplePeak();
    for (const Write& w : script_) {
      loop->Op([&] { return d->Write(bids_[w.block], pool_.Slice(w.offset, kBlock)).ok(); });
      loop->AddUserBytes(kBlock);
      contents_[w.block] = w.offset;
    }
    loop->Op([&] { return d->Flush().ok(); });
  }

  void Verify(Stack* s, VerifyResult* v) override {
    std::vector<uint8_t> buf(kBlock);
    for (size_t i = 0; i < bids_.size(); ++i) {
      v->checked++;
      Status st = s->lld->Read(bids_[i], buf);
      if (!st.ok() || !Same(buf, pool_.Slice(contents_[i], kBlock))) {
        v->Fail("block " + std::to_string(bids_[i]) + " differs after recovery");
      }
    }
  }

 private:
  struct Write {
    uint32_t block;
    uint64_t offset;
  };
  // The volume size fixes the block count, so the script is built on the
  // first Prepare, still before any timed phase.
  void BuildScript(uint64_t blocks) {
    Rng rng(seed_);
    fill_.resize(blocks);
    for (uint64_t& o : fill_) {
      o = pool_.PickOffset(&rng, kBlock);
    }
    const uint64_t hot = std::max<uint64_t>(1, blocks / 10);
    auto skewed = [&](std::vector<Write>* writes, uint64_t n) {
      writes->resize(n);
      for (Write& w : *writes) {
        const bool to_hot = rng.Below(10) < 9;
        w.block = static_cast<uint32_t>(to_hot ? rng.Below(hot) : hot + rng.Below(blocks - hot));
        w.offset = pool_.PickOffset(&rng, kBlock);
      }
    };
    skewed(&aging_, kAgingWrites);
    skewed(&script_, kWrites);
  }

  uint64_t seed_;
  PayloadPool pool_;
  std::vector<uint64_t> fill_;
  std::vector<Write> aging_;
  std::vector<Write> script_;
  std::vector<ld::Bid> bids_;
  std::vector<uint64_t> contents_;
};

// ---------------------------------------------------------------------------
// mixed: the workday trace shape on MINIX-LLD with LZRW1-compressed file
// data: creates, skewed overwrites, whole-file and random reads, deletes, and
// a sync every 64 ops. Set-up creates the first kMaxLiveFiles files, so the
// timed trace runs at its steady live-set size from the first op.

class Mixed : public Workload {
 public:
  static constexpr uint32_t kOps = 80000;
  static constexpr uint32_t kMaxLiveFiles = 300;
  static constexpr uint32_t kSyncEvery = 64;
  static constexpr size_t kSizeDeck = kMaxLiveFiles;

  explicit Mixed(uint64_t seed)
      : pool_(PayloadPool::Make(seed ^ 0x3d, 4 << 20, 0.62)), rng_(seed), aging_(&rng_, &pool_) {
    Rng& rng = rng_;
    struct Live {
      uint32_t file;
      uint32_t size;
    };
    std::vector<Live> live;
    uint32_t next_file = 0;
    // File sizes come from a shuffled deck of the size distribution's
    // quantiles (stratified sampling): every seed creates the same mix of
    // small and large files, in its own order. Independent draws would let
    // the large files, which dominate the simulated time, vary in number
    // from seed to seed.
    std::vector<uint32_t> deck(kSizeDeck);
    size_t dealt = deck.size();
    auto next_size = [&] {
      if (dealt == deck.size()) {
        for (size_t i = 0; i < deck.size(); ++i) {
          deck[i] = FileSize((static_cast<double>(i) + rng.Unit()) / kSizeDeck);
        }
        for (size_t i = deck.size() - 1; i > 0; --i) {
          std::swap(deck[i], deck[rng.Below(i + 1)]);
        }
        dealt = 0;
      }
      return deck[dealt++];
    };
    auto hot_count = [&] { return std::max<size_t>(1, live.size() / 10); };
    while (live.size() < kMaxLiveFiles) {
      const uint32_t file = next_file++;
      const uint32_t size = next_size();
      prefill_.push_back(TraceOp{Kind::kWrite, file, 0, size, pool_.PickOffset(&rng, size)});
      live.push_back(Live{file, size});
    }
    while (ops_.size() < kOps) {
      if (ops_.size() % kSyncEvery == kSyncEvery - 1) {
        ops_.push_back(TraceOp{Kind::kSync, 0, 0, 0, 0});
        continue;
      }
      const uint64_t kind = rng.Below(100);
      if (live.empty() || (kind < 22 && live.size() < kMaxLiveFiles)) {
        const uint32_t file = next_file++;
        const uint32_t size = next_size();
        ops_.push_back(TraceOp{Kind::kCreate, file, 0, 0, 0});
        ops_.push_back(TraceOp{Kind::kWrite, file, 0, size, pool_.PickOffset(&rng, size)});
        live.push_back(Live{file, size});
      } else if (kind < 45) {
        const bool hot = rng.Below(10) < 9;
        const size_t index =
            hot ? live.size() - 1 - rng.Below(hot_count()) : rng.Below(live.size());
        const Live& f = live[index];
        const uint32_t length = std::min<uint32_t>(f.size, 1024 + rng.Below(16 * 1024));
        const uint64_t offset = f.size > length ? rng.Below(f.size - length) : 0;
        ops_.push_back(
            TraceOp{Kind::kWrite, f.file, offset, length, pool_.PickOffset(&rng, length)});
      } else if (kind < 72) {
        const Live& f = live[rng.Below(live.size())];
        ops_.push_back(TraceOp{Kind::kReadSeq, f.file, 0, f.size, 0});
      } else if (kind < 85) {
        const Live& f = live[rng.Below(live.size())];
        const uint32_t length = std::min<uint32_t>(f.size, 4096);
        const uint64_t offset = f.size > length ? rng.Below(f.size - length) : 0;
        ops_.push_back(TraceOp{Kind::kReadRand, f.file, offset, length, 0});
      } else {
        const size_t index = rng.Below(10) < 7 ? live.size() - 1 - rng.Below(hot_count())
                                               : rng.Below(live.size());
        ops_.push_back(TraceOp{Kind::kDelete, live[index].file, 0, 0, 0});
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
      }
    }
    ops_.resize(kOps);
    ops_.push_back(TraceOp{Kind::kSync, 0, 0, 0, 0});  // The final flush.
    names_.resize(next_file);
    for (uint32_t f = 0; f < next_file; ++f) {
      names_[f] = "/t" + std::to_string(f);
    }
  }

  Config MakeConfig() const override { return PinnedConfig(400ull << 20, true, true); }
  size_t ExpectedOps() const override { return ops_.size(); }

  Status Prepare(Stack* s) override {
    RETURN_IF_ERROR(aging_.Write(s->fs.get()));
    inos_.clear();
    shadow_.clear();
    for (const TraceOp& op : prefill_) {
      const std::span<const uint8_t> data = pool_.Slice(op.pool_offset, op.length);
      ASSIGN_OR_RETURN(inos_[op.file], s->fs->CreateFile(names_[op.file]));
      RETURN_IF_ERROR(s->fs->WriteFile(inos_[op.file], 0, data));
      shadow_[op.file].assign(data.begin(), data.end());
    }
    return s->fs->SyncFs();
  }

  void Run(Stack* s, OpLoop* loop) override {
    ld::MinixFs* fs = s->fs.get();
    std::vector<uint8_t> buf;
    for (const TraceOp& op : ops_) {
      switch (op.kind) {
        case Kind::kCreate:
          loop->Op([&] {
            StatusOr<uint32_t> ino = fs->CreateFile(names_[op.file]);
            inos_[op.file] = ino.ok() ? *ino : 0;
            shadow_[op.file].clear();
            return ino.ok();
          });
          break;
        case Kind::kWrite: {
          const std::span<const uint8_t> data = pool_.Slice(op.pool_offset, op.length);
          loop->Op(
              [&] {
                return fs->WriteFile(inos_[op.file], op.offset, data).ok();
              },
              [&] {
                std::vector<uint8_t>& sh = shadow_[op.file];
                sh.resize(std::max<size_t>(sh.size(), op.offset + op.length));
                std::memcpy(sh.data() + op.offset, data.data(), data.size());
                return true;
              });
          loop->AddUserBytes(op.length);
          break;
        }
        case Kind::kReadSeq:
        case Kind::kReadRand: {
          buf.resize(op.length);
          size_t got = 0;
          loop->Op(
              [&] {
                StatusOr<size_t> n = fs->ReadFile(inos_[op.file], op.offset, buf);
                got = n.ok() ? *n : 0;
                return n.ok();
              },
              [&] {
                const std::vector<uint8_t>& sh = shadow_[op.file];
                return got == op.length && op.offset + op.length <= sh.size() &&
                       std::memcmp(buf.data(), sh.data() + op.offset, op.length) == 0;
              });
          break;
        }
        case Kind::kDelete:
          loop->Op([&] { return fs->Unlink(names_[op.file]).ok(); });
          inos_.erase(op.file);
          shadow_.erase(op.file);
          break;
        case Kind::kSync:
          loop->Op([&] { return fs->SyncFs().ok(); });
          loop->SamplePeak();
          break;
      }
    }
  }

  void Verify(Stack* s, VerifyResult* v) override {
    std::vector<uint8_t> buf;
    for (const auto& [file, content] : shadow_) {
      v->checked++;
      StatusOr<uint32_t> ino = s->fs->OpenFile(names_[file]);
      buf.assign(content.size() + 1, 0);
      StatusOr<size_t> n = ino.ok() ? s->fs->ReadFile(*ino, 0, buf) : ino.status();
      if (!n.ok() || *n != content.size() ||
          std::memcmp(buf.data(), content.data(), content.size()) != 0) {
        v->Fail(names_[file] + " differs after recovery");
      }
    }
    v->checked++;
    StatusOr<std::vector<ld::MinixDirEntry>> dir = s->fs->ReadDir("/");
    size_t files = 0;
    if (dir.ok()) {
      for (const ld::MinixDirEntry& e : *dir) {
        files += e.name != "." && e.name != ".." && "/" + e.name != AgingFile::kName ? 1 : 0;
      }
    }
    if (!dir.ok() || files != shadow_.size()) {
      v->Fail("root directory lists " + std::to_string(files) + " files, expected " +
              std::to_string(shadow_.size()));
    }
    aging_.Verify(s->fs.get(), v);
    v->checked++;
    Status st = s->fs->CheckConsistency();
    if (!st.ok()) {
      v->Fail("fsck: " + st.ToString());
    }
  }

 private:
  enum class Kind : uint8_t { kCreate, kWrite, kReadSeq, kReadRand, kDelete, kSync };
  struct TraceOp {
    Kind kind;
    uint32_t file;
    uint64_t offset;
    uint32_t length;
    uint64_t pool_offset;
  };
  // Inverse CDF of the file-size distribution at quantile u in [0, 1): half
  // the files a few KB, a third up to 32 KB, the rest up to 128 KB. A tail
  // of rarer, larger files would let a handful of whole-file reads set the
  // simulated results, so they would differ widely from seed to seed.
  static uint32_t FileSize(double u) {
    auto within = [](double v, double lo, double hi, uint32_t from, uint32_t span) {
      return static_cast<uint32_t>(from + span * (v - lo) / (hi - lo));
    };
    if (u < 0.5) {
      return within(u, 0.0, 0.5, 512, 4 * 1024);
    }
    if (u < 0.85) {
      return within(u, 0.5, 0.85, 4 * 1024, 28 * 1024);
    }
    return within(u, 0.85, 1.0, 32 * 1024, 96 * 1024);
  }

  PayloadPool pool_;
  Rng rng_;
  AgingFile aging_;
  std::vector<TraceOp> prefill_;  // Set-up: the initial live set.
  std::vector<TraceOp> ops_;
  std::vector<std::string> names_;
  std::unordered_map<uint32_t, uint32_t> inos_;
  std::unordered_map<uint32_t, std::vector<uint8_t>> shadow_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "smallfile") {
    return std::make_unique<SmallFile>(seed);
  }
  if (name == "largefile") {
    return std::make_unique<LargeFile>(seed);
  }
  if (name == "hotcold") {
    return std::make_unique<HotCold>(seed);
  }
  if (name == "mixed") {
    return std::make_unique<Mixed>(seed);
  }
  return nullptr;
}

}  // namespace ldbench
