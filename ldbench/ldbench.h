// The LD benchmark: closed-loop workloads over MINIX-LLD and raw LLD on the
// simulated HP C3010, measured on both clocks (host wall time of the code and
// the simulated time of the paper's tables). See ldbench/README.md.
//
// Everything here lives in the benchmark's own namespace and reaches the
// system under test only through its public interfaces, so no file under
// src/ knows the benchmark exists.

#ifndef LDBENCH_LDBENCH_H_
#define LDBENCH_LDBENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/compress/lzrw.h"
#include "src/disk/device_factory.h"
#include "src/lld/lld.h"
#include "src/minixfs/minix_fs.h"

namespace ldbench {

using ld::Status;

// ---------------------------------------------------------------------------
// Inputs

// SplitMix64: the benchmark's own generator, so a change to ld::Rng or to the
// repository's workload generators never changes this benchmark's inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform over [0, bound), bound > 0.
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// A pool of payload bytes built before any clock starts. Every write hands
// the system a slice of the pool; the script remembers which slice, so a
// readback is checked against the pool without a shadow copy of the data.
struct PayloadPool {
  std::vector<uint8_t> bytes;
  // `compressible_share` of the pool is dictionary text runs, the rest
  // random bytes (0 = incompressible).
  static PayloadPool Make(uint64_t seed, size_t size, double compressible_share);
  std::span<const uint8_t> Slice(uint64_t offset, size_t length) const {
    return {bytes.data() + offset, length};
  }
  // A slice start for `length` bytes, 8-byte aligned.
  uint64_t PickOffset(Rng* rng, size_t length) const {
    return rng->Below((bytes.size() - length) / 8) * 8;
  }
};

// ---------------------------------------------------------------------------
// Configuration: pinned here, never read from the environment.

struct Config {
  uint64_t partition_bytes = 0;
  ld::DeviceOptions device;
  ld::LldOptions lld;
  ld::MinixOptions minix;
  bool minix_on_lld = true;  // false: raw LLD, no file system.
};

// The paper's configuration (400-MB HP C3010 partition, 512-KB segments,
// 6,144-KB buffer cache), every field set explicitly.
Config PinnedConfig(uint64_t partition_bytes, bool minix_on_lld, bool compress_file_data);
std::string ConfigJson(const Config& config);

// ---------------------------------------------------------------------------
// Tracing (the --trace 1 run only)

enum Layer : int { kMinixfs = 0, kLld, kCompress, kDisk, kNumLayers };

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Span bookkeeping: each decorator opens a span around the call it forwards.
// A layer's self time is its spans' durations minus the part covered by the
// spans of the layers it called.
class Tracer {
 public:
  void Enter(Layer layer) { stack_.push_back(Frame{layer, NowNs(), 0}); }
  // Closes the innermost span; returns its duration in ns.
  int64_t Exit() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const int64_t duration = NowNs() - f.start_ns;
    self_ns[f.layer] += duration - f.child_ns;
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
    }
    return duration;
  }
  void Reset() { self_ns.fill(0); }
  std::array<int64_t, kNumLayers> self_ns{};

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<Frame> stack_;
};

class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Enter(layer);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->Exit();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// Per-call durations of one class of LD call.
struct CallLog {
  std::vector<double> us;
  void Add(int64_t ns) { us.push_back(static_cast<double>(ns) * 1e-3); }
};

// What the LogicalDisk decorator saw.
struct LdTrace {
  CallLog write, read, meta, flush, cleaning_write;
  uint64_t other_calls = 0;  // Waits, reservations, ARUs.
  uint64_t Calls() const {
    return write.us.size() + read.us.size() + meta.us.size() + flush.us.size() + other_calls;
  }
};

struct CompressTrace {
  uint64_t compress_calls = 0, compress_in = 0, compress_out = 0;
  int64_t compress_ns = 0;
  uint64_t decompress_calls = 0, decompress_out = 0;
  int64_t decompress_ns = 0;
};

// LogicalDisk decorator between MinixFs (or the raw-LLD client) and LLD.
std::unique_ptr<ld::LogicalDisk> MakeTracingLd(ld::LogStructuredDisk* inner, Tracer* tracer,
                                               LdTrace* trace);
// BlockDevice decorator between LLD and the MakeDevice device.
std::unique_ptr<ld::BlockDevice> MakeTracingDevice(ld::BlockDevice* inner, Tracer* tracer);
// Compressor decorator passed as LldOptions::compressor.
std::unique_ptr<ld::Compressor> MakeTracingCompressor(ld::Compressor* inner, Tracer* tracer,
                                                      CompressTrace* trace);

// ---------------------------------------------------------------------------
// One repetition of a workload: a fresh stack, set up, timed, crashed,
// recovered and checked.

struct Stack {
  Stack() = default;
  // config.lld.compressor may point at lzrw, a member.
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  Config config;
  ld::SimClock clock;
  std::unique_ptr<ld::BlockDevice> device;       // From MakeDevice.
  std::unique_ptr<ld::BlockDevice> traced_dev;   // Tracing only.
  ld::Lzrw1Compressor lzrw;
  std::unique_ptr<ld::Compressor> traced_lzrw;   // Tracing only.
  std::unique_ptr<ld::LogStructuredDisk> lld;
  std::unique_ptr<ld::LogicalDisk> traced_ld;    // Tracing only.
  std::unique_ptr<ld::MinixFs> fs;               // MINIX workloads only.

  Tracer* tracer = nullptr;  // Null in untraced runs.
  LdTrace ld_trace;
  CompressTrace compress_trace;

  ld::BlockDevice* dev() { return traced_dev ? traced_dev.get() : device.get(); }
  ld::LogicalDisk* ld() {
    return traced_ld ? traced_ld.get() : static_cast<ld::LogicalDisk*>(lld.get());
  }
  // Formats device, LLD and (for MINIX workloads) the file system, with the
  // tracing decorators in place when `t` is not null.
  Status Format(Tracer* t);
  // Abandons LLD and file system without a shutdown checkpoint (a crash after
  // the final flush), reopens LLD, which recovers by sweeping the log, and
  // remounts the file system. Reports the host and simulated time of the
  // LogStructuredDisk::Open alone.
  Status CrashAndRecover(double* open_host_ms, double* open_sim_s);
};

// Timed-phase bookkeeping: one closed-loop client, one op at a time.
class OpLoop {
 public:
  OpLoop(Stack* stack, size_t expected_ops);
  // Runs one op: `call` drives the system and says whether every call
  // succeeded; `check` then compares what it read with the script. Only
  // `call` is timed, inside a minixfs span when the stack has a file system
  // and is traced. Either returning false counts the op as failed.
  template <typename F, typename C>
  void Op(F&& call, C&& check) {
    const double sim0 = stack_->clock.Now();
    const int64_t t0 = NowNs();
    bool ok;
    {
      Span span(stack_->fs ? stack_->tracer : nullptr, kMinixfs);
      ok = call();
    }
    const int64_t t1 = NowNs();
    host_us.push_back(static_cast<float>(static_cast<double>(t1 - t0) * 1e-3));
    sim_ms.push_back((stack_->clock.Now() - sim0) * 1e3);
    attempted++;
    if (!ok || !check()) {
      failed++;
    }
  }
  template <typename F>
  void Op(F&& call) {
    Op(call, [] { return true; });
  }
  // Notes the live set; keeps the LLD memory footprint at its largest.
  void SamplePeak();
  // Payload bytes the client handed to write calls.
  void AddUserBytes(uint64_t n) { user_bytes += n; }

  std::vector<float> host_us;
  std::vector<double> sim_ms;
  uint64_t attempted = 0, failed = 0, user_bytes = 0;
  uint64_t peak_live_blocks = 0;
  ld::MemoryFootprint peak_memory;

 private:
  Stack* stack_;
};

// Check outcome after recovery.
struct VerifyResult {
  uint64_t checked = 0;
  uint64_t failed = 0;
  std::string first_error;
  void Fail(const std::string& what) {
    failed++;
    if (first_error.empty()) {
      first_error = what;
    }
  }
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual Config MakeConfig() const = 0;
  // Untimed: e.g. fill the volume to its target utilization.
  virtual Status Prepare(Stack* s) { (void)s; return ld::OkStatus(); }
  // The timed phase; ends with the final flush.
  virtual void Run(Stack* s, OpLoop* loop) = 0;
  // After CrashAndRecover: reads back every acknowledged file or block.
  virtual void Verify(Stack* s, VerifyResult* v) = 0;
  virtual size_t ExpectedOps() const = 0;
};

// Builds the workload's scripts and payload pools from `seed`; null for an
// unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace ldbench

#endif  // LDBENCH_LDBENCH_H_
