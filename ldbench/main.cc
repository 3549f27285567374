// ldbench: runs one workload in this process and prints its metrics.
//
//   ldbench --workload <smallfile|largefile|hotcold|mixed> --seed <n>
//           --seconds <s> --trace <0|1>
//
// A run repeats the workload on a fresh stack (format, set up, timed phase,
// crash after the final flush, recovery, readback) until `seconds` have
// passed, after one untimed warm-up repetition. Host metrics are medians over
// the repetitions; simulated metrics must come out identical in every
// repetition, or the run reports itself incorrect.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
// untraced repetitions and prints the per-layer metrics, after checking that
// tracing left every simulated result unchanged.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every op succeeded and every check passed.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "ldbench/ldbench.h"
#include "src/util/crc32.h"

#ifndef LDBENCH_BUILD_TYPE
#define LDBENCH_BUILD_TYPE "unknown"
#endif

namespace ldbench {
namespace {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Simulated latency percentiles. The timed phase is cut into windows of
// kSimWindowOps consecutive ops; each window's value is its mean simulated ms
// per op, and the percentile is taken over simulated time (each window weighs
// its simulated duration): p50 is the per-op latency the client sees for half
// of its simulated time, p99 that of its slowest 1%. Plain per-op
// percentiles do not work here: most ops finish in zero simulated time (the
// buffer cache or the open segment absorbs them), so the op median reads 0;
// and the device model rounds every wait to whole sectors, so a per-op
// percentile lands on the same rounded value for almost every seed. Ten-op
// windows were the steadiest across seeds of 10, 20, 30 and 100.
constexpr size_t kSimWindowOps = 10;

double TimeWeightedWindowPercentile(const std::vector<double>& op_ms, double q) {
  // Equal windows of about kSimWindowOps ops (no short last window).
  const size_t count = std::max<size_t>(1, op_ms.size() / kSimWindowOps);
  std::vector<double> windows;  // Window means; each weighs sum = mean * ops.
  for (size_t w = 0; w < count; ++w) {
    const size_t begin = w * op_ms.size() / count;
    const size_t end = (w + 1) * op_ms.size() / count;
    double sum = 0;
    for (size_t j = begin; j < end; ++j) {
      sum += op_ms[j];
    }
    windows.push_back(sum / static_cast<double>(end - begin));
  }
  std::sort(windows.begin(), windows.end());
  double total = 0;
  for (double w : windows) {
    total += w;
  }
  double cumulative = 0;
  for (double w : windows) {
    cumulative += w;
    if (cumulative >= q * total && w > 0) {
      return w;
    }
  }
  return windows.empty() ? 0.0 : windows.back();
}

// Everything one repetition measured.
struct Rep {
  bool traced = false;
  double setup_s = 0;
  // Timed phase.
  uint64_t ops = 0, failed = 0, user_bytes = 0;
  double host_s = 0, sim_s = 0;
  double host_ops_per_s = 0, host_op_us_p50 = 0, host_op_us_p99 = 0;
  double sim_ops_per_s = 0, sim_op_ms_p50 = 0, sim_op_ms_p99 = 0;
  double waf = 0, meta_bytes_per_block = 0;
  // Crash and recovery.
  double recovery_sim_s = 0, recovery_host_ms = 0;
  ld::RecoveryReport recovery;
  VerifyResult verify;
  std::string error;  // A setup or recovery step that failed outright.
  // Layer counters over the timed phase.
  ld::LldCounters lld;
  ld::MemoryFootprint peak_memory;
  uint64_t cache_hits = 0, cache_misses = 0;
  ld::DiskStats disk;
  // Traced repetitions only.
  std::array<double, kNumLayers> self_s{};
  LdTrace ld_trace;
  CompressTrace compress;

  // The deterministic results, which must not vary between repetitions.
  std::string Fingerprint() const {
    std::ostringstream o;
    o.precision(17);
    o << ops << ' ' << failed << ' ' << user_bytes << ' ' << sim_s << ' ' << sim_op_ms_p50 << ' '
      << sim_op_ms_p99 << ' ' << waf << ' ' << meta_bytes_per_block << ' ' << recovery_sim_s << ' '
      << disk.busy_ms << ' ' << disk.sectors_written << ' ' << disk.read_ops << ' '
      << lld.segments_cleaned << ' ' << recovery.records_applied;
    return o.str();
  }
};

// Field-wise difference of the counters a run reports (after - before).
ld::LldCounters Delta(const ld::LldCounters& a, const ld::LldCounters& b) {
  ld::LldCounters d;
  d.user_bytes_written = a.user_bytes_written - b.user_bytes_written;
  d.segments_written = a.segments_written - b.segments_written;
  d.partial_segments_written = a.partial_segments_written - b.partial_segments_written;
  d.segments_cleaned = a.segments_cleaned - b.segments_cleaned;
  d.cleaner_bytes_copied = a.cleaner_bytes_copied - b.cleaner_bytes_copied;
  d.pred_hint_hits = a.pred_hint_hits - b.pred_hint_hits;
  d.pred_hint_misses = a.pred_hint_misses - b.pred_hint_misses;
  return d;
}

ld::DiskStats Delta(const ld::DiskStats& a, const ld::DiskStats& b) {
  ld::DiskStats d;
  d.read_ops = a.read_ops - b.read_ops;
  d.write_ops = a.write_ops - b.write_ops;
  d.sectors_written = a.sectors_written - b.sectors_written;
  d.seek_ms = a.seek_ms - b.seek_ms;
  d.rotation_ms = a.rotation_ms - b.rotation_ms;
  d.transfer_ms = a.transfer_ms - b.transfer_ms;
  d.busy_ms = a.busy_ms - b.busy_ms;
  d.queue_wait_ms = a.queue_wait_ms - b.queue_wait_ms;
  return d;
}

Rep RunRep(Workload* wl, bool traced) {
  Rep r;
  r.traced = traced;
  Tracer tracer;
  Stack s;
  s.config = wl->MakeConfig();

  const int64_t setup0 = NowNs();
  Status st = s.Format(traced ? &tracer : nullptr);
  if (st.ok()) {
    st = wl->Prepare(&s);
  }
  r.setup_s = static_cast<double>(NowNs() - setup0) * 1e-9;
  if (!st.ok()) {
    r.error = "setup: " + st.ToString();
    return r;
  }

  const ld::LldCounters lld0 = s.lld->counters();
  const ld::DiskStats disk0 = s.dev()->stats();
  const uint64_t hits0 = s.fs ? s.fs->cache().hits() : 0;
  const uint64_t misses0 = s.fs ? s.fs->cache().misses() : 0;
  tracer.Reset();
  s.ld_trace = LdTrace{};
  s.compress_trace = CompressTrace{};

  OpLoop loop(&s, wl->ExpectedOps());
  const double sim0 = s.clock.Now();
  const int64_t t0 = NowNs();
  wl->Run(&s, &loop);
  r.host_s = static_cast<double>(NowNs() - t0) * 1e-9;
  r.sim_s = s.clock.Now() - sim0;

  r.ops = loop.attempted;
  r.failed = loop.failed;
  r.user_bytes = loop.user_bytes;
  r.lld = Delta(s.lld->counters(), lld0);
  r.disk = Delta(s.dev()->stats(), disk0);
  r.cache_hits = (s.fs ? s.fs->cache().hits() : 0) - hits0;
  r.cache_misses = (s.fs ? s.fs->cache().misses() : 0) - misses0;
  r.peak_memory = loop.peak_memory;
  for (int l = 0; l < kNumLayers; ++l) {
    r.self_s[l] = static_cast<double>(tracer.self_ns[l]) * 1e-9;
  }
  r.ld_trace = std::move(s.ld_trace);
  r.compress = s.compress_trace;

  std::vector<double> host_us(loop.host_us.begin(), loop.host_us.end());
  r.host_ops_per_s = Ratio(static_cast<double>(r.ops), r.host_s);
  r.host_op_us_p50 = Percentile(host_us, 0.50);
  r.host_op_us_p99 = Percentile(host_us, 0.99);
  r.sim_ops_per_s = Ratio(static_cast<double>(r.ops), r.sim_s);
  r.sim_op_ms_p50 = TimeWeightedWindowPercentile(loop.sim_ms, 0.50);
  r.sim_op_ms_p99 = TimeWeightedWindowPercentile(loop.sim_ms, 0.99);
  const uint32_t sector = s.dev()->sector_size();
  r.waf = Ratio(static_cast<double>(r.disk.sectors_written) * sector,
                static_cast<double>(r.user_bytes));
  r.meta_bytes_per_block = Ratio(static_cast<double>(loop.peak_memory.Total()),
                                 static_cast<double>(loop.peak_live_blocks));

  st = s.CrashAndRecover(&r.recovery_host_ms, &r.recovery_sim_s);
  if (!st.ok()) {
    r.error = "recovery: " + st.ToString();
    return r;
  }
  r.recovery = s.lld->last_recovery();
  wl->Verify(&s, &r.verify);
  return r;
}

// Calibration results land here so the compiler cannot drop the loops.
volatile uint32_t g_sink = 0;

// ns per KB of `fn` over 4-KB buffers: the median of several batches.
template <typename F>
double CalibrateNsPerKb(F&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < 2048; ++i) {
      fn(i);
    }
    batches.push_back(static_cast<double>(NowNs() - t0) / (2048.0 * 4.0));
  }
  return Median(batches);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ldbench: %s\nusage: ldbench --workload <smallfile|largefile|hotcold|mixed> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

// Median of fn(rep) over the traced or the untraced repetitions.
template <typename F>
double MedianOver(const std::vector<Rep>& reps, bool traced, F fn) {
  std::vector<double> v;
  for (const Rep& r : reps) {
    if (r.traced == traced) {
      v.push_back(fn(r));
    }
  }
  return Median(v);
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      return Usage("arguments come in --name value pairs");
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.size() != 4 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return Usage("need exactly --workload, --seed, --seconds and --trace");
  }
  const std::string workload = args["workload"];
  char* end = nullptr;
  const uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0' || args["seed"].empty()) {
    return Usage("--seed must be a non-negative integer");
  }
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0 && seconds <= 600)) {
    return Usage("--seconds must be a number in (0, 600]");
  }
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  const bool trace = args["trace"] == "1";

  std::unique_ptr<Workload> wl = MakeWorkload(workload, seed);
  if (wl == nullptr) {
    return Usage("unknown workload");
  }
  const Config config = wl->MakeConfig();
  std::printf("# ldbench workload=%s seed=%llu seconds=%g trace=%d build=%s nproc=%ld\n",
              workload.c_str(), static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0,
              LDBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# config %s\n", ConfigJson(config).c_str());

  // Warm-up (untimed, untraced), then measured repetitions. The traced run
  // alternates traced and untraced ones so both see the same machine state.
  std::vector<Rep> reps;
  const Rep warmup = RunRep(wl.get(), false);
  const int64_t start = NowNs();
  const int min_reps = trace ? 4 : 3;
  for (int i = 0; static_cast<int>(reps.size()) < min_reps ||
                  static_cast<double>(NowNs() - start) * 1e-9 < seconds;
       ++i) {
    reps.push_back(RunRep(wl.get(), trace && i % 2 == 0));
  }

  // Checks.
  std::vector<std::string> problems;
  uint64_t attempted = 0, failed = 0;
  const std::string reference = warmup.Fingerprint();
  std::vector<const Rep*> all{&warmup};
  for (const Rep& rep : reps) {
    all.push_back(&rep);
  }
  for (const Rep* r : all) {
    attempted += r->ops + r->verify.checked;
    failed += r->failed + r->verify.failed;
    if (!r->error.empty()) {
      problems.push_back(r->error);
      failed++;
    }
    if (r->failed > 0) {
      problems.push_back(std::to_string(r->failed) + " ops failed or read back wrong bytes");
    }
    if (r->verify.failed > 0) {
      problems.push_back(std::to_string(r->verify.failed) +
                         " readbacks failed after recovery, first: " + r->verify.first_error);
    }
    if (r->error.empty() && r->Fingerprint() != reference) {
      problems.push_back(std::string(r->traced ? "traced" : "untraced") +
                         " repetition changed a simulated result: [" + r->Fingerprint() +
                         "] vs [" + reference + "]");
    }
  }
  attempted = std::max<uint64_t>(attempted, 1);

  std::vector<Metric> metrics;
  std::vector<Metric> info;  // On the summary lines only.
  const Rep& first = reps.front();
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  };
  if (!trace) {
    add("setup_s", MedianOver(reps, false, [](const Rep& r) { return r.setup_s; }), "s");
    add("host_ops_per_s", MedianOver(reps, false, [](const Rep& r) { return r.host_ops_per_s; }),
        "1/s");
    // Printed, not gated: see "host_op_us_p50" in ldbench/README.md.
    info.push_back(Metric{"host_op_us_p50",
                          MedianOver(reps, false, [](const Rep& r) { return r.host_op_us_p50; }),
                          "us"});
    info.push_back(Metric{"host_op_us_p99",
                          MedianOver(reps, false, [](const Rep& r) { return r.host_op_us_p99; }),
                          "us"});
    add("sim_ops_per_s", first.sim_ops_per_s, "1/s");
    add("sim_op_ms_p50", first.sim_op_ms_p50, "ms");
    add("sim_op_ms_p99", first.sim_op_ms_p99, "ms");
    add("waf", first.waf, "ratio");
    add("meta_bytes_per_block", first.meta_bytes_per_block, "B/block");
    add("recovery_sim_s", first.recovery_sim_s, "s");
  } else {
    // Per-layer numbers from the traced repetitions: host times are medians
    // over them, counts come from any one (they repeat exactly).
    const Rep& t = reps.front();  // Repetitions alternate, traced first.
    auto med = [&](auto fn) { return MedianOver(reps, true, fn); };
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    // Per-call latency percentile of one class of LD call, times `scale`.
    auto call_pct = [&](CallLog LdTrace::*log, double q, double scale) {
      return med([=](const Rep& r) { return Percentile((r.ld_trace.*log).us, q) * scale; });
    };
    const LdTrace& lt = t.ld_trace;
    const ld::LldCounters& lc = t.lld;
    const CompressTrace& c = t.compress;
    add("minixfs.host_self_s", med([](const Rep& r) { return r.self_s[kMinixfs]; }), "s");
    add("minixfs.cache_hit_ratio", Ratio(d(t.cache_hits), d(t.cache_hits + t.cache_misses)),
        "ratio");
    add("minixfs.cache_misses", d(t.cache_misses), "count");
    add("minixfs.ld_calls_per_op", Ratio(d(lt.Calls()), d(t.ops)), "calls/op");
    add("lld.write.calls", d(lt.write.us.size()), "count");
    add("lld.write.host_us_p50", call_pct(&LdTrace::write, 0.5, 1.0), "us");
    add("lld.write.host_us_p99", call_pct(&LdTrace::write, 0.99, 1.0), "us");
    add("lld.read.calls", d(lt.read.us.size()), "count");
    add("lld.read.host_us_p50", call_pct(&LdTrace::read, 0.5, 1.0), "us");
    add("lld.read.host_us_p99", call_pct(&LdTrace::read, 0.99, 1.0), "us");
    add("lld.meta.calls", d(lt.meta.us.size()), "count");
    add("lld.meta.host_us_p50", call_pct(&LdTrace::meta, 0.5, 1.0), "us");
    add("lld.flush.calls", d(lt.flush.us.size()), "count");
    add("lld.flush.host_ms_p50", call_pct(&LdTrace::flush, 0.5, 1e-3), "ms");
    add("lld.host_self_s", med([](const Rep& r) { return r.self_s[kLld]; }), "s");
    add("lld.cleaning_writes", d(lt.cleaning_write.us.size()), "count");
    add("lld.cleaning_write.host_ms_p50", call_pct(&LdTrace::cleaning_write, 0.5, 1e-3), "ms");
    add("lld.segments_cleaned", d(lc.segments_cleaned), "count");
    add("lld.cleaner_copy_ratio", Ratio(d(lc.cleaner_bytes_copied), d(lc.user_bytes_written)),
        "ratio");
    add("lld.segments_written", d(lc.segments_written), "count");
    add("lld.partial_segments_written", d(lc.partial_segments_written), "count");
    add("lld.pred_hint_hit_ratio",
        Ratio(d(lc.pred_hint_hits), d(lc.pred_hint_hits + lc.pred_hint_misses)), "ratio");
    add("lld.mem.block_map_bytes", d(t.peak_memory.block_map_bytes), "B");
    add("lld.mem.usage_table_bytes", d(t.peak_memory.usage_table_bytes), "B");
    add("lld.mem.list_table_bytes", d(t.peak_memory.list_table_bytes), "B");
    add("lld.open.host_ms", med([](const Rep& r) { return r.recovery_host_ms; }), "ms");
    add("lld.open.summaries_scanned", d(t.recovery.summaries_scanned), "count");
    add("lld.open.records_applied", d(t.recovery.records_applied), "count");
    add("compress.calls", d(c.compress_calls), "count");
    add("compress.ratio", Ratio(d(c.compress_out), d(c.compress_in)), "ratio");
    add("compress.host_ns_per_kb", med([&](const Rep& r) {
          return Ratio(d(r.compress.compress_ns), d(r.compress.compress_in) / 1024.0);
        }),
        "ns/KB");
    add("decompress.calls", d(c.decompress_calls), "count");
    add("decompress.host_ns_per_kb", med([&](const Rep& r) {
          return Ratio(d(r.compress.decompress_ns), d(r.compress.decompress_out) / 1024.0);
        }),
        "ns/KB");
    add("compress.host_self_s", med([](const Rep& r) { return r.self_s[kCompress]; }), "s");
    add("disk.read_ops", d(t.disk.read_ops), "count");
    add("disk.write_ops", d(t.disk.write_ops), "count");
    add("disk.mean_write_kb",
        Ratio(d(t.disk.sectors_written) * 512.0 / 1024.0, d(t.disk.write_ops)), "KB");
    add("disk.host_s", med([](const Rep& r) { return r.self_s[kDisk]; }), "s");
    add("disk.busy_s", t.disk.busy_ms * 1e-3, "s");
    add("disk.seek_s", t.disk.seek_ms * 1e-3, "s");
    add("disk.rotation_s", t.disk.rotation_ms * 1e-3, "s");
    add("disk.transfer_s", t.disk.transfer_ms * 1e-3, "s");
    add("disk.queue_wait_s", t.disk.queue_wait_ms * 1e-3, "s");

    std::vector<uint8_t> a(4096), b(4096);
    for (size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    add("util.crc32.host_ns_per_kb", CalibrateNsPerKb([&](int i) {
          a[0] = static_cast<uint8_t>(i);
          g_sink = g_sink + ld::Crc32(a);
        }),
        "ns/KB");
    add("calib.memcpy_ns_per_kb", CalibrateNsPerKb([&](int i) {
          a[0] = static_cast<uint8_t>(i);
          std::memcpy(b.data(), a.data(), a.size());
          g_sink = g_sink + b[static_cast<size_t>(i) & 4095];
        }),
        "ns/KB");

    // Tracing overhead, and whether the layers' self times account for the
    // timed phase. The client's own time (looping, checking reads) is the
    // only part no layer owns.
    auto ops_per_s = [](const Rep& r) { return r.host_ops_per_s; };
    const double traced_ops_s = MedianOver(reps, true, ops_per_s);
    const double untraced_ops_s = MedianOver(reps, false, ops_per_s);
    add("trace.host_ops_per_s_untraced", untraced_ops_s, "1/s");
    add("trace.host_ops_per_s_traced", traced_ops_s, "1/s");
    add("trace.overhead_host_ops_per_s", untraced_ops_s - traced_ops_s, "1/s");
    const double coverage = med([](const Rep& r) {
      double sum = 0;
      for (double s : r.self_s) {
        sum += s;
      }
      return Ratio(sum, r.host_s);
    });
    add("trace.self_time_coverage", coverage, "ratio");
    if (coverage > 1.0 + 1e-6 || coverage < 0.9) {
      problems.push_back("layer self times cover " + std::to_string(coverage) +
                         " of the timed phase, outside [0.9, 1]");
    }
  }

  const bool correct = problems.empty();
  for (const std::string& p : problems) {
    std::fprintf(stderr, "ldbench: CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("# %zu measured repetitions (+1 warm-up), %llu ops per repetition, "
              "op_fail_ratio %.17g\n",
              reps.size(), static_cast<unsigned long long>(first.ops),
              static_cast<double>(failed) / static_cast<double>(attempted));
  for (const Metric& m : metrics) {
    std::printf("# %-34s %22s %s\n", m.name.c_str(), JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  for (const Metric& m : info) {
    std::printf("# %-34s %22s %s (not gated)\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str());
  }
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << JsonNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ldbench

int main(int argc, char** argv) { return ldbench::Main(argc, argv); }
