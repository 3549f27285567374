// Thin timing decorators for the traced run. Each forwards every call to the
// layer it wraps, unchanged, inside a span, so the traced run must reproduce
// the untraced run's simulated results exactly (main.cc checks that).

#include "ldbench/ldbench.h"

namespace ldbench {

namespace {

using ld::Bid;
using ld::IoTag;
using ld::Lid;
using ld::StatusOr;

// Times one forwarded call into `log` (when given) under the lld layer.
class LdCall {
 public:
  LdCall(Tracer* tracer, CallLog* log) : tracer_(tracer), log_(log) { tracer_->Enter(kLld); }
  ~LdCall() {
    const int64_t ns = tracer_->Exit();
    if (log_ != nullptr) {
      log_->Add(ns);
    }
  }
  LdCall(const LdCall&) = delete;
  LdCall& operator=(const LdCall&) = delete;

 private:
  Tracer* tracer_;
  CallLog* log_;
};

class TracingLd : public ld::LogicalDisk {
 public:
  TracingLd(ld::LogStructuredDisk* inner, Tracer* tracer, LdTrace* trace)
      : inner_(inner), tracer_(tracer), trace_(trace) {}

  Status Read(Bid bid, std::span<uint8_t> out) override {
    LdCall c(tracer_, &trace_->read);
    return inner_->Read(bid, out);
  }
  StatusOr<IoTag> SubmitRead(Bid bid, std::span<uint8_t> out) override {
    LdCall c(tracer_, &trace_->read);
    return inner_->SubmitRead(bid, out);
  }
  Status WaitRead(IoTag tag) override {
    LdCall c(tracer_, Other());
    return inner_->WaitRead(tag);
  }
  Status Write(Bid bid, std::span<const uint8_t> data) override {
    const uint64_t cleaned = inner_->counters().segments_cleaned;
    const int64_t t0 = NowNs();
    Status s;
    {
      LdCall c(tracer_, &trace_->write);
      s = inner_->Write(bid, data);
    }
    if (inner_->counters().segments_cleaned != cleaned) {
      trace_->cleaning_write.Add(NowNs() - t0);
    }
    return s;
  }
  StatusOr<Bid> NewBlock(Lid lid, Bid pred_bid, uint32_t size_bytes) override {
    LdCall c(tracer_, &trace_->meta);
    return inner_->NewBlock(lid, pred_bid, size_bytes);
  }
  Status DeleteBlock(Bid bid, Lid lid, Bid pred_bid_hint) override {
    LdCall c(tracer_, &trace_->meta);
    return inner_->DeleteBlock(bid, lid, pred_bid_hint);
  }
  StatusOr<Lid> NewList(Lid pred_lid, ld::ListHints hints) override {
    LdCall c(tracer_, &trace_->meta);
    return inner_->NewList(pred_lid, hints);
  }
  Status DeleteList(Lid lid, Lid pred_lid_hint) override {
    LdCall c(tracer_, &trace_->meta);
    return inner_->DeleteList(lid, pred_lid_hint);
  }
  Status MoveSublist(Bid first, Bid last, Lid from_lid, Lid to_lid, Bid pred_bid) override {
    LdCall c(tracer_, &trace_->meta);
    return inner_->MoveSublist(first, last, from_lid, to_lid, pred_bid);
  }
  Status MoveList(Lid lid, Lid new_pred_lid) override {
    LdCall c(tracer_, Other());
    return inner_->MoveList(lid, new_pred_lid);
  }
  Status FlushList(Lid lid) override {
    LdCall c(tracer_, &trace_->flush);
    return inner_->FlushList(lid);
  }
  Status BeginARU() override {
    LdCall c(tracer_, Other());
    return inner_->BeginARU();
  }
  Status EndARU() override {
    LdCall c(tracer_, Other());
    return inner_->EndARU();
  }
  StatusOr<AruId> BeginConcurrentARU() override {
    LdCall c(tracer_, Other());
    return inner_->BeginConcurrentARU();
  }
  Status SelectARU(AruId id) override {
    LdCall c(tracer_, Other());
    return inner_->SelectARU(id);
  }
  Status EndConcurrentARU(AruId id) override {
    LdCall c(tracer_, Other());
    return inner_->EndConcurrentARU(id);
  }
  Status AbandonARU(AruId id) override {
    LdCall c(tracer_, Other());
    return inner_->AbandonARU(id);
  }
  Status SwapContents(Bid a, Bid b) override {
    LdCall c(tracer_, Other());
    return inner_->SwapContents(a, b);
  }
  StatusOr<Bid> BlockAtIndex(Lid lid, uint64_t index) override {
    LdCall c(tracer_, Other());
    return inner_->BlockAtIndex(lid, index);
  }
  Status Flush(ld::FailureSet failures) override {
    LdCall c(tracer_, &trace_->flush);
    return inner_->Flush(failures);
  }
  Status ReserveBlocks(uint64_t count, uint32_t size_bytes) override {
    LdCall c(tracer_, Other());
    return inner_->ReserveBlocks(count, size_bytes);
  }
  Status CancelReservation(uint64_t count, uint32_t size_bytes) override {
    LdCall c(tracer_, Other());
    return inner_->CancelReservation(count, size_bytes);
  }
  StatusOr<ld::ScrubReport> Scrub() override {
    LdCall c(tracer_, Other());
    return inner_->Scrub();
  }
  Status Shutdown() override {
    LdCall c(tracer_, Other());
    return inner_->Shutdown();
  }
  // Constant-time queries: forwarded untimed and uncounted.
  bool degraded() const override { return inner_->degraded(); }
  ld::DiskStats* device_stats() override { return inner_->device_stats(); }
  void SetTenant(ld::TenantId tenant) override { inner_->SetTenant(tenant); }
  uint32_t default_block_size() const override { return inner_->default_block_size(); }
  StatusOr<uint32_t> BlockSize(Bid bid) const override { return inner_->BlockSize(bid); }
  uint64_t FreeBytes() const override { return inner_->FreeBytes(); }

 private:
  CallLog* Other() {
    trace_->other_calls++;
    return nullptr;
  }

  ld::LogStructuredDisk* inner_;
  Tracer* tracer_;
  LdTrace* trace_;
};

// Forwards like ld::FaultDisk, with every request-path call in a disk span.
class TracingDevice : public ld::BlockDevice {
 public:
  TracingDevice(ld::BlockDevice* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  uint32_t sector_size() const override { return inner_->sector_size(); }
  uint64_t num_sectors() const override { return inner_->num_sectors(); }
  Status Read(uint64_t sector, std::span<uint8_t> out) override {
    Span s(tracer_, kDisk);
    return inner_->Read(sector, out);
  }
  Status Write(uint64_t sector, std::span<const uint8_t> data) override {
    Span s(tracer_, kDisk);
    return inner_->Write(sector, data);
  }
  StatusOr<IoTag> SubmitRead(uint64_t sector, std::span<uint8_t> out) override {
    Span s(tracer_, kDisk);
    return inner_->SubmitRead(sector, out);
  }
  StatusOr<IoTag> SubmitWrite(uint64_t sector, std::span<const uint8_t> data) override {
    Span s(tracer_, kDisk);
    return inner_->SubmitWrite(sector, data);
  }
  Status WaitFor(IoTag tag) override {
    Span s(tracer_, kDisk);
    return inner_->WaitFor(tag);
  }
  std::vector<ld::IoCompletion> Poll() override {
    Span s(tracer_, kDisk);
    return inner_->Poll();
  }
  Status Drain() override {
    Span s(tracer_, kDisk);
    return inner_->Drain();
  }
  void set_queue_policy(ld::QueuePolicy policy) override { inner_->set_queue_policy(policy); }
  ld::QueuePolicy queue_policy() const override { return inner_->queue_policy(); }
  void set_queue_depth(uint32_t depth) override { inner_->set_queue_depth(depth); }
  uint32_t queue_depth() const override { return inner_->queue_depth(); }
  void set_request_tenant(ld::TenantId tenant) override { inner_->set_request_tenant(tenant); }
  ld::TenantId request_tenant() const override { return inner_->request_tenant(); }
  void set_qos(const ld::QosConfig& config) override { inner_->set_qos(config); }
  ld::QosConfig qos() const override { return inner_->qos(); }
  uint32_t num_channels() const override { return inner_->num_channels(); }
  uint32_t ChannelOf(uint64_t sector) const override { return inner_->ChannelOf(sector); }
  double ScheduledCompletion(IoTag tag) const override { return inner_->ScheduledCompletion(tag); }
  ld::SimClock* clock() override { return inner_->clock(); }
  const ld::DiskStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  ld::DiskStats* mutable_stats() override { return inner_->mutable_stats(); }

 private:
  ld::BlockDevice* inner_;
  Tracer* tracer_;
};

class TracingCompressor : public ld::Compressor {
 public:
  TracingCompressor(ld::Compressor* inner, Tracer* tracer, CompressTrace* trace)
      : inner_(inner), tracer_(tracer), trace_(trace) {}

  const char* name() const override { return inner_->name(); }
  size_t Compress(std::span<const uint8_t> in, std::vector<uint8_t>* out) override {
    tracer_->Enter(kCompress);
    const size_t n = inner_->Compress(in, out);
    trace_->compress_ns += tracer_->Exit();
    trace_->compress_calls++;
    trace_->compress_in += in.size();
    trace_->compress_out += n;
    return n;
  }
  Status Decompress(std::span<const uint8_t> in, std::span<uint8_t> out) override {
    tracer_->Enter(kCompress);
    Status s = inner_->Decompress(in, out);
    trace_->decompress_ns += tracer_->Exit();
    trace_->decompress_calls++;
    trace_->decompress_out += out.size();
    return s;
  }

 private:
  ld::Compressor* inner_;
  Tracer* tracer_;
  CompressTrace* trace_;
};

}  // namespace

std::unique_ptr<ld::LogicalDisk> MakeTracingLd(ld::LogStructuredDisk* inner, Tracer* tracer,
                                               LdTrace* trace) {
  return std::make_unique<TracingLd>(inner, tracer, trace);
}

std::unique_ptr<ld::BlockDevice> MakeTracingDevice(ld::BlockDevice* inner, Tracer* tracer) {
  return std::make_unique<TracingDevice>(inner, tracer);
}

std::unique_ptr<ld::Compressor> MakeTracingCompressor(ld::Compressor* inner, Tracer* tracer,
                                                      CompressTrace* trace) {
  return std::make_unique<TracingCompressor>(inner, tracer, trace);
}

}  // namespace ldbench
