// Segment cleaning and idle-time reorganization (paper §3.5).
//
// The cleaner picks victims with the configured policy and harvests two
// kinds of live state from each:
//
//   * live data blocks — entries the block map still points into the victim;
//     they are reordered by list order (cluster-on-clean) and rewritten;
//   * live metadata records — a segment summary is part of LLD's metadata
//     log, so a record that still describes current state (the latest link
//     tuple of a block, an allocation, or a deletion tombstone with no newer
//     allocation) must be re-logged with a fresh timestamp before its
//     segment can be reused. Stale tuples and old ARU markers are dropped,
//     which is the paper's "removes old logging information ... during
//     cleaning".
//
// Victims are freed only after the batch is durable, so a crash mid-clean
// never loses data or metadata.

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "src/lld/lld.h"
#include "src/util/log.h"

namespace ld {

namespace {

// Stamps the cleaner's tenant id as the device request context for the
// duration of a cleaning round, restoring the session tenant on destruction.
// RAII because CleanSegments has many early exits and runs re-entrant inside
// foreground writes — an unrestored context would misattribute every
// subsequent foreground request. Inactive (no set_request_tenant call at
// all) when no distinct cleaner tenant is configured, so single-tenant runs
// are untouched.
class CleanerTenantScope {
 public:
  CleanerTenantScope(BlockDevice* device, const LldOptions& options)
      : device_(device),
        restore_(options.tenant),
        active_(options.cleaner_tenant != kDefaultTenant &&
                options.cleaner_tenant != options.tenant) {
    if (active_) {
      device_->set_request_tenant(options.cleaner_tenant);
    }
  }
  ~CleanerTenantScope() {
    if (active_) {
      device_->set_request_tenant(restore_);
    }
  }
  CleanerTenantScope(const CleanerTenantScope&) = delete;
  CleanerTenantScope& operator=(const CleanerTenantScope&) = delete;

 private:
  BlockDevice* device_;
  TenantId restore_;
  bool active_;
};

}  // namespace

Status LogStructuredDisk::HarvestVictim(uint32_t victim, CleanerBatch* batch,
                                        VictimDataRead* pending, uint32_t* ext_live) {
  const uint32_t sector = device_->sector_size();
  std::vector<uint8_t> summary(options_.summary_bytes);
  RETURN_IF_ERROR(io_.Read(SegmentSummaryStartByte(victim) / sector, summary));
  SegmentSummary victim_summary;
  const Status read = ReadSegmentSummary(victim, summary, &victim_summary);
  if (read.code() == ErrorCode::kNotFound) {
    return OkStatus();  // Never written: nothing to preserve.
  }
  RETURN_IF_ERROR(read);
  const SummaryHeader& header = victim_summary.header;
  const std::vector<SummaryRecord>& records = victim_summary.records;
  if (header.ext_bytes > 0) {
    // The spilled record bytes were accounted live when this segment was
    // written; harvesting re-logs what still matters. Their release is
    // *deferred* to the commit point (the victim-free loop): a failed pass
    // restores victims to kFull and retries, and an eager release here would
    // be applied once per attempt, underflowing the segment's live count.
    *ext_live = std::min<uint32_t>(header.ext_bytes, usage_->segment(victim).live_bytes());
  }

  // Pass 1: which block entries are live? (Checked before reading data.)
  std::vector<const SummaryRecord*> live;
  for (const auto& r : records) {
    if (r.type != SummaryRecordType::kBlockEntry || !block_map_.IsAllocated(r.bid)) {
      continue;
    }
    const BlockMapEntry& e = block_map_.entry(r.bid);
    if (e.phys.IsOnDisk() && e.phys.segment == victim && e.phys.offset == r.offset) {
      live.push_back(&r);
    }
  }

  if (!live.empty()) {
    // One read of the used data area covers every live block; the read is
    // *deferred* into `pending` so the caller can submit all victims' reads
    // as one async batch (they overlap across channels), and the blocks
    // point into the read bytes instead of copying them out.
    pending->victim = victim;
    pending->bytes = std::min<uint64_t>(
        (static_cast<uint64_t>(header.data_bytes) + sector - 1) / sector * sector,
        data_capacity_);
    for (const SummaryRecord* r : live) {
      // ARU hygiene: an entry written inside a still-open unit keeps its
      // tag (committing it here would smuggle uncommitted data into the
      // durable state); an abandoned unit's entries are never copied.
      if (r->aru_id != 0 && abandoned_arus_.count(r->aru_id) != 0) {
        continue;
      }
      CleanedBlock b;
      b.bid = r->bid;
      b.orig_size = block_map_.entry(r->bid).size_class;
      b.compressed = block_map_.entry(r->bid).compressed;
      if (r->aru_id != 0 && open_arus_.count(r->aru_id) != 0) {
        b.aru_id = r->aru_id;
      }
      // Checksums travel verbatim with the bytes: recomputing one here would
      // launder any corruption picked up since the block was written.
      b.payload_crc = r->payload_crc;
      counters_.cleaner_bytes_copied += r->stored_size;
      pending->slices.push_back({batch->blocks.size(), r->offset, r->stored_size});
      batch->blocks.push_back(b);
    }
    counters_.blocks_cleaned += live.size();
  }

  // Pass 2: re-log metadata records that still describe durable state.
  //
  // Authority rule: only the segment holding the *latest durable* record for
  // an entity re-logs it (BlockMapEntry::link_seg etc. track that segment),
  // so record mass stays bounded instead of multiplying with every cleaning
  // pass. Values are re-logged *verbatim from the victim* (last mention
  // wins), not from the in-memory tables: the in-memory state may already
  // contain newer, not-yet-flushed operations, and recovery must never
  // surface those ahead of their turn.
  std::unordered_map<Bid, const SummaryRecord*> last_link, last_alloc;
  std::unordered_map<Lid, const SummaryRecord*> last_head, last_create;
  std::unordered_set<Bid> freed;
  std::unordered_set<Lid> deleted;
  std::unordered_set<uint32_t> relog_stripes;
  for (const auto& r : records) {
    switch (r.type) {
      case SummaryRecordType::kLinkTuple:
        if (options_.maintain_lists && block_map_.IsAllocated(r.bid) &&
            block_map_.entry(r.bid).link_seg == victim) {
          last_link[r.bid] = &r;
        }
        break;
      case SummaryRecordType::kBlockAlloc:
        if (block_map_.IsAllocated(r.bid)) {
          if (block_map_.entry(r.bid).alloc_seg == victim) {
            last_alloc[r.bid] = &r;
          }
        } else {
          freed.insert(r.bid);
        }
        break;
      case SummaryRecordType::kBlockEntry:
      case SummaryRecordType::kBlockFree:
        if (!block_map_.IsAllocated(r.bid)) {
          // Tombstone: without it, an older surviving record could
          // resurrect the block at recovery.
          freed.insert(r.bid);
        }
        break;
      case SummaryRecordType::kListHead:
        if (options_.maintain_lists && list_table_.IsAllocated(r.lid) &&
            list_table_.entry(r.lid).head_seg == victim) {
          last_head[r.lid] = &r;
        }
        break;
      case SummaryRecordType::kListCreate:
      case SummaryRecordType::kListMove:
        if (list_table_.IsAllocated(r.lid)) {
          if (list_table_.entry(r.lid).create_seg == victim) {
            last_create[r.lid] = &r;
          }
        } else {
          deleted.insert(r.lid);
        }
        break;
      case SummaryRecordType::kListDelete:
        if (!list_table_.IsAllocated(r.lid)) {
          deleted.insert(r.lid);
        }
        break;
      case SummaryRecordType::kAruCommit:
        // A unit that straddled a seal left records tagged with its id in
        // *other* segments; they stay tagged on media forever, and replay
        // drops any tagged record whose commit marker it cannot find. So the
        // marker must outlive the victim: re-log it (the authority rule does
        // not apply — there is exactly one marker per unit, never refreshed).
        batch->records.push_back(SummaryRecord::AruCommit(NextTs(), r.aru_id));
        break;
      case SummaryRecordType::kSegmentParity:
        break;  // Described the dying segment image: dropped with it.
      case SummaryRecordType::kScrubIntent:
        break;  // Only meaningful to the recovery that follows the scrub
                // that wrote it; a surviving one is stale and dropped.
      case SummaryRecordType::kStripeParity:
        // A live set's records are re-logged in full when this victim holds
        // their latest copy. Dead sets' records and countermands are simply
        // dropped: the dissolve protocol zeroes the parity summary before
        // its countermand can net, so nothing on the media needs them.
        if (const auto it = stripes_.find(r.offset);
            it != stripes_.end() && it->second.record_segment == victim) {
          relog_stripes.insert(r.offset);
        }
        break;
    }
  }
  // Re-logged records keep an open unit's tag and are dropped for an
  // abandoned one, exactly like data entries.
  auto retag = [this](SummaryRecord record, const SummaryRecord* source,
                      std::vector<SummaryRecord>* out) {
    if (source->aru_id != 0) {
      if (abandoned_arus_.count(source->aru_id) != 0) {
        return;
      }
      if (open_arus_.count(source->aru_id) != 0) {
        record.aru_id = source->aru_id;
        record.ends_aru = false;
      }
    }
    out->push_back(record);
  };
  for (const auto& [bid, r] : last_link) {
    retag(SummaryRecord::LinkTuple(NextTs(), bid, r->link_to, true), r, &batch->records);
  }
  for (const auto& [bid, r] : last_alloc) {
    retag(SummaryRecord::BlockAlloc(NextTs(), bid, r->lid, r->orig_size, true), r,
          &batch->records);
  }
  for (const auto& [lid, r] : last_head) {
    retag(SummaryRecord::ListHead(NextTs(), lid, r->link_to, true), r, &batch->records);
  }
  for (const auto& [lid, r] : last_create) {
    retag(SummaryRecord::ListCreate(NextTs(), lid, r->hints, r->lol_next, true), r,
          &batch->records);
  }
  for (Bid bid : freed) {
    batch->records.push_back(SummaryRecord::BlockFree(NextTs(), bid, true));
  }
  for (Lid lid : deleted) {
    batch->records.push_back(SummaryRecord::ListDelete(NextTs(), lid, true));
  }
  for (uint32_t parity : relog_stripes) {
    AppendStripeRecords(stripes_.at(parity), NextTs(), &batch->records);
  }
  return OkStatus();
}

uint64_t LogStructuredDisk::CleanerBuffers::Bytes() const {
  return victim_arena.capacity() + batch.blocks.capacity() * sizeof(CleanedBlock) +
         batch.records.capacity() * sizeof(SummaryRecord) + image.capacity() +
         image_records.capacity() * sizeof(SummaryRecord) +
         list_order.capacity() * sizeof(ListOrderSlot) + list_walked.capacity() * sizeof(uint32_t) +
         order_keys.capacity() * sizeof(order_keys[0]) +
         order_out.capacity() * sizeof(CleanedBlock);
}

void LogStructuredDisk::OrderByLists(std::vector<CleanedBlock>* blocks) {
  if (!options_.cluster_on_clean || !options_.maintain_lists) {
    return;
  }
  // Walk every list that owns a block being moved, once, recording each
  // list block's position in the dense index; then sort by (list, position)
  // to restore sequential read order. A block its list walk did not reach
  // sorts last within its list.
  CleanerBuffers& c = cleaner_;
  if (++c.order_gen == 0) {
    // The stamp wrapped: old stamps could alias the new one.
    std::fill(c.list_order.begin(), c.list_order.end(), ListOrderSlot{});
    std::fill(c.list_walked.begin(), c.list_walked.end(), 0);
    c.order_gen = 1;
  }
  const uint32_t gen = c.order_gen;
  if (c.list_order.size() <= block_map_.max_bid()) {
    c.list_order.resize(static_cast<size_t>(block_map_.max_bid()) + 1);
  }
  if (c.list_walked.size() <= list_table_.max_lid()) {
    c.list_walked.resize(static_cast<size_t>(list_table_.max_lid()) + 1);
  }
  for (const auto& b : *blocks) {
    const Lid lid = block_map_.entry(b.bid).list;
    if (lid == kNilLid || lid >= c.list_walked.size() || c.list_walked[lid] == gen) {
      continue;
    }
    c.list_walked[lid] = gen;
    if (!list_table_.IsAllocated(lid)) {
      continue;
    }
    uint32_t pos = 0;
    for (Bid cur = list_table_.entry(lid).first; cur != kNilBid;
         cur = block_map_.entry(cur).successor) {
      c.list_order[cur] = ListOrderSlot{gen, pos++};
      if (pos > block_map_.allocated_count()) {
        break;  // Defensive: a corrupt cycle must not hang the cleaner.
      }
    }
  }
  // Key: list in the high word, position in the low word (all ones when
  // unwalked); the batch index breaks ties, which makes the sort stable.
  c.order_keys.clear();
  for (size_t i = 0; i < blocks->size(); ++i) {
    const Bid bid = (*blocks)[i].bid;
    const ListOrderSlot slot = c.list_order[bid];
    const uint32_t pos = slot.gen == gen ? slot.pos : UINT32_MAX;
    c.order_keys.emplace_back(static_cast<uint64_t>(block_map_.entry(bid).list) << 32 | pos,
                              static_cast<uint32_t>(i));
  }
  std::sort(c.order_keys.begin(), c.order_keys.end());
  c.order_out.clear();
  for (const auto& key : c.order_keys) {
    c.order_out.push_back((*blocks)[key.second]);
  }
  blocks->swap(c.order_out);
}

Status LogStructuredDisk::WriteCleanerBatch(const CleanerBatch& batch) {
  if (batch.blocks.empty() && batch.records.empty()) {
    return OkStatus();
  }
  // Direct callers (ReorganizeLists, RearrangeHotBlocks) may arrive with a
  // pipelined user-segment write still in flight; order it first.
  RETURN_IF_ERROR(WaitForInflight());
  // A dedicated segment image, independent of the user's open segment, so
  // cleaned state is durable before any victim is reused. It is kept
  // between batches; only the extents the last image wrote are re-zeroed
  // (the summary tail needs none: EncodeSummary rewrites all of it).
  CleanerBuffers& c = cleaner_;
  if (c.image.size() != options_.segment_bytes) {
    c.image.assign(options_.segment_bytes, 0);
    c.image_head = 0;
    c.image_spill = 0;
  }
  std::span<uint8_t> buffer(c.image);
  const auto clear_image = [&] {
    std::memset(buffer.data(), 0, c.image_head);
    std::memset(buffer.data() + data_capacity_ - c.image_spill, 0, c.image_spill);
    c.image_head = 0;
    c.image_spill = 0;
  };
  clear_image();
  std::vector<SummaryRecord>& records = c.image_records;
  records.clear();
  size_t record_bytes = 0;
  uint32_t used = 0;
  uint32_t image_max_stored = 0;  // Largest stored block in the current image.
  const uint32_t sector = device_->sector_size();

  auto flush_segment = [&]() -> Status {
    if (records.empty()) {
      return OkStatus();
    }
    ASSIGN_OR_RETURN(const uint32_t target, AllocateFreeSegment(/*allow_clean=*/false));
    ASSIGN_OR_RETURN(const SealedImage sealed,
                     SealImage(buffer, target, used, image_max_stored, &records,
                               buffer.subspan(used, data_capacity_ - used)));
    if (sealed.parity.has) {
      c.image_head = sealed.parity.offset + sealed.parity.bytes;
    }
    c.image_spill = sealed.spilled;
    // Cleaning overlaps foreground traffic: segment images are *submitted*
    // to the device queue (data is captured at submit, so `buffer` can be
    // reused for the next image immediately); the Drain() at the end of
    // WriteCleanerBatch is the durability barrier before victims are freed.
    const uint64_t base = SegmentBaseByte(target);
    if (sealed.spilled > 0) {
      // Data, extension, and summary in one whole-segment write.
      if (Status s = io_.SubmitWrite(base / sector, buffer).status(); !s.ok()) {
        return HandleWriteFailure(s);
      }
    } else {
      if (used > 0) {
        // The parity block sits just past the sector-rounded data fill, so
        // the data write is extended to carry it in the same request.
        const uint64_t data_len = sealed.parity.has
                                      ? sealed.parity.offset + sealed.parity.bytes
                                      : RoundUp(used, sector);
        if (Status s = io_.SubmitWrite(base / sector, buffer.subspan(0, data_len)).status();
            !s.ok()) {
          return HandleWriteFailure(s);
        }
      }
      if (Status s = io_.SubmitWrite((base + data_capacity_) / sector,
                                     buffer.subspan(data_capacity_, options_.summary_bytes))
                         .status();
          !s.ok()) {
        return HandleWriteFailure(s);
      }
    }

    SegmentUsage& seg = InstallSeal(target, SegmentState::kFull, sealed, records);
    if (sealed.spilled > 0) {
      // Re-logged metadata carries no data age: 0 leaves age_ts alone, so a
      // record-only segment falls back to newest_ts in the scoring.
      usage_->AddLiveAged(target, sealed.spilled, next_ts_, 0);
    }
    // Hot/cold generation split: everything in this image survived at least
    // one cleaning pass, so the segment is tagged cold and each block keeps
    // its *original* write timestamp as its age (read before the install
    // overwrites it). Without the preservation, re-logging would make cold
    // data look freshly written and cost-benefit would never stop recopying
    // it.
    seg.cold = true;
    counters_.cold_segments_written++;
    for (const auto& r : records) {
      if (r.type != SummaryRecordType::kBlockEntry) {
        continue;
      }
      BlockMapEntry& e = block_map_.entry(r.bid);
      const OpTimestamp age = e.write_ts;
      usage_->RemoveLive(e.phys.segment, e.stored_size);
      e.phys = PhysAddr{target, r.offset};
      e.write_ts = r.ts;
      e.payload_crc = r.payload_crc;
      e.has_payload_crc = true;
      usage_->AddLiveAged(target, r.stored_size, r.ts, age);
    }
    records.clear();
    record_bytes = 0;
    used = 0;
    image_max_stored = 0;
    clear_image();
    return OkStatus();
  };

  for (const auto& b : batch.blocks) {
    SummaryRecord proto;
    proto.type = SummaryRecordType::kBlockEntry;
    if (!SealFits(used + b.stored.size(),
                  std::max<uint32_t>(image_max_stored, static_cast<uint32_t>(b.stored.size())),
                  record_bytes + proto.EncodedSize())) {
      RETURN_IF_ERROR(flush_segment());
    }
    // The block may have been superseded while the cleaner was buffering.
    if (!block_map_.IsAllocated(b.bid) || !block_map_.entry(b.bid).phys.IsOnDisk()) {
      continue;
    }
    const uint32_t offset = used;
    std::memcpy(buffer.data() + offset, b.stored.data(), b.stored.size());
    used += static_cast<uint32_t>(b.stored.size());
    c.image_head = used;
    image_max_stored = std::max<uint32_t>(image_max_stored, static_cast<uint32_t>(b.stored.size()));
    SummaryRecord entry = SummaryRecord::BlockEntry(
        NextTs(), b.bid, offset, static_cast<uint32_t>(b.stored.size()), b.orig_size,
        b.compressed, /*ends_aru=*/true, b.payload_crc);
    if (b.aru_id != 0) {
      entry.aru_id = b.aru_id;
      entry.ends_aru = false;
    }
    records.push_back(entry);
    record_bytes += proto.EncodedSize();
  }
  // Records fill the summary tail first and may spill into the unused end
  // of the data area, leaving one sector of slack after the parity
  // reservation.
  for (const auto& r : batch.records) {
    const int64_t spill_room = static_cast<int64_t>(data_capacity_) -
                               static_cast<int64_t>(SealedDataBytes(used, image_max_stored)) -
                               sector;
    if (!SealFits(used, image_max_stored, record_bytes + r.EncodedSize(), spill_room)) {
      RETURN_IF_ERROR(flush_segment());
    }
    records.push_back(r);
    record_bytes += r.EncodedSize();
  }
  RETURN_IF_ERROR(flush_segment());
  // Durability barrier: every submitted cleaner segment must be on disk
  // before the caller frees the victims it copied from.
  if (Status s = device_->Drain(); !s.ok()) {
    return HandleWriteFailure(s);
  }
  return OkStatus();
}

Status LogStructuredDisk::CleanSegments(uint32_t count) {
  if (cleaning_) {
    return OkStatus();  // Re-entrant call from our own allocation path.
  }
  // The cleaner frees and reuses segments; a pipelined segment write must be
  // durable before any segment holding superseded copies can be recycled.
  RETURN_IF_ERROR(WaitForInflight());
  cleaning_ = true;
  // From here on the round's I/O — victim summary/data reads, copied-out
  // segment writes — bills to the cleaner's QoS tenant (the maintenance
  // tenant when the harness attached a scheduler), not to the foreground
  // session that happened to trip the free-pool threshold.
  CleanerTenantScope tenant_scope(device_, options_);

  std::vector<uint32_t> victims;
  // Every exit before the victims are freed returns the whole round to
  // kFull: a victim left kCleaning would never be cleaned or allocated again.
  const auto abort_round = [&](const Status& status) {
    for (uint32_t v : victims) {
      usage_->segment(v).state = SegmentState::kFull;
    }
    cleaning_ = false;
    return status;
  };

  // The cleaner writes copied state into fresh segments *before* freeing the
  // victims, so the batch's live bytes must fit the current free pool (minus
  // one segment of slack for the user's next flush). Within that budget,
  // victims are added until the round nets at least two segments of space —
  // the guard that keeps an age-dominated cost-benefit policy from spinning
  // on almost-fully-live cold segments without replenishing the pool.
  // Allocatable, not merely free: in degraded mode free segments on a failed
  // channel cannot take copied state, and budgeting against them makes the
  // batch overcommit and die with NO_SPACE mid-write.
  const uint32_t free_now = usage_->AllocatableCount();
  if (free_now <= 1) {
    return abort_round(NoSpaceError("cleaner: free pool exhausted"));
  }
  const uint32_t writer_budget = free_now - 1;  // Segments the writer may consume.
  const uint32_t max_victims = std::max(count, 64u);

  CleanerBatch& batch = cleaner_.batch;
  batch.blocks.clear();
  batch.records.clear();
  std::vector<uint32_t> victim_ext;  // Deferred ext-record release per victim.
  std::vector<VictimDataRead> reads;
  uint64_t batch_live = 0;
  uint64_t batch_record_bytes = 0;
  while (victims.size() < max_victims) {
    int64_t victim = options_.cleaning_policy == CleaningPolicy::kGreedy
                         ? usage_->PickGreedy()
                         : usage_->PickCostBenefit(data_capacity_, next_ts_);
    if (victim < 0) {
      break;
    }
    // Until this round has secured at least one segment of net gain, prefer
    // the emptiest segment over the policy's choice. An age-dominated
    // cost-benefit score otherwise keeps electing cold segments that are
    // still ~85 % live, and a string of such rounds drains the free pool
    // without ever refilling it.
    const uint64_t net_gain =
        victims.size() * static_cast<uint64_t>(data_capacity_) - batch_live;
    if (net_gain < data_capacity_) {
      const int64_t greedy = usage_->PickGreedy();
      if (greedy >= 0 && usage_->segment(static_cast<uint32_t>(greedy)).live_bytes() <
                             usage_->segment(static_cast<uint32_t>(victim)).live_bytes()) {
        victim = greedy;
      }
    }
    // Budget check: the writer must be able to hold the whole batch in the
    // current free pool (victims are only released after the batch is
    // durable). Records are counted against the data area (they pack into
    // summary tails first, so this over-reserves), and each image gives up
    // one block of packing fragmentation plus the parity reservation. The
    // one segment of slack for the user's next flush is already carved out
    // of writer_budget — adding a second flat segment here double-reserves
    // and leaves a two-free-segment pool unable to merge two half-dead
    // victims into one output, the only move that lets it recover.
    const uint64_t victim_live = usage_->segment(static_cast<uint32_t>(victim)).live_bytes();
    const uint64_t per_image_overhead =
        static_cast<uint64_t>(options_.block_size) + ParityReserve(options_.block_size);
    const uint64_t per_image =
        per_image_overhead < data_capacity_ ? data_capacity_ - per_image_overhead : 1;
    const uint64_t expected_segments =
        (batch_live + victim_live + batch_record_bytes + per_image - 1) / per_image;
    if (!victims.empty() && expected_segments > writer_budget) {
      break;  // Keep the in-flight copy within the free pool.
    }
    usage_->segment(static_cast<uint32_t>(victim)).state = SegmentState::kCleaning;
    victims.push_back(static_cast<uint32_t>(victim));
    const size_t records_before = batch.records.size();
    VictimDataRead pending;
    uint32_t ext_live = 0;
    if (Status s = HarvestVictim(static_cast<uint32_t>(victim), &batch, &pending, &ext_live);
        !s.ok()) {
      return abort_round(s);
    }
    if (pending.bytes > 0) {
      reads.push_back(std::move(pending));
    }
    for (size_t i = records_before; i < batch.records.size(); ++i) {
      batch_record_bytes += batch.records[i].EncodedSize();
    }
    victim_ext.push_back(ext_live);
    batch_live += victim_live;
    const uint64_t reclaimed = victims.size() * static_cast<uint64_t>(data_capacity_);
    if (victims.size() >= count && reclaimed >= batch_live + 2 * data_capacity_) {
      break;  // Net gain achieved.
    }
  }
  if (victims.empty()) {
    return abort_round(OkStatus());
  }

  // Submit every victim's data-area read as one async batch: on a
  // multi-channel device the reads overlap instead of serializing one
  // blocking read per victim. The reads land back to back in the victim
  // arena, sized once here, and each block's span points at its bytes there
  // (bound before OrderByLists, which permutes the blocks by index).
  {
    uint64_t arena_bytes = 0;
    for (VictimDataRead& r : reads) {
      r.arena_offset = arena_bytes;
      arena_bytes += r.bytes;
    }
    std::vector<uint8_t>& arena = cleaner_.victim_arena;
    if (arena.size() < arena_bytes) {
      arena.clear();  // Grow without copying stale bytes.
      arena.resize(arena_bytes);
    }
    for (const VictimDataRead& r : reads) {
      for (const VictimDataRead::Slice& s : r.slices) {
        batch.blocks[s.block_index].stored =
            std::span<uint8_t>(arena).subspan(r.arena_offset + s.offset, s.size);
      }
    }
    const uint32_t sector = device_->sector_size();
    Status failure = OkStatus();
    std::vector<IoTag> tags(reads.size(), kInvalidIoTag);
    for (size_t i = 0; i < reads.size(); ++i) {
      StatusOr<IoTag> tag = io_.SubmitRead(
          SegmentBaseByte(reads[i].victim) / sector,
          std::span<uint8_t>(arena).subspan(reads[i].arena_offset, reads[i].bytes));
      if (!tag.ok()) {
        failure = tag.status();
        break;
      }
      tags[i] = *tag;
    }
    for (size_t i = 0; i < reads.size(); ++i) {
      if (tags[i] == kInvalidIoTag) {
        continue;
      }
      if (Status s = device_->WaitFor(tags[i]); !s.ok() && failure.ok()) {
        failure = s;
      }
    }
    if (!failure.ok()) {
      return abort_round(failure);
    }
  }

  // A stripe touching a victim is dissolved before the batch goes out: the
  // member image about to be freed is exactly what the parity explains. The
  // countermand record rides the batch (and any records the harvest re-logged
  // for the set are stripped from it); the parity segments rejoin the free
  // pool with the victims once the batch is durable.
  StatusOr<std::vector<uint32_t>> dissolved_parity =
      DissolveStripesTouching(victims, &batch.records);
  if (!dissolved_parity.ok()) {
    return abort_round(dissolved_parity.status());
  }

  OrderByLists(&batch.blocks);
  if (Status s = WriteCleanerBatch(batch); !s.ok()) {
    return abort_round(s);
  }

  for (uint32_t p : *dissolved_parity) {
    usage_->MarkFree(p);
  }
  for (size_t i = 0; i < victims.size(); ++i) {
    const SegmentUsage& seg = usage_->segment(victims[i]);
    // After the installs, the only live bytes left should be the victim's
    // spilled record extension (its release was deferred from the harvest).
    if (seg.live_bytes() != victim_ext[i]) {
      LD_LOG(kWarn) << "cleaner: victim " << victims[i] << " still reports " << seg.live_bytes()
                    << " live bytes (expected " << victim_ext[i] << " ext record bytes)";
    }
    usage_->SetLive(victims[i], 0);
    usage_->MarkFree(victims[i]);
    counters_.segments_cleaned++;
  }
  cleaning_ = false;
  return OkStatus();
}

Status LogStructuredDisk::ReadIntoBatch(const std::vector<Bid>& bids, CleanerBatch* batch) {
  uint64_t total = 0;
  for (Bid bid : bids) {
    total += block_map_.entry(bid).stored_size;
  }
  batch->arena.resize(total);
  uint64_t at = 0;
  for (Bid bid : bids) {
    const BlockMapEntry& e = block_map_.entry(bid);
    CleanedBlock b;
    b.bid = bid;
    b.orig_size = e.size_class;
    b.compressed = e.compressed;
    b.payload_crc = e.payload_crc;
    b.stored = std::span<uint8_t>(batch->arena).subspan(at, e.stored_size);
    at += e.stored_size;
    RETURN_IF_ERROR(ReadStored(e, b.stored));
    batch->blocks.push_back(b);
  }
  return OkStatus();
}

StatusOr<uint32_t> LogStructuredDisk::RearrangeHotBlocks(uint32_t max_blocks) {
  if (shut_down_) {
    return FailedPreconditionError("LLD is shut down");
  }
  if (!options_.track_read_heat) {
    return FailedPreconditionError("enable LldOptions::track_read_heat first");
  }
  // Rank on-disk blocks by read frequency.
  std::vector<std::pair<uint32_t, Bid>> ranked;
  for (Bid bid = 1; bid <= block_map_.max_bid(); ++bid) {
    if (!block_map_.IsAllocated(bid)) {
      continue;
    }
    const BlockMapEntry& e = block_map_.entry(bid);
    if (e.phys.IsOnDisk() && e.read_count > 0) {
      ranked.emplace_back(e.read_count, bid);
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (ranked.size() > max_blocks) {
    ranked.resize(max_blocks);
  }
  if (ranked.empty()) {
    return 0u;
  }

  std::vector<Bid> bids;
  bids.reserve(ranked.size());
  for (const auto& [count, bid] : ranked) {
    bids.push_back(bid);
  }
  CleanerBatch batch;
  RETURN_IF_ERROR(ReadIntoBatch(bids, &batch));
  const uint32_t moved = static_cast<uint32_t>(batch.blocks.size());
  // Center the hot set in the data region (Akyurek & Salem place hot blocks
  // near the middle of the disk to halve average seeks from everywhere).
  cleaning_ = true;
  writer_placement_hint_ = usage_->num_segments() / 2;
  const Status status = WriteCleanerBatch(batch);
  writer_placement_hint_ = -1;
  cleaning_ = false;
  RETURN_IF_ERROR(status);
  return moved;
}

StatusOr<uint32_t> LogStructuredDisk::ReorganizeLists(uint32_t max_segments) {
  if (shut_down_) {
    return FailedPreconditionError("LLD is shut down");
  }
  // Collect on-disk blocks in list-of-lists order, then in list order: the
  // layout the reorganizer wants on disk.
  std::vector<Bid> bids;
  uint64_t bytes = 0;
  const uint64_t budget = static_cast<uint64_t>(max_segments) * data_capacity_;
  for (Lid lid = list_table_.lol_head(); lid != kNilLid && bytes < budget;
       lid = list_table_.entry(lid).lol_next) {
    if (!list_table_.entry(lid).hints.cluster) {
      continue;
    }
    for (Bid bid = list_table_.entry(lid).first; bid != kNilBid && bytes < budget;
         bid = block_map_.entry(bid).successor) {
      const BlockMapEntry& e = block_map_.entry(bid);
      if (!e.phys.IsOnDisk()) {
        continue;
      }
      bytes += e.stored_size;
      bids.push_back(bid);
    }
  }
  if (bids.empty()) {
    return 0u;
  }
  CleanerBatch batch;
  RETURN_IF_ERROR(ReadIntoBatch(bids, &batch));
  const uint64_t before = counters_.segments_written;
  cleaning_ = true;
  const Status status = WriteCleanerBatch(batch);
  cleaning_ = false;
  RETURN_IF_ERROR(status);
  // Segments drained by the rewrite are reclaimed by the cleaner, which
  // preserves any live metadata records in their summaries.
  return static_cast<uint32_t>(counters_.segments_written - before);
}

}  // namespace ld
