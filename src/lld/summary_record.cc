#include "src/lld/summary_record.h"

#include <cstring>

#include "src/util/crc32.h"

namespace ld {

namespace {

constexpr uint8_t kFlagEndsAru = 0x01;
constexpr uint8_t kFlagCompressed = 0x02;
constexpr uint8_t kFlagCluster = 0x04;
constexpr uint8_t kFlagCompressList = 0x08;
constexpr uint8_t kFlagInterlist = 0x10;
// Set on every kBlockEntry: the record carries a 24-bit payload checksum. A
// block entry without it is not a layout this codec writes, so it decodes
// as CORRUPTION.
constexpr uint8_t kFlagPayloadCrc = 0x20;

}  // namespace

uint32_t PayloadCrc(std::span<const uint8_t> bytes) {
  return Crc32Final(Crc32Update(Crc32Init(), bytes)) & 0xffffffu;
}

SummaryRecord SummaryRecord::BlockEntry(OpTimestamp ts, Bid bid, uint32_t offset,
                                        uint32_t stored_size, uint32_t orig_size, bool compressed,
                                        bool ends_aru, uint32_t payload_crc) {
  SummaryRecord r;
  r.type = SummaryRecordType::kBlockEntry;
  r.ts = ts;
  r.ends_aru = ends_aru;
  r.bid = bid;
  r.offset = offset;
  r.stored_size = stored_size;
  r.orig_size = orig_size;
  r.compressed = compressed;
  r.payload_crc = payload_crc;
  return r;
}

SummaryRecord SummaryRecord::LinkTuple(OpTimestamp ts, Bid bid, Bid new_successor,
                                       bool ends_aru) {
  SummaryRecord r;
  r.type = SummaryRecordType::kLinkTuple;
  r.ts = ts;
  r.ends_aru = ends_aru;
  r.bid = bid;
  r.link_to = new_successor;
  return r;
}

SummaryRecord SummaryRecord::ListHead(OpTimestamp ts, Lid lid, Bid new_first, bool ends_aru) {
  SummaryRecord r;
  r.type = SummaryRecordType::kListHead;
  r.ts = ts;
  r.ends_aru = ends_aru;
  r.lid = lid;
  r.link_to = new_first;
  return r;
}

SummaryRecord SummaryRecord::ListCreate(OpTimestamp ts, Lid lid, ListHints hints, Lid lol_next,
                                        bool ends_aru) {
  SummaryRecord r;
  r.type = SummaryRecordType::kListCreate;
  r.ts = ts;
  r.ends_aru = ends_aru;
  r.lid = lid;
  r.hints = hints;
  r.lol_next = lol_next;
  return r;
}

SummaryRecord SummaryRecord::ListMove(OpTimestamp ts, Lid lid, Lid lol_next, ListHints hints,
                                      bool ends_aru) {
  SummaryRecord r;
  r.type = SummaryRecordType::kListMove;
  r.ts = ts;
  r.ends_aru = ends_aru;
  r.lid = lid;
  r.lol_next = lol_next;
  // Hints are immutable after NewList; carrying them on every list record
  // lets the cleaner re-log any of them as a full kListCreate.
  r.hints = hints;
  return r;
}

SummaryRecord SummaryRecord::ListDelete(OpTimestamp ts, Lid lid, bool ends_aru) {
  SummaryRecord r;
  r.type = SummaryRecordType::kListDelete;
  r.ts = ts;
  r.ends_aru = ends_aru;
  r.lid = lid;
  return r;
}

SummaryRecord SummaryRecord::BlockFree(OpTimestamp ts, Bid bid, bool ends_aru) {
  SummaryRecord r;
  r.type = SummaryRecordType::kBlockFree;
  r.ts = ts;
  r.ends_aru = ends_aru;
  r.bid = bid;
  return r;
}

SummaryRecord SummaryRecord::BlockAlloc(OpTimestamp ts, Bid bid, Lid lid, uint32_t size_class,
                                        bool ends_aru) {
  SummaryRecord r;
  r.type = SummaryRecordType::kBlockAlloc;
  r.ts = ts;
  r.ends_aru = ends_aru;
  r.bid = bid;
  r.lid = lid;
  r.orig_size = size_class;
  return r;
}

SummaryRecord SummaryRecord::AruCommit(OpTimestamp ts, uint32_t aru_id) {
  SummaryRecord r;
  r.type = SummaryRecordType::kAruCommit;
  r.ts = ts;
  r.ends_aru = true;
  r.aru_id = aru_id;
  return r;
}

SummaryRecord SummaryRecord::SegmentParity(OpTimestamp ts, uint32_t offset,
                                           uint32_t parity_bytes, uint32_t covered_bytes,
                                           uint32_t parity_crc) {
  SummaryRecord r;
  r.type = SummaryRecordType::kSegmentParity;
  r.ts = ts;
  r.ends_aru = true;
  r.offset = offset;
  r.stored_size = parity_bytes;
  r.orig_size = covered_bytes;
  r.payload_crc = parity_crc;
  return r;
}

SummaryRecord SummaryRecord::ScrubIntent(OpTimestamp ts, uint32_t segment_index, uint64_t seq) {
  SummaryRecord r;
  r.type = SummaryRecordType::kScrubIntent;
  r.ts = ts;
  r.ends_aru = true;
  r.bid = segment_index;
  r.intent_seq = seq;
  return r;
}

SummaryRecord SummaryRecord::StripeParity(OpTimestamp ts, uint32_t parity_segment,
                                          uint32_t member_segment, uint32_t member_index,
                                          uint32_t member_count, uint64_t member_seq,
                                          uint32_t parity_crc) {
  SummaryRecord r;
  r.type = SummaryRecordType::kStripeParity;
  r.ts = ts;
  r.ends_aru = true;
  r.offset = parity_segment;
  r.bid = member_segment;
  r.stored_size = member_index;
  r.orig_size = member_count;
  r.intent_seq = member_seq;
  r.payload_crc = parity_crc;
  return r;
}

void SummaryRecord::EncodeTo(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(type));
  enc->PutU48(ts);
  uint8_t flags = 0;
  if (ends_aru) {
    flags |= kFlagEndsAru;
  }
  if (compressed) {
    flags |= kFlagCompressed;
  }
  if (hints.cluster) {
    flags |= kFlagCluster;
  }
  if (hints.compress) {
    flags |= kFlagCompressList;
  }
  if (hints.interlist_cluster) {
    flags |= kFlagInterlist;
  }
  if (type == SummaryRecordType::kBlockEntry) {
    flags |= kFlagPayloadCrc;
  }
  enc->PutU8(flags);
  enc->PutU24(aru_id);
  switch (type) {
    case SummaryRecordType::kBlockEntry:
      enc->PutU24(bid);
      enc->PutU24(offset);
      enc->PutU16(static_cast<uint16_t>(stored_size));
      enc->PutU16(static_cast<uint16_t>(orig_size));
      enc->PutU24(payload_crc);
      break;
    case SummaryRecordType::kLinkTuple:
      enc->PutU24(bid);
      enc->PutU24(link_to);
      break;
    case SummaryRecordType::kListHead:
      enc->PutU24(lid);
      enc->PutU24(link_to);
      break;
    case SummaryRecordType::kListCreate:
    case SummaryRecordType::kListMove:
      enc->PutU24(lid);
      enc->PutU24(lol_next);
      break;
    case SummaryRecordType::kListDelete:
      enc->PutU24(lid);
      break;
    case SummaryRecordType::kBlockFree:
      enc->PutU24(bid);
      break;
    case SummaryRecordType::kBlockAlloc:
      enc->PutU24(bid);
      enc->PutU24(lid);
      enc->PutU16(static_cast<uint16_t>(orig_size));
      break;
    case SummaryRecordType::kAruCommit:
      break;
    case SummaryRecordType::kSegmentParity:
      // Parity length and covered span need 24 bits: a parity block spans
      // RoundUp(kMaxBlockSize, sector) + sector > 64 KB, and covered bytes
      // range over the whole data area.
      enc->PutU24(offset);
      enc->PutU24(stored_size);
      enc->PutU24(orig_size);
      enc->PutU24(payload_crc);
      break;
    case SummaryRecordType::kScrubIntent:
      enc->PutU24(bid);
      enc->PutU48(intent_seq);
      break;
    case SummaryRecordType::kStripeParity:
      enc->PutU24(offset);       // Parity segment.
      enc->PutU24(bid);          // Member segment.
      enc->PutU16(static_cast<uint16_t>(stored_size));  // Member index.
      enc->PutU16(static_cast<uint16_t>(orig_size));    // Member count.
      enc->PutU48(intent_seq);   // Member's summary seq.
      enc->PutU24(payload_crc);  // Parity image CRC.
      break;
  }
}

StatusOr<SummaryRecord> SummaryRecord::DecodeFrom(Decoder* dec) {
  SummaryRecord r;
  const uint8_t type = dec->GetU8();
  r.ts = dec->GetU48();
  const uint8_t flags = dec->GetU8();
  r.ends_aru = (flags & kFlagEndsAru) != 0;
  r.compressed = (flags & kFlagCompressed) != 0;
  r.hints.cluster = (flags & kFlagCluster) != 0;
  r.hints.compress = (flags & kFlagCompressList) != 0;
  r.hints.interlist_cluster = (flags & kFlagInterlist) != 0;
  r.aru_id = dec->GetU24();
  switch (static_cast<SummaryRecordType>(type)) {
    case SummaryRecordType::kBlockEntry:
      if ((flags & kFlagPayloadCrc) == 0) {
        return CorruptionError("block entry without a payload checksum");
      }
      r.type = SummaryRecordType::kBlockEntry;
      r.bid = dec->GetU24();
      r.offset = dec->GetU24();
      r.stored_size = dec->GetU16();
      r.orig_size = dec->GetU16();
      r.payload_crc = dec->GetU24();
      break;
    case SummaryRecordType::kLinkTuple:
      r.type = SummaryRecordType::kLinkTuple;
      r.bid = dec->GetU24();
      r.link_to = dec->GetU24();
      break;
    case SummaryRecordType::kListHead:
      r.type = SummaryRecordType::kListHead;
      r.lid = dec->GetU24();
      r.link_to = dec->GetU24();
      break;
    case SummaryRecordType::kListCreate:
      r.type = SummaryRecordType::kListCreate;
      r.lid = dec->GetU24();
      r.lol_next = dec->GetU24();
      break;
    case SummaryRecordType::kListMove:
      r.type = SummaryRecordType::kListMove;
      r.lid = dec->GetU24();
      r.lol_next = dec->GetU24();
      break;
    case SummaryRecordType::kListDelete:
      r.type = SummaryRecordType::kListDelete;
      r.lid = dec->GetU24();
      break;
    case SummaryRecordType::kBlockFree:
      r.type = SummaryRecordType::kBlockFree;
      r.bid = dec->GetU24();
      break;
    case SummaryRecordType::kBlockAlloc:
      r.type = SummaryRecordType::kBlockAlloc;
      r.bid = dec->GetU24();
      r.lid = dec->GetU24();
      r.orig_size = dec->GetU16();
      break;
    case SummaryRecordType::kAruCommit:
      r.type = SummaryRecordType::kAruCommit;
      break;
    case SummaryRecordType::kSegmentParity:
      r.type = SummaryRecordType::kSegmentParity;
      r.offset = dec->GetU24();
      r.stored_size = dec->GetU24();
      r.orig_size = dec->GetU24();
      r.payload_crc = dec->GetU24();
      break;
    case SummaryRecordType::kScrubIntent:
      r.type = SummaryRecordType::kScrubIntent;
      r.bid = dec->GetU24();
      r.intent_seq = dec->GetU48();
      break;
    case SummaryRecordType::kStripeParity:
      r.type = SummaryRecordType::kStripeParity;
      r.offset = dec->GetU24();
      r.bid = dec->GetU24();
      r.stored_size = dec->GetU16();
      r.orig_size = dec->GetU16();
      r.intent_seq = dec->GetU48();
      r.payload_crc = dec->GetU24();
      break;
    default:
      return CorruptionError("unknown summary record type " + std::to_string(type));
  }
  RETURN_IF_ERROR(dec->ToStatus("summary record"));
  return r;
}

size_t SummaryRecord::EncodedSize() const {
  constexpr size_t kCommon = 1 + 6 + 1 + 3;  // type + ts + flags + aru_id
  switch (type) {
    case SummaryRecordType::kBlockEntry:
      return kCommon + 3 + 3 + 2 + 2 + 3;  // bid + offset + stored + orig + crc24
    case SummaryRecordType::kLinkTuple:
    case SummaryRecordType::kListHead:
    case SummaryRecordType::kListCreate:
    case SummaryRecordType::kListMove:
      return kCommon + 3 + 3;
    case SummaryRecordType::kListDelete:
    case SummaryRecordType::kBlockFree:
      return kCommon + 3;
    case SummaryRecordType::kBlockAlloc:
      return kCommon + 3 + 3 + 2;
    case SummaryRecordType::kAruCommit:
      return kCommon;
    case SummaryRecordType::kSegmentParity:
      return kCommon + 3 + 3 + 3 + 3;
    case SummaryRecordType::kScrubIntent:
      return kCommon + 3 + 6;
    case SummaryRecordType::kStripeParity:
      return kCommon + 3 + 3 + 2 + 2 + 6 + 3;
  }
  return kCommon;
}

Status EncodeSummary(const SummaryHeader& header, const std::vector<SummaryRecord>& records,
                     std::span<uint8_t> tail, std::span<uint8_t> ext, uint32_t* ext_used) {
  // Serialize the record stream once.
  std::vector<uint8_t> stream;
  {
    Encoder renc(&stream);
    for (const auto& r : records) {
      r.EncodeTo(&renc);
    }
  }
  // The tail holds header + first part of the stream + CRC.
  const size_t tail_capacity = tail.size() - SummaryHeader::kEncodedSize;
  const size_t in_tail = std::min(stream.size(), tail_capacity);
  const size_t spill = stream.size() - in_tail;
  if (spill > ext.size()) {
    return CorruptionError("segment summary overflow: " + std::to_string(stream.size()) +
                           " record bytes");
  }

  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  enc.PutU32(SummaryHeader::kMagic);
  enc.PutU64(header.seq);
  enc.PutU32(header.segment_index);
  enc.PutU32(static_cast<uint32_t>(records.size()));
  enc.PutU32(header.data_bytes);
  enc.PutU32(static_cast<uint32_t>(spill));
  enc.PutBytes(std::span<const uint8_t>(stream).subspan(0, in_tail));
  // CRC covers the header fields, the tail part, and the spilled part.
  uint32_t crc = Crc32Update(Crc32Init(), buf);
  crc = Crc32Update(crc, std::span<const uint8_t>(stream).subspan(in_tail));
  enc.PutU32(Crc32Final(crc));

  std::memcpy(tail.data(), buf.data(), buf.size());
  std::memset(tail.data() + buf.size(), 0, tail.size() - buf.size());
  if (spill > 0) {
    // Spill goes at the *end* of the extension span (abutting the tail).
    std::memcpy(ext.data() + ext.size() - spill, stream.data() + in_tail, spill);
  }
  if (ext_used != nullptr) {
    *ext_used = static_cast<uint32_t>(spill);
  }
  return OkStatus();
}

Status DecodeSummaryHeader(std::span<const uint8_t> tail, SummaryHeader* header) {
  Decoder dec(tail);
  const uint32_t magic = dec.GetU32();
  if (!dec.ok() || magic != SummaryHeader::kMagic) {
    return NotFoundError("no segment summary");
  }
  header->seq = dec.GetU64();
  header->segment_index = dec.GetU32();
  header->record_count = dec.GetU32();
  header->data_bytes = dec.GetU32();
  header->ext_bytes = dec.GetU32();
  return dec.ToStatus("summary header");
}

Status DecodeSummary(std::span<const uint8_t> tail, std::span<const uint8_t> ext,
                     SummaryHeader* header, std::vector<SummaryRecord>* records) {
  RETURN_IF_ERROR(DecodeSummaryHeader(tail, header));
  if (tail.size() < SummaryHeader::kEncodedSize) {
    return CorruptionError("segment summary tail shorter than its header");
  }
  if (header->ext_bytes > 0 && ext.size() < header->ext_bytes) {
    return InvalidArgumentError("summary extension not supplied");
  }

  // Reassemble the record stream: tail part + spilled part (at the end of
  // the extension span).
  const size_t tail_body = tail.size() - SummaryHeader::kEncodedSize;
  std::vector<uint8_t> stream;
  stream.reserve(tail_body + header->ext_bytes);
  stream.insert(stream.end(), tail.begin() + (SummaryHeader::kEncodedSize - 4),
                tail.end() - 4);
  if (header->ext_bytes > 0) {
    stream.insert(stream.end(), ext.end() - header->ext_bytes, ext.end());
  }

  Decoder dec(stream);
  records->clear();
  // The CRC is only checked after the records decode, so a damaged header
  // must not be trusted for allocation: every record is at least its common
  // prefix (11 bytes), so a count the stream cannot possibly hold is damage.
  if (header->record_count > stream.size() / 11) {
    return CorruptionError("segment summary record count exceeds stream");
  }
  records->reserve(header->record_count);
  for (uint32_t i = 0; i < header->record_count; ++i) {
    ASSIGN_OR_RETURN(SummaryRecord r, SummaryRecord::DecodeFrom(&dec));
    records->push_back(r);
  }
  const size_t record_bytes = dec.position();

  // CRC covers header fields + record stream; it sits right after the tail
  // part of the stream.
  const size_t in_tail = std::min(record_bytes, tail_body);
  uint32_t crc = Crc32Update(Crc32Init(), tail.subspan(0, SummaryHeader::kEncodedSize - 4));
  crc = Crc32Update(crc, std::span<const uint8_t>(stream).subspan(0, record_bytes));
  const size_t crc_at = (SummaryHeader::kEncodedSize - 4) + in_tail;
  Decoder cdec(tail.subspan(crc_at, 4));
  const uint32_t stored_crc = cdec.GetU32();
  if (Crc32Final(crc) != stored_crc) {
    return CorruptionError("segment summary crc mismatch");
  }
  return OkStatus();
}

}  // namespace ld
