// Segment-summary records: LLD's metadata log (paper §3.1, Figure 2).
//
// A segment summary records, for every physical block in the segment, its
// logical block number, timestamp, length, and compression flag; it also
// logs list modifications as link tuples and list tuples, block
// deallocations, and ARU commit markers. Every record carries a timestamp
// and a bit saying whether it *ends* an atomic recovery unit; records inside
// an explicit BeginARU..EndARU window have the bit clear, so recovery can
// enforce all-or-nothing semantics (§3.1, §3.6).

#ifndef SRC_LLD_SUMMARY_RECORD_H_
#define SRC_LLD_SUMMARY_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/ld/types.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace ld {

enum class SummaryRecordType : uint8_t {
  kBlockEntry = 1,   // A data block stored in this segment.
  kLinkTuple = 2,    // Successor-pointer update for a block.
  kListHead = 3,     // First-block update for a list.
  kListCreate = 4,   // List allocation (hints + position in list of lists).
  kListDelete = 5,   // List deallocation.
  kBlockFree = 6,    // Block-number deallocation.
  kAruCommit = 7,    // Explicit EndARU marker.
  kBlockAlloc = 8,   // Block-number allocation (bid, owning list, size class).
  kListMove = 9,     // List-of-lists successor update for a list.
  kSegmentParity = 10,  // XOR parity block covering this segment's data area.
  kScrubIntent = 11,    // Scrub retirement intent for a suspect segment.
  kStripeParity = 12,   // Cross-channel stripe membership (one per member).
};

// The 24-bit payload checksum stored in every block entry.
uint32_t PayloadCrc(std::span<const uint8_t> bytes);

struct SummaryRecord {
  SummaryRecordType type = SummaryRecordType::kBlockEntry;
  OpTimestamp ts = 0;
  bool ends_aru = true;

  // Atomic-recovery-unit id: 0 for standalone operations (their own implicit
  // ARU); otherwise the id of the enclosing BeginARU..EndARU window. Recovery
  // applies an ARU's records only if its kAruCommit record is on disk. The id
  // generalizes the paper's single-bit tagging so that internal operations
  // (cleaning) can interleave with an open ARU, and is the natural extension
  // point for the concurrent ARUs the paper lists as future work (§5.4).
  uint32_t aru_id = 0;

  // kBlockEntry
  Bid bid = kNilBid;
  uint32_t offset = 0;       // Byte offset of the data within the segment.
  uint32_t stored_size = 0;  // Bytes on disk.
  uint32_t orig_size = 0;    // Logical size class.
  bool compressed = false;
  Lid lid = kNilLid;         // Owning list (kBlockAlloc / kListCreate / ...).

  // kBlockEntry: 24-bit payload checksum (truncated CRC32 of the stored
  // bytes — the compressed form if compressed). A block entry does not name
  // its list; recovery takes the list from the block's kBlockAlloc record.
  // Relocation (cleaner, scrub) carries the original CRC verbatim so silent
  // corruption can never be laundered into a fresh valid checksum.
  uint32_t payload_crc = 0;

  // kLinkTuple: successor of `bid` becomes `link_to`.
  // kListHead:  first block of `lid` becomes `link_to`.
  Bid link_to = kNilBid;

  // kSegmentParity reuses offset (parity block's byte offset in the
  // segment), stored_size (parity length in bytes), orig_size (bytes of the
  // data area the parity covers, i.e. XOR lanes wrap at stored_size over
  // [0, orig_size)), and payload_crc (24-bit CRC of the parity bytes
  // themselves, so a rotted parity block is detected before it is trusted).
  //
  // kScrubIntent: `bid` reuses its 24 bits for the retired segment's index;
  // `intent_seq` is the newest summary sequence number scrub observed for
  // that segment. Recovery treats a damaged summary on that segment whose
  // claimed sequence is <= intent_seq as a retirement in progress and
  // completes it instead of refusing with CORRUPTION.
  //
  // kStripeParity declares one member of a cross-channel stripe set, reusing
  // `offset` for the parity segment's index, `bid` for the member segment's
  // index, `stored_size`/`orig_size` for the member's position and the total
  // member count, `intent_seq` for the member's summary sequence (so a
  // reused segment is never mistaken for the striped image), and
  // `payload_crc` for the 24-bit CRC of the parity segment's full image. A
  // record with member count 0 *dissolves* the stripe (cleaner countermand).
  // Newest record set per parity segment wins, in seq order.
  uint64_t intent_seq = 0;

  // kListCreate
  ListHints hints;
  Lid lol_next = kNilLid;    // Position in the list of lists (successor).

  static SummaryRecord BlockEntry(OpTimestamp ts, Bid bid, uint32_t offset,
                                  uint32_t stored_size, uint32_t orig_size, bool compressed,
                                  bool ends_aru, uint32_t payload_crc);
  static SummaryRecord LinkTuple(OpTimestamp ts, Bid bid, Bid new_successor, bool ends_aru);
  static SummaryRecord ListHead(OpTimestamp ts, Lid lid, Bid new_first, bool ends_aru);
  static SummaryRecord ListCreate(OpTimestamp ts, Lid lid, ListHints hints, Lid lol_next,
                                  bool ends_aru);
  static SummaryRecord ListMove(OpTimestamp ts, Lid lid, Lid lol_next, ListHints hints,
                                bool ends_aru);
  static SummaryRecord ListDelete(OpTimestamp ts, Lid lid, bool ends_aru);
  static SummaryRecord BlockFree(OpTimestamp ts, Bid bid, bool ends_aru);
  static SummaryRecord BlockAlloc(OpTimestamp ts, Bid bid, Lid lid, uint32_t size_class,
                                  bool ends_aru);
  static SummaryRecord AruCommit(OpTimestamp ts, uint32_t aru_id);
  static SummaryRecord SegmentParity(OpTimestamp ts, uint32_t offset, uint32_t parity_bytes,
                                     uint32_t covered_bytes, uint32_t parity_crc);
  static SummaryRecord ScrubIntent(OpTimestamp ts, uint32_t segment_index, uint64_t seq);
  static SummaryRecord StripeParity(OpTimestamp ts, uint32_t parity_segment,
                                    uint32_t member_segment, uint32_t member_index,
                                    uint32_t member_count, uint64_t member_seq,
                                    uint32_t parity_crc);

  void EncodeTo(Encoder* enc) const;
  static StatusOr<SummaryRecord> DecodeFrom(Decoder* dec);

  // Serialized size in bytes (records are variable-length by type).
  size_t EncodedSize() const;
};

// Fixed header at the start of every segment summary (which itself sits at
// the fixed tail position of each segment).
struct SummaryHeader {
  static constexpr uint32_t kMagic = 0x4c445353;  // "LDSS"

  uint64_t seq = 0;           // Monotonic segment-write sequence number.
  uint32_t segment_index = 0;
  uint32_t record_count = 0;
  uint32_t data_bytes = 0;    // Fill level of the data area when written.
  // Bytes of record stream spilled into the *end of the data area* (just
  // below the summary tail). Record-heavy segments written by the cleaner
  // would otherwise waste their whole data area; the extension lets a
  // segment hold data_capacity worth of re-logged metadata.
  uint32_t ext_bytes = 0;

  static constexpr size_t kEncodedSize = 4 + 8 + 4 + 4 + 4 + 4 + 4;  // + crc
};

// Summary-tail bytes a seal keeps free besides the records: the header and
// its CRC, plus 16 bytes of slack.
inline constexpr size_t kSummaryOverhead = SummaryHeader::kEncodedSize + 16;

// Serializes header + records. The record stream fills `tail` (the fixed
// summary region) first; overflow goes into `ext` (the end of the data
// area), recording its size in the header. Pass an empty `ext` to forbid
// spilling. Returns CORRUPTION if the records do not fit. `ext_used`
// (optional) reports the spilled byte count.
Status EncodeSummary(const SummaryHeader& header, const std::vector<SummaryRecord>& records,
                     std::span<uint8_t> tail, std::span<uint8_t> ext = {},
                     uint32_t* ext_used = nullptr);

// Parses just the header of a summary tail (no CRC check): used to learn
// ext_bytes before fetching the extension region. NOT_FOUND on bad magic.
Status DecodeSummaryHeader(std::span<const uint8_t> tail, SummaryHeader* header);

// Parses a full summary from its tail plus (possibly empty) extension.
// Returns NOT_FOUND for a region that holds no valid summary (bad magic)
// and CORRUPTION for a torn or damaged one (bad CRC), which recovery treats
// as "segment never completed".
Status DecodeSummary(std::span<const uint8_t> tail, std::span<const uint8_t> ext,
                     SummaryHeader* header, std::vector<SummaryRecord>* records);
inline Status DecodeSummary(std::span<const uint8_t> tail, SummaryHeader* header,
                            std::vector<SummaryRecord>* records) {
  return DecodeSummary(tail, {}, header, records);
}

}  // namespace ld

#endif  // SRC_LLD_SUMMARY_RECORD_H_
