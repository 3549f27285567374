#include "src/disk/chunked_storage.h"

#include <algorithm>
#include <cstring>

namespace ld {

ChunkedStorage::ChunkedStorage(uint64_t total_bytes) {
  chunks_.resize((total_bytes + kChunkBytes - 1) / kChunkBytes);
}

uint8_t* ChunkedStorage::AllocatedChunkFor(uint64_t byte_offset) {
  std::unique_ptr<uint8_t[]>& chunk = chunks_[byte_offset / kChunkBytes];
  if (chunk == nullptr) {
    chunk = std::make_unique<uint8_t[]>(kChunkBytes);  // Value-initialized: zeros.
  }
  return chunk.get();
}

void ChunkedStorage::CopyOut(uint64_t byte_offset, std::span<uint8_t> out) const {
  uint64_t byte = byte_offset;
  size_t copied = 0;
  while (copied < out.size()) {
    const uint64_t within = byte % kChunkBytes;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(kChunkBytes - within, out.size() - copied));
    const uint8_t* chunk = chunks_[byte / kChunkBytes].get();
    if (chunk != nullptr) {
      std::memcpy(out.data() + copied, chunk + within, n);
    } else {
      std::memset(out.data() + copied, 0, n);  // Never-written area reads as zeros.
    }
    copied += n;
    byte += n;
  }
}

void ChunkedStorage::CopyIn(uint64_t byte_offset, std::span<const uint8_t> data) {
  uint64_t byte = byte_offset;
  size_t copied = 0;
  while (copied < data.size()) {
    const uint64_t within = byte % kChunkBytes;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(kChunkBytes - within, data.size() - copied));
    uint8_t* chunk = AllocatedChunkFor(byte);
    std::memcpy(chunk + within, data.data() + copied, n);
    copied += n;
    byte += n;
  }
}

}  // namespace ld
