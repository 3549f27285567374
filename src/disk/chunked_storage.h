// Lazily allocated byte store backing the simulated devices. Storage is
// allocated in 1-MB chunks on first write so multi-gigabyte devices can be
// simulated cheaply; never-written areas read as zeros.

#ifndef SRC_DISK_CHUNKED_STORAGE_H_
#define SRC_DISK_CHUNKED_STORAGE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace ld {

class ChunkedStorage {
 public:
  explicit ChunkedStorage(uint64_t total_bytes);

  void CopyOut(uint64_t byte_offset, std::span<uint8_t> out) const;
  void CopyIn(uint64_t byte_offset, std::span<const uint8_t> data);

 private:
  // The chunk holding `byte_offset`, allocated (zeroed) on first use.
  uint8_t* AllocatedChunkFor(uint64_t byte_offset);

  static constexpr uint64_t kChunkBytes = 1 << 20;
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;  // Null = never written.
};

}  // namespace ld

#endif  // SRC_DISK_CHUNKED_STORAGE_H_
