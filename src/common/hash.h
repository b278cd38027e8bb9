// Hashing utilities: FNV-1a for fast non-cryptographic hashing and SHA-256 for the
// sandbox policy's measurement of the initial S-mode image (paper §5.2).

#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace vfm {

// The 64-bit FNV-1a offset basis: the hash of no bytes.
inline constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

// 64-bit FNV-1a over an arbitrary byte buffer. To hash several buffers as one
// stream, pass the hash of the bytes before as `seed`.
uint64_t Fnv1a64(const void* data, size_t size, uint64_t seed = kFnv1aBasis);

// Incremental SHA-256. Usage: Sha256 h; h.Update(buf, n); auto digest = h.Finish();
class Sha256 {
 public:
  Sha256();

  void Update(const void* data, size_t size);

  // Finalizes and returns the 32-byte digest. The object must not be reused afterwards.
  std::array<uint8_t, 32> Finish();

  // One-shot convenience.
  static std::array<uint8_t, 32> Digest(const void* data, size_t size);

  // Hex string of a digest, for logging and attestation-style reports.
  static std::string ToHex(const std::array<uint8_t, 32>& digest);

 private:
  void ProcessBlock(const uint8_t* block);

  std::array<uint32_t, 8> state_;
  std::array<uint8_t, 64> buffer_;
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
};

}  // namespace vfm

#endif  // SRC_COMMON_HASH_H_
