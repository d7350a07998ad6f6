// From-scratch SHA-256 (FIPS 180-4) with an incremental interface.
//
// The compression function is chosen once per process: the x86 SHA
// extensions (SHA-NI) when CPUID reports them, otherwise a portable scalar
// one. Both produce the same digests (see crypto/sha256_internal.h).
//
// All integrity checks in the library hash real bytes through this
// implementation; the enclave cost model separately *charges* simulated time
// per hashed byte (see sgxsim/cost_model.h) so that benchmark numbers are
// deterministic while correctness remains genuine.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace elsm::crypto {

using Hash256 = std::array<uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  void Update(std::string_view data);
  void Update(const void* data, size_t len);
  Hash256 Finalize();
  void Reset();

  // One-shot convenience.
  static Hash256 Digest(std::string_view data);

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

// Hex rendering for logs/tests ("ab04...", lowercase).
std::string ToHex(const Hash256& h);

// Hash over the concatenation of two hashes: H(a || b). The Merkle tree's
// interior-node rule.
Hash256 HashConcat(const Hash256& a, const Hash256& b);

// Hash over bytes || hash: used by per-key hash chains, H(record || C).
Hash256 HashBytesThenHash(std::string_view bytes, const Hash256& h);

// An all-zero hash, used as the digest of an empty set/level.
inline constexpr Hash256 kZeroHash{};

}  // namespace elsm::crypto
