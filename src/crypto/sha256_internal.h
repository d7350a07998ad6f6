// The SHA-256 compression functions behind crypto::Sha256, exposed so the
// parity tests and micro-benchmarks can drive each one directly.
//
// Both advance `state` (H0..H7, host order) over `nblocks` consecutive
// 64-byte message blocks starting at `data`; for the same inputs they leave
// the same state. Sha256 picks one of them once per process (see
// Sha256ShaNiAvailable).
#pragma once

#include <cstddef>
#include <cstdint>

namespace elsm::crypto::internal {

using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* data,
                                  size_t nblocks);

// Portable FIPS 180-4 compression, one block at a time.
void Sha256CompressScalar(uint32_t state[8], const uint8_t* data,
                          size_t nblocks);

// x86 SHA extensions (SHA-NI) compression. Call only when
// Sha256ShaNiAvailable() is true; on other architectures it forwards to the
// scalar path.
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* data,
                         size_t nblocks);

// True when CPUID reports SHA, SSSE3 and SSE4.1, i.e. when Sha256 hashes
// with Sha256CompressShaNi. Evaluated once, on first use.
bool Sha256ShaNiAvailable();

}  // namespace elsm::crypto::internal
