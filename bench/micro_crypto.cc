// google-benchmark microbenchmarks of the crypto substrate: SHA-256
// throughput, HMAC, Merkle build / path generation / verification, hash
// chains and embedded-proof codec — the real-work primitives underlying
// every eLSM figure.
#include <benchmark/benchmark.h>

#include "auth/proof.h"
#include "crypto/hash_chain.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"

namespace {

using namespace elsm;
using namespace elsm::crypto;

void BM_Sha256(benchmark::State& state) {
  const std::string data(size_t(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
// 4096 is the SSTable block size: every ReadBuffer admission hashes one.
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(4096)->Arg(65536);

// The two compress functions on their own, over range(0) bytes of whole
// blocks. BM_Sha256 runs whichever of them the CPU selected, so the rows
// side by side show the dispatch speed-up as a ratio.
void RunCompress(benchmark::State& state,
                 internal::Sha256CompressFn compress) {
  const std::string data(size_t(state.range(0)), 'x');
  uint32_t h[8] = {};
  for (auto _ : state) {
    compress(h, reinterpret_cast<const uint8_t*>(data.data()),
             data.size() / 64);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}

void BM_Sha256CompressScalar(benchmark::State& state) {
  RunCompress(state, internal::Sha256CompressScalar);
}
BENCHMARK(BM_Sha256CompressScalar)->Arg(64)->Arg(4096);

void BM_Sha256CompressShaNi(benchmark::State& state) {
  if (!internal::Sha256ShaNiAvailable()) {
    state.SkipWithError("CPU lacks SHA-NI");
    return;
  }
  RunCompress(state, internal::Sha256CompressShaNi);
}
BENCHMARK(BM_Sha256CompressShaNi)->Arg(64)->Arg(4096);

// A Merkle interior node: H(0x01 || left || right), 65 bytes in two blocks.
void BM_HashInterior(benchmark::State& state) {
  const Hash256 left = Sha256::Digest("left");
  const Hash256 right = Sha256::Digest("right");
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashInterior(left, right));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * 65);
}
BENCHMARK(BM_HashInterior);

void BM_HmacSha256(benchmark::State& state) {
  const std::string data(size_t(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256("key", data));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(116)->Arg(4096);

std::vector<Hash256> MakeLeaves(int64_t n) {
  std::vector<Hash256> leaves;
  leaves.reserve(size_t(n));
  for (int64_t i = 0; i < n; ++i) {
    leaves.push_back(Sha256::Digest("leaf" + std::to_string(i)));
  }
  return leaves;
}

void BM_MerkleBuild(benchmark::State& state) {
  const auto leaves = MakeLeaves(state.range(0));
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MerkleBuild)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_MerklePathGen(benchmark::State& state) {
  MerkleTree tree(MakeLeaves(state.range(0)));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Path(i++ % uint64_t(state.range(0))));
  }
}
BENCHMARK(BM_MerklePathGen)->Arg(16384)->Arg(131072);

void BM_MerklePathVerify(benchmark::State& state) {
  MerkleTree tree(MakeLeaves(state.range(0)));
  const auto path = tree.Path(uint64_t(state.range(0)) / 2);
  const Hash256 leaf = tree.leaf(uint64_t(state.range(0)) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::VerifyPath(
        leaf, path, uint64_t(state.range(0)), tree.root()));
  }
}
BENCHMARK(BM_MerklePathVerify)->Arg(16384)->Arg(131072);

void BM_ChainDigest(benchmark::State& state) {
  std::vector<std::string> encodings;
  for (int64_t i = 0; i < state.range(0); ++i) {
    encodings.push_back(std::string(116, char('a' + i % 26)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChainDigest(encodings));
  }
}
BENCHMARK(BM_ChainDigest)->Arg(1)->Arg(4)->Arg(16);

void BM_EmbeddedProofCodec(benchmark::State& state) {
  auth::EmbeddedProof proof;
  proof.leaf_index = 123456;
  proof.suffix.present = true;
  proof.suffix.digest = Sha256::Digest("suffix");
  const std::string blob = proof.Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth::EmbeddedProof::Decode(blob));
  }
}
BENCHMARK(BM_EmbeddedProofCodec);

}  // namespace

BENCHMARK_MAIN();
