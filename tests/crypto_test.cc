// Unit tests for the crypto substrate: SHA-256 against FIPS/NIST vectors,
// scalar/SHA-NI compress parity, digests pinned to the on-disk format,
// HMAC-SHA256 against RFC 4231 vectors, cipher round-trips, hash chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>

#include "common/random.h"
#include "crypto/cipher.h"
#include "crypto/hash_chain.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"
#include "lsm/sstable.h"

namespace elsm::crypto {
namespace {

TEST(Sha256Test, NistVectorEmpty) {
  EXPECT_EQ(ToHex(Sha256::Digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, NistVectorAbc) {
  EXPECT_EQ(ToHex(Sha256::Digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, NistVectorTwoBlock) {
  EXPECT_EQ(ToHex(Sha256::Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(ToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data =
      "The quick brown fox jumps over the lazy dog, repeatedly and with "
      "variable chunk sizes to exercise the buffer boundary logic.";
  for (size_t chunk = 1; chunk <= 67; chunk += 3) {
    Sha256 h;
    for (size_t i = 0; i < data.size(); i += chunk) {
      h.Update(data.substr(i, chunk));
    }
    EXPECT_EQ(h.Finalize(), Sha256::Digest(data)) << "chunk=" << chunk;
  }
}

TEST(Sha256Test, FinalizeResetsState) {
  Sha256 h;
  h.Update("abc");
  const Hash256 first = h.Finalize();
  h.Update("abc");
  EXPECT_EQ(h.Finalize(), first);
}

TEST(Sha256Test, ExactBlockBoundaryPadding) {
  // 55, 56, 63, 64, 65 bytes straddle the padding edge cases.
  for (size_t n : {55u, 56u, 63u, 64u, 65u}) {
    const std::string data(n, 'x');
    Sha256 a;
    a.Update(data);
    Sha256 b;
    for (char c : data) b.Update(&c, 1);
    EXPECT_EQ(a.Finalize(), b.Finalize()) << n;
  }
}

// SHA-256 over `data` through one compress function, with FIPS 180-4 padding
// done here rather than by Sha256, so it also cross-checks Sha256's own
// buffering and padding.
Hash256 DigestWith(internal::Sha256CompressFn compress,
                   std::string_view data) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::string padded(data);
  padded.push_back('\x80');
  while (padded.size() % 64 != 56) padded.push_back('\0');
  const uint64_t bits = uint64_t(data.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(char(bits >> (8 * i)));
  compress(state, reinterpret_cast<const uint8_t*>(padded.data()),
           padded.size() / 64);
  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[i * 4 + j] = uint8_t(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

std::string RandomBytes(Rng& rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = char(rng.Next());
  return out;
}

// Sha256 over `data`, fed in random-sized chunks (empty chunks included).
Hash256 DigestInRandomChunks(Rng& rng, std::string_view data) {
  Sha256 h;
  size_t pos = 0;
  while (pos < data.size()) {
    const size_t take = std::min<size_t>(rng.Uniform(150), data.size() - pos);
    h.Update(data.substr(pos, take));
    pos += take;
  }
  return h.Finalize();
}

constexpr char kMillionAsHex[] =
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

TEST(Sha256ParityTest, ScalarMatchesSha256OnEveryLength) {
  Rng rng(13);
  for (size_t n = 0; n <= 1100; ++n) {
    const std::string data = RandomBytes(rng, n);
    const Hash256 want = DigestWith(internal::Sha256CompressScalar, data);
    ASSERT_EQ(Sha256::Digest(data), want) << "len=" << n;
    ASSERT_EQ(DigestInRandomChunks(rng, data), want) << "len=" << n;
  }
}

TEST(Sha256ParityTest, ScalarMillionAsSingleUpdate) {
  const std::string data(1000000, 'a');
  EXPECT_EQ(ToHex(DigestWith(internal::Sha256CompressScalar, data)),
            kMillionAsHex);
  EXPECT_EQ(ToHex(Sha256::Digest(data)), kMillionAsHex);
}

TEST(Sha256ParityTest, ShaNiMatchesScalarOnEveryLength) {
  if (!internal::Sha256ShaNiAvailable()) GTEST_SKIP() << "CPU lacks SHA-NI";
  Rng rng(14);
  for (size_t n = 0; n <= 1100; ++n) {
    const std::string data = RandomBytes(rng, n);
    ASSERT_EQ(DigestWith(internal::Sha256CompressShaNi, data),
              DigestWith(internal::Sha256CompressScalar, data))
        << "len=" << n;
  }
}

TEST(Sha256ParityTest, ShaNiMatchesScalarFromArbitraryState) {
  if (!internal::Sha256ShaNiAvailable()) GTEST_SKIP() << "CPU lacks SHA-NI";
  Rng rng(15);
  const std::string data = RandomBytes(rng, 64 * 70);
  const auto* blocks = reinterpret_cast<const uint8_t*>(data.data());
  for (size_t nblocks = 0; nblocks <= 70; ++nblocks) {
    uint32_t scalar[8];
    for (uint32_t& word : scalar) word = uint32_t(rng.Next());
    uint32_t shani[8];
    std::copy(std::begin(scalar), std::end(scalar), shani);
    internal::Sha256CompressScalar(scalar, blocks, nblocks);
    internal::Sha256CompressShaNi(shani, blocks, nblocks);
    ASSERT_TRUE(std::equal(std::begin(scalar), std::end(scalar), shani))
        << "nblocks=" << nblocks;
  }
}

TEST(Sha256ParityTest, ShaNiMillionAsSingleUpdate) {
  if (!internal::Sha256ShaNiAvailable()) GTEST_SKIP() << "CPU lacks SHA-NI";
  EXPECT_EQ(ToHex(DigestWith(internal::Sha256CompressShaNi,
                             std::string(1000000, 'a'))),
            kMillionAsHex);
}

// The digests below are part of the on-disk and sealed formats (Merkle
// nodes, hash chains, per-block MACs and digests). They were produced by
// the scalar compress and must never change.
TEST(Sha256PinnedTest, HashInterior) {
  EXPECT_EQ(
      ToHex(HashInterior(Sha256::Digest("left"), Sha256::Digest("right"))),
            "09bda0c49344a4274d2202b56814924b5a20542fa05d321b5476b1cff86e4f1e");
}

TEST(Sha256PinnedTest, ChainLink) {
  EXPECT_EQ(ToHex(ChainLink("record-core", Sha256::Digest("suffix"))),
            "2cae559734f31d8e332fd86bdf3ce39951533018c106401eb91b440ea4b51577");
}

TEST(Sha256PinnedTest, HmacSha256) {
  EXPECT_EQ(ToHex(HmacSha256("pinned-key", "pinned message")),
            "e870ca434f0e7469d4fe9d1cf1a29febf3f5ceb66ed12c02016580a5e8a83c74");
}

TEST(Sha256PinnedTest, SSTableBlockHandles) {
  lsm::SSTableBuilder builder(4096, "block-mac-key");
  Rng rng(2021);
  for (int i = 0; i < 120; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    lsm::Record r;
    r.key = key;
    r.value.resize(10 + rng.Uniform(190));
    for (char& c : r.value) c = char('a' + rng.Uniform(26));
    r.ts = uint64_t(i + 1);
    builder.Add(r, "proof" + std::to_string(i));
  }
  lsm::FileMeta meta;
  const std::string image = builder.Finish(&meta);
  ASSERT_EQ(image.size(), 16063u);
  ASSERT_EQ(meta.blocks.size(), 4u);
  const char* kDigests[] = {
      "925fc9901281099113141f266ed6d94d8bbd6fdc42a7db184c0abc72b50337d6",
      "dffd479f1a99696d458be5636a4a9690c9ac8f8ce9ca122ffd5435228c7dc309",
      "a70eecc41df5344a551fce821c1bd9f4e2a4adfb6114f2736aec493b9859c796",
      "37de5df4266aefef8d3ae3ba6b157de8ac4fe683c90ff41bfe2d317eade4686d"};
  const char* kMacs[] = {
      "99d6deb87b355aac2631f801fcaf055209dbf9e1c145c37b5a714f7880ab6ca1",
      "b4ef6237bf769fa10ba0070675b273cfe1ce4400090f0c60ad609aa73b178d07",
      "f2446ba267b59ff9848c2a19ac1731346a33f271eb0cec61e4b03224e83f6932",
      "35ab18b7a00c132a3c70d3bf708a4bc62a85e1196496313729d725cfb0aa6837"};
  for (size_t i = 0; i < meta.blocks.size(); ++i) {
    EXPECT_EQ(ToHex(meta.blocks[i].digest), kDigests[i]) << "block " << i;
    EXPECT_EQ(ToHex(meta.blocks[i].mac), kMacs[i]) << "block " << i;
  }
}

TEST(HmacTest, Rfc4231Case1) {
  const std::string key(20, '\x0b');
  EXPECT_EQ(ToHex(HmacSha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(ToHex(HmacSha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231LongKey) {
  const std::string key(131, '\xaa');
  EXPECT_EQ(ToHex(HmacSha256(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, TagEqualConstantTimeSemantics) {
  const Hash256 a = Sha256::Digest("a");
  Hash256 b = a;
  EXPECT_TRUE(TagEqual(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(TagEqual(a, b));
}

TEST(CipherTest, StreamRoundTrip) {
  const std::string plain = "some secret value with \x00 bytes and length 42";
  const std::string ct = StreamEncrypt("key", 7, plain);
  EXPECT_NE(ct, plain);
  EXPECT_EQ(StreamDecrypt("key", 7, ct), plain);
}

TEST(CipherTest, StreamDifferentNoncesDiffer) {
  const std::string plain(100, 'p');
  EXPECT_NE(StreamEncrypt("key", 1, plain), StreamEncrypt("key", 2, plain));
}

TEST(CipherTest, DeterministicEncryptIsDeterministic) {
  const std::string ct1 = DeterministicEncrypt("key", "hostname.example");
  const std::string ct2 = DeterministicEncrypt("key", "hostname.example");
  EXPECT_EQ(ct1, ct2);  // searchability: equal plaintext -> equal ciphertext
  EXPECT_NE(ct1, DeterministicEncrypt("key", "hostname.example2"));
}

TEST(CipherTest, DeterministicDecryptRoundTrip) {
  const std::string ct = DeterministicEncrypt("key", "payload");
  auto pt = DeterministicDecrypt("key", ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value(), "payload");
}

TEST(CipherTest, DeterministicDecryptRejectsTamper) {
  const std::string plaintext = "a-reasonably-long-payload-to-tamper-with";
  std::string body_tampered = DeterministicEncrypt("key", plaintext);
  ASSERT_GT(body_tampered.size(), 40u);
  body_tampered[40] ^= 1;  // inside the encrypted body
  EXPECT_FALSE(DeterministicDecrypt("key", body_tampered).ok());

  std::string tag_tampered = DeterministicEncrypt("key", plaintext);
  tag_tampered[5] ^= 1;  // inside the SIV tag
  EXPECT_FALSE(DeterministicDecrypt("key", tag_tampered).ok());

  EXPECT_FALSE(DeterministicDecrypt("other-key",
                                    DeterministicEncrypt("key", plaintext))
                   .ok());
  EXPECT_FALSE(DeterministicDecrypt("key", "short").ok());
}

TEST(HashChainTest, SingleRecordChain) {
  const std::vector<std::string> encs{"record-a"};
  EXPECT_EQ(ChainDigest(encs), ChainBase("record-a"));
  const auto suffixes = ChainSuffixes(encs);
  ASSERT_EQ(suffixes.size(), 1u);
  EXPECT_FALSE(suffixes[0].present);
}

TEST(HashChainTest, ChainStructureMatchesPaperExample) {
  // h4 = H(<Z,7> || H(<Z,6>)) — newest outermost (§5.2).
  const std::vector<std::string> encs{"Z7", "Z6"};
  EXPECT_EQ(ChainDigest(encs), ChainLink("Z7", ChainBase("Z6")));
}

TEST(HashChainTest, SuffixesRebuildLeaf) {
  const std::vector<std::string> encs{"r1", "r2", "r3", "r4"};
  const Hash256 leaf = ChainDigest(encs);
  const auto suffixes = ChainSuffixes(encs);
  ASSERT_EQ(suffixes.size(), 4u);
  // Rebuild from any prefix length.
  for (size_t k = 1; k <= encs.size(); ++k) {
    std::vector<std::string_view> prefix;
    for (size_t i = 0; i < k; ++i) prefix.emplace_back(encs[i]);
    EXPECT_EQ(ChainLeafFromPrefix(prefix, suffixes[k - 1]), leaf) << k;
  }
}

TEST(HashChainTest, OrderMatters) {
  EXPECT_NE(ChainDigest({"a", "b"}), ChainDigest({"b", "a"}));
}

TEST(HashChainTest, DomainSeparationFromInteriorNodes) {
  // A chain base over 65 bytes must differ from an interior-node hash over
  // the same bytes (0x00 vs 0x01 prefixes).
  Hash256 a = Sha256::Digest("a-left-half-that-is-32-bytes-xx");
  Hash256 b = Sha256::Digest("b-right-half-that-is-32-bytes-x");
  std::string concat(reinterpret_cast<const char*>(a.data()), 32);
  concat.append(reinterpret_cast<const char*>(b.data()), 32);
  EXPECT_NE(ChainBase(concat), HashInterior(a, b));
}

}  // namespace
}  // namespace elsm::crypto
