// Property-based tests: randomized operation sequences checked against a
// std::map reference model in every mode, plus protocol invariants —
// verification always succeeds for an honest host (Definition 5.2,
// protocol correctness), proofs stop at the hit level (Lemma 5.4), and
// timestamps strictly decrease down the level stack.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "common/random.h"
#include "elsm/elsm_db.h"
#include "test_strings.h"

namespace elsm {
namespace {

using test_util::Numbered;

Options FuzzOptions(Mode mode, uint64_t seed) {
  Options o;
  o.mode = mode;
  // Vary geometry with the seed so different shapes are exercised.
  o.memtable_bytes = 1 << (10 + seed % 3);        // 1-4 KiB
  o.level1_bytes = o.memtable_bytes * 4;
  o.level_ratio = 2 + uint32_t(seed % 3);
  o.block_bytes = 512 << (seed % 2);
  o.file_bytes = 4 << 10;
  o.read_path = (seed % 2 == 0) ? lsm::ReadPathKind::kMmap
                                : lsm::ReadPathKind::kBuffer;
  return o;
}

struct ModelCase {
  Mode mode;
  uint64_t seed;
};

class RandomOpsTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(RandomOpsTest, MatchesReferenceModel) {
  const auto [mode, seed] = GetParam();
  auto db = ElsmDb::Create(FuzzOptions(mode, seed));
  ASSERT_TRUE(db.ok());
  std::map<std::string, std::optional<std::string>> model;
  Rng rng(seed);

  auto key_of = [](uint64_t i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05llu",
                  static_cast<unsigned long long>(i));
    return std::string(buf);
  };

  for (int op = 0; op < 2000; ++op) {
    const uint64_t which = rng.Uniform(100);
    const std::string key = key_of(rng.Uniform(150));
    if (which < 55) {  // put
      const std::string value = Numbered("v", op);
      ASSERT_TRUE(db.value()->Put(key, value).ok());
      model[key] = value;
    } else if (which < 65) {  // delete
      ASSERT_TRUE(db.value()->Delete(key).ok());
      model[key] = std::nullopt;
    } else if (which < 95) {  // get
      auto got = db.value()->Get(key);
      ASSERT_TRUE(got.ok()) << got.status().ToString() << " op=" << op;
      auto it = model.find(key);
      const bool expect_present =
          it != model.end() && it->second.has_value();
      ASSERT_EQ(got.value().has_value(), expect_present)
          << "op=" << op << " key=" << key;
      if (expect_present) {
        EXPECT_EQ(*got.value(), *it->second);
      }
    } else if (which < 98) {  // scan
      const std::string hi = key_of(rng.Uniform(150));
      const std::string lo = std::min(key, hi);
      const std::string hi2 = std::max(key, hi);
      auto scan = db.value()->Scan(lo, hi2);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString() << " op=" << op;
      std::map<std::string, std::string> expect;
      for (auto it2 = model.lower_bound(lo);
           it2 != model.end() && it2->first <= hi2; ++it2) {
        if (it2->second.has_value()) expect[it2->first] = *it2->second;
      }
      ASSERT_EQ(scan.value().size(), expect.size()) << "op=" << op;
      for (const auto& r : scan.value()) {
        auto it2 = expect.find(r.key);
        ASSERT_NE(it2, expect.end()) << r.key;
        EXPECT_EQ(r.value, it2->second);
      }
    } else {  // flush or full compaction
      if (which == 98) {
        ASSERT_TRUE(db.value()->Flush().ok());
      } else {
        ASSERT_TRUE(db.value()->CompactAll().ok());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, RandomOpsTest,
    ::testing::Values(ModelCase{Mode::kP2, 1}, ModelCase{Mode::kP2, 2},
                      ModelCase{Mode::kP2, 3}, ModelCase{Mode::kP2, 4},
                      ModelCase{Mode::kP1, 5}, ModelCase{Mode::kP1, 6},
                      ModelCase{Mode::kUnsecured, 7},
                      ModelCase{Mode::kP2, 8}, ModelCase{Mode::kP2, 9},
                      ModelCase{Mode::kP2, 10}),
    [](const auto& info) {
      const char* m = info.param.mode == Mode::kP2
                          ? "P2"
                          : (info.param.mode == Mode::kP1 ? "P1" : "Raw");
      return std::string(m) + "Seed" + std::to_string(info.param.seed);
    });

TEST(ProtocolInvariants, EarlyStopOmitsDeeperLevels) {
  // Lemma 5.4 consequence: the proof for a found key ends at the hit level.
  Options o = FuzzOptions(Mode::kP2, 1);
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  // Three generations spread across three levels.
  for (int gen = 0; gen < 3; ++gen) {
    for (int i = 0; i < 100; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%05d", i);
      ASSERT_TRUE(db.value()->Put(key, Numbered("gen", gen)).ok());
    }
    ASSERT_TRUE(gen == 0 ? db.value()->CompactAll().ok()
                         : db.value()->Flush().ok());
  }
  auto resp = db.value()->engine().Get("k00050", kLatest);
  ASSERT_TRUE(resp.ok());
  ASSERT_FALSE(resp.value().levels.empty());
  EXPECT_TRUE(resp.value().levels.back().found);
  EXPECT_LT(resp.value().levels.size(), db.value()->engine().levels().size())
      << "proof should stop before the deepest level";
}

TEST(ProtocolInvariants, TimestampsDecreaseDownTheStack) {
  // Lemma 5.4 itself: for any key, versions at shallower levels are newer.
  Options o = FuzzOptions(Mode::kP2, 2);
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  Rng rng(99);
  for (int op = 0; op < 3000; ++op) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05llu",
                  static_cast<unsigned long long>(rng.Uniform(200)));
    ASSERT_TRUE(db.value()->Put(key, Numbered("v", op)).ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());

  for (int i = 0; i < 200; i += 11) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    auto resp = db.value()->engine().Get(key, 0);  // forces full descent
    ASSERT_TRUE(resp.ok());
    uint64_t shallowest_newer = UINT64_MAX;
    for (const auto& lr : resp.value().levels) {
      for (const auto& e : lr.chain) {
        EXPECT_LT(e.record.ts, shallowest_newer)
            << key << " level " << lr.level_pos;
      }
      if (!lr.chain.empty()) {
        shallowest_newer = lr.chain.back().record.ts;
      }
    }
  }
}

TEST(ProtocolInvariants, VerifiedAndUnverifiedAgree) {
  // verify_reads=false must return the same data as the verified path.
  Options verified_opts = FuzzOptions(Mode::kP2, 3);
  Options raw_opts = verified_opts;
  raw_opts.verify_reads = false;
  auto db1 = ElsmDb::Create(verified_opts);
  auto db2 = ElsmDb::Create(raw_opts);
  ASSERT_TRUE(db1.ok());
  ASSERT_TRUE(db2.ok());
  Rng rng(17);
  for (int op = 0; op < 1500; ++op) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05llu",
                  static_cast<unsigned long long>(rng.Uniform(100)));
    const std::string value = Numbered("v", op);
    ASSERT_TRUE(db1.value()->Put(key, value).ok());
    ASSERT_TRUE(db2.value()->Put(key, value).ok());
  }
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    auto a = db1.value()->Get(key);
    auto b = db2.value()->Get(key);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value()) << key;
  }
}

}  // namespace
}  // namespace elsm
