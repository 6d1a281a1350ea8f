// ContentHash (the word-at-a-time hash behind every Workspace key) and the
// fingerprints built on it: any bit flip in any region of the input — the
// first word, a middle word, the last full 32-byte lane block, the
// sub-32-byte tail — changes the hash; equal bytes always hash equal.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "engine/workspace.h"
#include "graph/generators.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "util/content_hash.h"
#include "util/rng.h"

namespace holim {
namespace {

std::vector<unsigned char> RandomBytes(std::size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(len);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next64());
  return bytes;
}

uint64_t HashOf(const std::vector<unsigned char>& bytes) {
  return ContentHash(bytes.data(), bytes.size());
}

TEST(ContentHashTest, EveryBitFlipInEveryRegionChangesTheHash) {
  // 3 full lane blocks (96 bytes) + an 8-byte tail word + a 4-byte half
  // word + 3 tail bytes: the first word, middle words, the last full lane
  // block and every kind of tail are all flipped bit by bit.
  const std::size_t len = 3 * 32 + 8 + 4 + 3;
  std::vector<unsigned char> bytes = RandomBytes(len, 1);
  const uint64_t base = HashOf(bytes);
  std::set<uint64_t> seen = {base};
  for (std::size_t byte = 0; byte < len; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[byte] ^= static_cast<unsigned char>(1u << bit);
      const uint64_t flipped = HashOf(bytes);
      bytes[byte] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_NE(flipped, base) << "byte " << byte << " bit " << bit;
      seen.insert(flipped);
    }
  }
  // All 8 * len single-bit neighbours are pairwise distinct too.
  EXPECT_EQ(seen.size(), 8 * len + 1);
  EXPECT_EQ(HashOf(bytes), base);  // restored content hashes as before
}

TEST(ContentHashTest, ShortInputsAndLengthsAreDistinct) {
  // Every length 0..40 (below, at and just past one lane block), and every
  // single-bit flip of each: lengths are folded in, so a zero-padded
  // input never collides with its prefix.
  const std::vector<unsigned char> zeros(41, 0);
  std::set<uint64_t> by_length;
  for (std::size_t len = 0; len <= 40; ++len) {
    by_length.insert(ContentHash(zeros.data(), len));
    std::vector<unsigned char> bytes = RandomBytes(len, 100 + len);
    const uint64_t base = HashOf(bytes);
    for (std::size_t byte = 0; byte < len; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[byte] ^= static_cast<unsigned char>(1u << bit);
        EXPECT_NE(HashOf(bytes), base) << "len " << len << " byte " << byte;
        bytes[byte] ^= static_cast<unsigned char>(1u << bit);
      }
    }
  }
  EXPECT_EQ(by_length.size(), 41u);
}

TEST(ContentHashTest, EqualContentHashesEqualAndSeedsChain) {
  const std::vector<unsigned char> a = RandomBytes(77, 3);
  const std::vector<unsigned char> b = a;  // distinct storage, same bytes
  ASSERT_NE(a.data(), b.data());
  EXPECT_EQ(HashOf(a), HashOf(b));
  // Alignment is not part of the content.
  std::vector<unsigned char> shifted(a.size() + 1);
  std::memcpy(shifted.data() + 1, a.data(), a.size());
  EXPECT_EQ(ContentHash(shifted.data() + 1, a.size()), HashOf(a));
  // The seed is part of the hash: chaining distinguishes split points.
  EXPECT_NE(ContentHash(a.data(), a.size(), 1),
            ContentHash(a.data(), a.size(), 2));
  EXPECT_NE(ContentHash(a.data() + 8, 69, ContentHash(a.data(), 8)),
            ContentHash(a.data() + 16, 61, ContentHash(a.data(), 16)));
}

TEST(FingerprintTest, ParamsFingerprintIsExactOnTheRepresentation) {
  const Graph graph = GenerateBarabasiAlbert(200, 3, 5).ValueOrDie();
  const InfluenceParams params = MakeUniformIc(graph, 0.1);
  const uint64_t base = FingerprintParams(params);

  // Equal content in a distinct object hashes equal.
  const InfluenceParams copy = MakeUniformIc(graph, 0.1);
  EXPECT_EQ(FingerprintParams(copy), base);

  // +0.0 and -0.0 compare equal as doubles but are different bits, so
  // they are different artifacts.
  InfluenceParams zero = params;
  zero.probability[17] = 0.0;
  InfluenceParams negative_zero = params;
  negative_zero.probability[17] = -0.0;
  EXPECT_NE(FingerprintParams(zero), FingerprintParams(negative_zero));

  // Appending a 0.0 probability changes the length, and the hash.
  InfluenceParams appended = params;
  appended.probability.push_back(0.0);
  EXPECT_NE(FingerprintParams(appended), base);

  // The model kind is part of the fingerprint.
  InfluenceParams relabeled = params;
  relabeled.model = DiffusionModel::kLinearThreshold;
  EXPECT_NE(FingerprintParams(relabeled), base);

  // One-ulp changes at the first, a middle, and the last entry.
  for (const std::size_t e : {std::size_t{0}, params.probability.size() / 2,
                              params.probability.size() - 1}) {
    InfluenceParams nudged = params;
    nudged.probability[e] = std::nextafter(nudged.probability[e], 1.0);
    EXPECT_NE(FingerprintParams(nudged), base) << "edge " << e;
  }
}

TEST(FingerprintTest, FingerprintedParamsCarriesTheParamsHash) {
  const Graph graph = GenerateBarabasiAlbert(120, 2, 9).ValueOrDie();
  const InfluenceParams params = MakeWeightedCascade(graph);
  const FingerprintedParams keyed(params);
  EXPECT_EQ(&keyed.params(), &params);
  EXPECT_EQ(keyed.fingerprint(), FingerprintParams(params));
}

TEST(FingerprintTest, OpinionLayerSplitPointIsPartOfTheFingerprint) {
  // Chained hashing: moving a value from the opinion vector to the
  // interaction vector is a different layer, not the same bytes.
  OpinionParams a;
  a.opinion = {0.5};
  OpinionParams b;
  b.interaction = {0.5};
  EXPECT_NE(FingerprintOpinions(a), FingerprintOpinions(b));
  OpinionParams a_copy = a;
  EXPECT_EQ(FingerprintOpinions(a_copy), FingerprintOpinions(a));
}

}  // namespace
}  // namespace holim
