#include "util/content_hash.h"

#include <bit>
#include <cstring>

namespace holim {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

// Unaligned loads: callers hash arbitrary byte ranges (a 4-byte model tag
// chained before an 8-byte-aligned vector, NodeId arrays, ...).
uint64_t Load64(const unsigned char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

uint32_t Load32(const unsigned char* p) {
  uint32_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

uint64_t Round(uint64_t acc, uint64_t word) {
  acc += word * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

uint64_t MergeLane(uint64_t hash, uint64_t lane) {
  hash ^= Round(0, lane);
  return hash * kPrime1 + kPrime4;
}

}  // namespace

uint64_t ContentHash(const void* data, std::size_t len, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  uint64_t hash;
  if (len >= 32) {
    // Four independent lanes, one 8-byte word each per 32-byte block.
    uint64_t lane0 = seed + kPrime1 + kPrime2;
    uint64_t lane1 = seed + kPrime2;
    uint64_t lane2 = seed;
    uint64_t lane3 = seed - kPrime1;
    const unsigned char* const last_block = end - 32;
    do {
      lane0 = Round(lane0, Load64(p));
      lane1 = Round(lane1, Load64(p + 8));
      lane2 = Round(lane2, Load64(p + 16));
      lane3 = Round(lane3, Load64(p + 24));
      p += 32;
    } while (p <= last_block);
    hash = std::rotl(lane0, 1) + std::rotl(lane1, 7) + std::rotl(lane2, 12) +
           std::rotl(lane3, 18);
    hash = MergeLane(hash, lane0);
    hash = MergeLane(hash, lane1);
    hash = MergeLane(hash, lane2);
    hash = MergeLane(hash, lane3);
  } else {
    hash = seed + kPrime5;
  }
  hash += static_cast<uint64_t>(len);

  // Tail (< 32 bytes): whole words, then one half word, then bytes.
  for (; end - p >= 8; p += 8) {
    hash ^= Round(0, Load64(p));
    hash = std::rotl(hash, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    hash ^= static_cast<uint64_t>(Load32(p)) * kPrime1;
    hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    hash ^= static_cast<uint64_t>(*p) * kPrime5;
    hash = std::rotl(hash, 11) * kPrime1;
  }

  // Avalanche: every input bit reaches every output bit.
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace holim
