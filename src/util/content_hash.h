#ifndef HOLIM_UTIL_CONTENT_HASH_H_
#define HOLIM_UTIL_CONTENT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

namespace holim {

/// Default seed of ContentHash (any fixed value works; this one is the
/// 64-bit golden-ratio constant).
inline constexpr uint64_t kContentHashSeed = 0x9E3779B97F4A7C15ULL;

/// \brief 64-bit content hash of a byte range — the one primitive behind
/// every Workspace key fingerprint and the streaming graph token.
///
/// Hashes the exact byte representation, so values that differ in any bit
/// (including +0.0 vs -0.0, or two NaN payloads) hash differently with
/// overwhelming probability, and equal bytes always hash equal. It reads
/// 8-byte words into four independent accumulator lanes (32 bytes per
/// step, so the multiplies pipeline), folds the total length in, mixes the
/// sub-32-byte tail word by word, and ends with an avalanche finalizer —
/// the xxHash64 construction. Word speed matters because the engine keys
/// every request by the hash of an m-entry probability vector.
///
/// Multi-part content chains through `seed`: pass one part's hash as the
/// next part's seed. Not a cryptographic hash; platform byte order is part
/// of the representation (keys are process-local).
uint64_t ContentHash(const void* data, std::size_t len,
                     uint64_t seed = kContentHashSeed);

/// ContentHash over the object representation of a span of trivially
/// copyable values.
template <typename T>
uint64_t ContentHash(std::span<const T> values,
                     uint64_t seed = kContentHashSeed) {
  static_assert(std::is_trivially_copyable_v<T>);
  return ContentHash(values.data(), values.size_bytes(), seed);
}

}  // namespace holim

#endif  // HOLIM_UTIL_CONTENT_HASH_H_
