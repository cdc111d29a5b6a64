/**
 * @file
 * FNV-1a digests behind every golden fingerprint: the serving and
 * multi-GPU timeline digests, the profiler report hash, and the byte
 * witnesses the benches and tests compare against their legacy
 * replicas. One definition, so a golden can only move when the digested
 * data does.
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace fastgl {
namespace util {

/** FNV-1a 64-bit offset basis: the state of an empty digest. */
inline constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
/** FNV-1a 64-bit prime. */
inline constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

/** Fold the eight bytes of @p word, least significant first, into the
 *  FNV-1a state @p h. */
constexpr uint64_t
fnv(uint64_t h, uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xFF;
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a digest of the @p bytes bytes at @p data. */
inline uint64_t
fnv_bytes(const void *data, size_t bytes)
{
    uint64_t h = kFnvOffset;
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** The IEEE-754 bit pattern of @p x, for folding doubles into fnv(). */
constexpr uint64_t
double_bits(double x)
{
    return std::bit_cast<uint64_t>(x);
}

} // namespace util
} // namespace fastgl
