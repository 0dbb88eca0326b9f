/**
 * @file
 * Deterministic 64-bit streaming hasher for request fingerprinting.
 *
 * The serve layer (src/serve/) keys its result cache by a canonical
 * fingerprint of the whole simulation request, so the hash must be
 * stable across processes and platforms: FNV-1a over a canonical byte
 * encoding of each field, with a splitmix64 finalizer for avalanche.
 * Not cryptographic; collisions are possible in principle but a 64-bit
 * space is ample for cache keys.
 *
 * Field descriptions.  Every wire type (GpuSpec, NodeSpec,
 * ClusterSpec, ModelConfig, ParallelConfig, SimOptions, SimRequest,
 * SimulationResult, SweepSpec) declares its fields once, next to its
 * definition, as an ordered list of (JSON name, member pointer) pairs:
 *
 *     template <typename Visit>
 *     void fields(Visit &&visit, const GpuSpec *)
 *     {
 *         visit("name", &GpuSpec::name);
 *         ...
 *     }
 *
 * That one list drives the JSON encoder and the lax/strict decoders
 * (serve/wire.cc) and hashAppend() below, so the wire keys, their
 * order and the fingerprint cannot drift apart: a new field is one
 * line in its type's description.
 */
#ifndef VTRAIN_UTIL_HASH_H
#define VTRAIN_UTIL_HASH_H

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace vtrain {

/** Accumulates fields into one 64-bit digest (FNV-1a + splitmix64). */
class Hash64
{
  public:
    Hash64() = default;

    /** Seeds the stream, e.g. with a format-version tag. */
    explicit Hash64(uint64_t seed) { mix(seed); }

    Hash64 &mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            state_ ^= (v >> (8 * i)) & 0xffu;
            state_ *= kFnvPrime;
        }
        return *this;
    }

    Hash64 &mix(int64_t v) { return mix(static_cast<uint64_t>(v)); }
    Hash64 &mix(int v) { return mix(static_cast<uint64_t>(int64_t{v})); }
    Hash64 &mix(bool v) { return mix(uint64_t{v ? 1u : 0u}); }

    /** Doubles hash by bit pattern; -0.0 is canonicalized to +0.0. */
    Hash64 &mix(double v)
    {
        if (v == 0.0)
            v = 0.0; // collapse -0.0 and +0.0
        return mix(std::bit_cast<uint64_t>(v));
    }

    /** Strings are length-prefixed so "ab","c" != "a","bc". */
    Hash64 &mix(std::string_view s)
    {
        mix(static_cast<uint64_t>(s.size()));
        for (const char c : s) {
            state_ ^= static_cast<unsigned char>(c);
            state_ *= kFnvPrime;
        }
        return *this;
    }

    /** @return the finalized digest (splitmix64 avalanche). */
    uint64_t digest() const
    {
        uint64_t z = state_;
        z ^= z >> 30;
        z *= 0xbf58476d1ce4e5b9ull;
        z ^= z >> 27;
        z *= 0x94d049bb133111ebull;
        z ^= z >> 31;
        return z;
    }

  private:
    static constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
    static constexpr uint64_t kFnvPrime = 0x100000001b3ull;

    uint64_t state_ = kFnvOffset;
};

template <typename T> void hashFields(Hash64 &h, const T &value);

/**
 * Folds one value into a fingerprint stream: integers and enums as
 * int64, bools, doubles and strings as Hash64::mix() does, and a
 * described type as its fields in description order (nested types
 * inline).  A type with process-local state overloads this to mix it
 * after hashFields() (see hashAppend(Hash64 &, const SimOptions &)).
 */
template <typename T>
void
hashAppend(Hash64 &h, const T &value)
{
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double>)
        h.mix(value);
    else if constexpr (std::is_same_v<T, std::string>)
        h.mix(std::string_view(value));
    else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>)
        h.mix(static_cast<int64_t>(value));
    else
        hashFields(h, value);
}

/** Folds every described field of `value`, in description order. */
template <typename T>
void
hashFields(Hash64 &h, const T &value)
{
    fields([&h, &value](std::string_view, auto member) {
        hashAppend(h, value.*member);
    }, &value);
}

/** @return the digest of `value` alone on a fresh stream. */
template <typename T>
uint64_t
hashValue(const T &value)
{
    Hash64 h;
    hashAppend(h, value);
    return h.digest();
}

} // namespace vtrain

#endif // VTRAIN_UTIL_HASH_H
