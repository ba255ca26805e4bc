/**
 * @file
 * Exact byte-level fingerprint encoding.
 *
 * A fingerprint is an injective serialization of a configuration or
 * descriptor into a byte string: two objects share a fingerprint if and
 * only if every encoded field is identical (doubles are compared by bit
 * pattern, so -0.0 != +0.0 and equal NaN payloads match). The plan layer
 * uses fingerprints as cache keys, which makes cache collisions impossible
 * by construction rather than merely improbable under a hash.
 */
#ifndef FLEXNERFER_COMMON_FINGERPRINT_H_
#define FLEXNERFER_COMMON_FINGERPRINT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace flexnerfer {

/** Appends the raw little-endian bytes of a 64-bit value. */
inline void
FingerprintAppend(std::string* out, std::uint64_t v)
{
    char bytes[8];
    for (int byte = 0; byte < 8; ++byte) {
        bytes[byte] = static_cast<char>((v >> (8 * byte)) & 0xff);
    }
    out->append(bytes, sizeof(bytes));
}

/** Appends a double by bit pattern (injective, unlike operator==). */
inline void
FingerprintAppend(std::string* out, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    FingerprintAppend(out, bits);
}

inline void
FingerprintAppend(std::string* out, std::int64_t v)
{
    FingerprintAppend(out, static_cast<std::uint64_t>(v));
}

inline void
FingerprintAppend(std::string* out, int v)
{
    FingerprintAppend(out, static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(v)));
}

inline void
FingerprintAppend(std::string* out, bool v)
{
    out->push_back(v ? '\1' : '\0');
}

inline void
FingerprintAppend(std::string* out, std::uint8_t v)
{
    out->push_back(static_cast<char>(v));
}

/** Length-prefixed so "ab" + "c" never aliases "a" + "bc". */
inline void
FingerprintAppend(std::string* out, std::string_view s)
{
    FingerprintAppend(out, static_cast<std::uint64_t>(s.size()));
    out->append(s);
}

}  // namespace flexnerfer

#endif  // FLEXNERFER_COMMON_FINGERPRINT_H_
