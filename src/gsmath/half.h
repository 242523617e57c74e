/**
 * @file
 * IEEE 754 binary16 (fp16) conversions.
 *
 * The .gsc v2 scene format stores spherical-harmonic color
 * coefficients as fp16: trained SH coefficients live in a few units
 * around zero, where half precision carries ~3 decimal digits — far
 * below the color quantization any 8-bit display applies, and half
 * the bytes of fp32.  These are pure bit-manipulation converters
 * (no F16C dependency: its conversion quiets signalling-NaN payloads)
 * so every backend, including the forced-scalar build, decodes
 * identically.  Decoding has a scalar and a simd:: lane form;
 * tests/test_fixed_point.cc checks both on all 65536 patterns.
 */

#ifndef GCC3D_GSMATH_HALF_H
#define GCC3D_GSMATH_HALF_H

#include <bit>
#include <cstdint>
#include <cstring>

#include "gsmath/simd.h"

namespace gcc3d {

/**
 * Convert @p f to fp16 bits with round-to-nearest-even.  Values above
 * the finite fp16 range saturate to +/-65504 (not infinity) so that a
 * decoded scene never injects infs into the render; NaN maps to a
 * quiet fp16 NaN.
 */
inline std::uint16_t
floatToHalf(float f)
{
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    const std::uint32_t sign = (bits >> 16) & 0x8000u;
    std::uint32_t abs = bits & 0x7fffffffu;

    if (abs >= 0x7f800000u) {  // inf or NaN
        if (abs > 0x7f800000u)
            return static_cast<std::uint16_t>(sign | 0x7e00u);  // qNaN
        return static_cast<std::uint16_t>(sign | 0x7bffu);  // inf -> 65504
    }
    if (abs >= 0x477ff000u) {
        // Rounds to >= 2^16: saturate to the largest finite half.
        return static_cast<std::uint16_t>(sign | 0x7bffu);
    }
    if (abs < 0x38800000u) {  // subnormal half (|f| < 2^-14) or zero
        if (abs < 0x33000000u)  // < 2^-25: rounds to zero
            return static_cast<std::uint16_t>(sign);
        // Add the implicit leading 1, shift into the 10-bit subnormal
        // mantissa position, round to nearest even.  The 24-bit
        // significand sits at 2^23; the subnormal unit is 2^-24, so
        // the drop count is exactly 126 - exponent field (14..24).
        const int shift = 126 - static_cast<int>(abs >> 23);
        std::uint32_t mant = (abs & 0x007fffffu) | 0x00800000u;
        const std::uint32_t drop = static_cast<std::uint32_t>(shift);
        const std::uint32_t halfway = 1u << (drop - 1);
        const std::uint32_t rest = mant & ((1u << drop) - 1u);
        mant >>= drop;
        if (rest > halfway || (rest == halfway && (mant & 1u)))
            ++mant;
        return static_cast<std::uint16_t>(sign | mant);
    }
    // Normal range: rebias exponent (127 -> 15), round mantissa to 10
    // bits with round-to-nearest-even; mantissa carry bumps the
    // exponent naturally.
    std::uint32_t half = ((abs - 0x38000000u) >> 13);
    const std::uint32_t rest = abs & 0x1fffu;
    if (rest > 0x1000u || (rest == 0x1000u && (half & 1u)))
        ++half;
    return static_cast<std::uint16_t>(sign | half);
}

namespace half_detail {
/** fp16 exponent field once the magnitude bits sit at float position. */
inline constexpr std::uint32_t kExpMask = 0x1fu << 23;
/** Exponent rebias 15 -> 127 for normal halves. */
inline constexpr std::uint32_t kNormalBias = (127u - 15u) << 23;
/** Extra rebias taking the all-ones half exponent to the float one. */
inline constexpr std::uint32_t kInfNanBias = (128u - 16u) << 23;
/** Bits of 2^-14, the smallest normal half. */
inline constexpr std::uint32_t kMinNormalBits = 113u << 23;
} // namespace half_detail

/**
 * Convert fp16 bits to float (exact; every half is representable).
 *
 * Branch-free: the magnitude is shifted into float position and
 * rebiased; the all-ones exponent (inf / NaN, payload kept bit for
 * bit, signalling NaNs included) gets the extra rebias, and a zero
 * exponent (zero / subnormal) is renormalized by the exact float
 * subtraction (2^-14 * 1.m) - 2^-14 = m * 2^-24.  Masks pick the case.
 */
inline float
halfToFloat(std::uint16_t h)
{
    using namespace half_detail;
    const std::uint32_t em = static_cast<std::uint32_t>(h & 0x7fffu) << 13;
    const std::uint32_t exp = em & kExpMask;
    const std::uint32_t special =
        0u - static_cast<std::uint32_t>(exp == kExpMask);
    const std::uint32_t tiny = 0u - static_cast<std::uint32_t>(exp == 0);
    const std::uint32_t normal = em + kNormalBias + (special & kInfNanBias);
    const std::uint32_t subnormal = std::bit_cast<std::uint32_t>(
        std::bit_cast<float>(em + kMinNormalBits) -
        std::bit_cast<float>(kMinNormalBits));
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
    return std::bit_cast<float>(sign | (normal & ~tiny) | (subnormal & tiny));
}

namespace simd {

/**
 * halfToFloat on kWidth lanes: lane i of @p h holds fp16 bits (high
 * half zero); lane i of the result is halfToFloat of them, bit for
 * bit, on every backend.
 */
inline FloatV
halfToFloat(const IntV &h)
{
    using namespace half_detail;
    const IntV em = (h & IntV(0x7fff)).shiftLeft<13>();
    const IntV exp = em & IntV(kExpMask);
    const IntV normal = em + IntV(kNormalBias);
    const IntV special = normal + IntV(kInfNanBias);
    const IntV subnormal = bitcastToInt(
        bitcastToFloat(em + IntV(kMinNormalBits)) -
        bitcastToFloat(IntV(kMinNormalBits)));
    IntV bits = selectInt(cmpEq(exp, IntV(kExpMask)), special, normal);
    bits = selectInt(cmpEq(exp, IntV(0)), subnormal, bits);
    return bitcastToFloat(bits | (h & IntV(0x8000)).shiftLeft<16>());
}

/** Convert the 8 fp16 values at @p in to floats at @p out. */
inline void
halfToFloat8(const std::uint16_t *in, float *out)
{
    static_assert(8 % kWidth == 0, "8 halves must fill whole vectors");
    for (int i = 0; i < 8; i += kWidth)
        halfToFloat(IntV::loadU16(in + i)).store(out + i);
}

} // namespace simd

} // namespace gcc3d

#endif // GCC3D_GSMATH_HALF_H
