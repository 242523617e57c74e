/** @file Tests for gsmath fixed-point and fp16 conversion layers. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "gsmath/fixed_point.h"
#include "gsmath/half.h"

namespace gcc3d {
namespace {

TEST(FixedPoint, RawRangeAndOne)
{
    EXPECT_EQ(AlphaFixed::kOne, 1 << 20);
    EXPECT_EQ(UnitFixed::kOne, 1 << 15);
    // Q1.15 raw values span exactly the int16 range.
    EXPECT_EQ(UnitFixed::kMaxRaw, 32767);
    EXPECT_EQ(UnitFixed::kMinRaw, -32768);
}

TEST(FixedPoint, ExactValuesRoundTrip)
{
    // Multiples of the step are representable exactly, so
    // float -> fixed -> float is the identity on them.
    for (float v : {0.0f, 0.5f, -0.5f, 0.25f, -0.96875f,
                    1.0f - 1.0f / 32768.0f, -1.0f}) {
        EXPECT_EQ(UnitFixed::fromFloat(v).toFloat(), v) << v;
    }
    // And conversion is idempotent everywhere: re-encoding a decoded
    // value changes nothing (the property the v2 container leans on).
    std::mt19937 rng(7);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    for (int i = 0; i < 1000; ++i) {
        float once = UnitFixed::fromFloat(u(rng)).toFloat();
        EXPECT_EQ(UnitFixed::fromFloat(once).toFloat(), once);
    }
}

TEST(FixedPoint, QuantizationErrorBound)
{
    // Round-half-away: error <= half a step inside the range.
    const float step = 1.0f / 32768.0f;
    std::mt19937 rng(11);
    std::uniform_real_distribution<float> u(-0.9999f, 0.9999f);
    for (int i = 0; i < 10000; ++i) {
        float v = u(rng);
        float back = UnitFixed::fromFloat(v).toFloat();
        EXPECT_LE(std::abs(back - v), 0.5f * step + 1e-7f) << v;
    }
    // The +1.0 edge saturates at 1 - 2^-15: a full step, never more.
    EXPECT_EQ(UnitFixed::fromFloat(1.0f).raw(), 32767);
    EXPECT_LE(std::abs(UnitFixed::fromFloat(1.0f).toFloat() - 1.0f),
              step);
}

TEST(FixedPoint, SaturatesOutOfRange)
{
    EXPECT_EQ(UnitFixed::fromFloat(2.5f).raw(), UnitFixed::kMaxRaw);
    EXPECT_EQ(UnitFixed::fromFloat(-7.0f).raw(), UnitFixed::kMinRaw);
    EXPECT_EQ(AlphaFixed::fromFloat(1e9f).raw(), AlphaFixed::kMaxRaw);
    EXPECT_EQ(AlphaFixed::fromFloat(-1e9f).raw(), AlphaFixed::kMinRaw);

    // Arithmetic saturates too, like a hardware accumulator.
    UnitFixed big = UnitFixed::fromFloat(0.9f);
    EXPECT_EQ((big + big).raw(), UnitFixed::kMaxRaw);
    UnitFixed neg = UnitFixed::fromFloat(-0.9f);
    EXPECT_EQ((neg + neg).raw(), UnitFixed::kMinRaw);
}

TEST(FixedPoint, MultiplyMatchesFloatWithinStep)
{
    std::mt19937 rng(13);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    for (int i = 0; i < 1000; ++i) {
        float a = u(rng), b = u(rng);
        float fx = (UnitFixed::fromFloat(a) * UnitFixed::fromFloat(b))
                       .toFloat();
        // One step of input quantization each plus the product shift.
        EXPECT_NEAR(fx, a * b, 3.0f / 32768.0f);
    }
}

TEST(Half, ExactValuesRoundTrip)
{
    for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -0.25f, 1024.0f,
                    65504.0f, -65504.0f, 6.103515625e-5f}) {
        EXPECT_EQ(halfToFloat(floatToHalf(v)), v) << v;
    }
    // Signed zero survives.
    EXPECT_EQ(floatToHalf(-0.0f), 0x8000u);
}

TEST(Half, RelativeErrorWithinHalfUlp)
{
    std::mt19937 rng(17);
    std::uniform_real_distribution<float> u(-4.0f, 4.0f);
    for (int i = 0; i < 10000; ++i) {
        float v = u(rng);
        float back = halfToFloat(floatToHalf(v));
        // 11-bit significand: relative error <= 2^-11 for normals.
        EXPECT_NEAR(back, v, std::abs(v) * 4.9e-4f + 6.0e-8f) << v;
    }
}

TEST(Half, SaturatesInsteadOfOverflowing)
{
    // The v2 container must never inject infs into the renderer.
    EXPECT_EQ(halfToFloat(floatToHalf(1e9f)), 65504.0f);
    EXPECT_EQ(halfToFloat(floatToHalf(-1e9f)), -65504.0f);
    EXPECT_EQ(halfToFloat(floatToHalf(
                  std::numeric_limits<float>::infinity())),
              65504.0f);
}

TEST(Half, SubnormalsAndNan)
{
    // Smallest positive fp16 subnormal.
    const float tiny = 5.9604644775390625e-8f;
    EXPECT_EQ(halfToFloat(floatToHalf(tiny)), tiny);
    // Values below half the smallest subnormal flush to zero.
    EXPECT_EQ(halfToFloat(floatToHalf(1e-9f)), 0.0f);
    // NaN stays NaN (quieted), never becomes a number.
    float nan_back = halfToFloat(
        floatToHalf(std::numeric_limits<float>::quiet_NaN()));
    EXPECT_TRUE(std::isnan(nan_back));
}

/**
 * Oracle for the exhaustive checks: the original branchy
 * normalize-by-loop conversion, kept here verbatim so the branch-free
 * scalar and lane forms are held to it on every bit pattern.
 */
float
referenceHalfToFloat(std::uint16_t h)
{
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
    const std::uint32_t exp = (h >> 10) & 0x1fu;
    std::uint32_t mant = h & 0x3ffu;

    std::uint32_t bits;
    if (exp == 0) {
        if (mant == 0) {
            bits = sign;  // +/- zero
        } else {
            // Subnormal half: normalize into a float exponent.
            int e = -1;
            do {
                ++e;
                mant <<= 1;
            } while ((mant & 0x400u) == 0);
            bits = sign | static_cast<std::uint32_t>(127 - 15 - e) << 23 |
                   ((mant & 0x3ffu) << 13);
        }
    } else if (exp == 0x1f) {
        bits = sign | 0x7f800000u | (mant << 13);  // inf / NaN
    } else {
        bits = sign | ((exp + 127 - 15) << 23) | (mant << 13);
    }
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

TEST(Half, ScalarDecodeMatchesReferenceOnAllPatterns)
{
    // Compared as bits: NaN payloads (signalling ones included) and
    // signed zeros must survive exactly.
    int mismatches = 0;
    for (std::uint32_t h = 0; h <= 0xffffu; ++h) {
        const auto bits = std::bit_cast<std::uint32_t>(
            halfToFloat(static_cast<std::uint16_t>(h)));
        const auto want = std::bit_cast<std::uint32_t>(
            referenceHalfToFloat(static_cast<std::uint16_t>(h)));
        if (bits != want && ++mismatches <= 8)
            ADD_FAILURE() << std::hex << "half 0x" << h << ": got 0x"
                          << bits << ", want 0x" << want;
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Half, LaneDecodeMatchesReferenceOnAllPatterns)
{
    // Every pattern once through each lane form: the per-vector
    // conversion and the 8-wide helper the .gsc decoder calls.
    std::vector<std::uint16_t> in(0x10000);
    for (std::uint32_t h = 0; h <= 0xffffu; ++h)
        in[h] = static_cast<std::uint16_t>(h);
    std::vector<float> lanes(in.size()), eights(in.size());
    for (std::size_t i = 0; i < in.size(); i += simd::kWidth)
        simd::halfToFloat(simd::IntV::loadU16(in.data() + i))
            .store(lanes.data() + i);
    for (std::size_t i = 0; i < in.size(); i += 8)
        simd::halfToFloat8(in.data() + i, eights.data() + i);

    int mismatches = 0;
    for (std::uint32_t h = 0; h <= 0xffffu; ++h) {
        const auto want = std::bit_cast<std::uint32_t>(
            referenceHalfToFloat(static_cast<std::uint16_t>(h)));
        const auto lane = std::bit_cast<std::uint32_t>(lanes[h]);
        const auto eight = std::bit_cast<std::uint32_t>(eights[h]);
        if ((lane != want || eight != want) && ++mismatches <= 8)
            ADD_FAILURE() << std::hex << "half 0x" << h << ": lane 0x"
                          << lane << ", 8-wide 0x" << eight << ", want 0x"
                          << want << " (" << simd::backendName() << ")";
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Half, ConversionIsIdempotent)
{
    std::mt19937 rng(19);
    std::uniform_real_distribution<float> u(-100.0f, 100.0f);
    for (int i = 0; i < 1000; ++i) {
        float once = halfToFloat(floatToHalf(u(rng)));
        EXPECT_EQ(halfToFloat(floatToHalf(once)), once);
    }
}

} // namespace
} // namespace gcc3d
