/**
 * @file
 * Unit tests of the portable SIMD layer (src/gsmath/simd.h).
 *
 * The layer's contract is that every lane of every operation performs
 * the exact scalar IEEE-754 single-precision operation, so the tests
 * compare each vector op bit-for-bit against the scalar expression on
 * a battery of lanes that includes NaN, infinities, denormals and
 * signed zeros.  Whatever backend CMake selected (avx2 / sse2 / neon
 * / scalar) must pass identically; the CI scalar-fallback leg builds
 * with -DGCC3D_SIMD=off to keep that backend honest too.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "gsmath/simd.h"

namespace gcc3d {
namespace {

using simd::FloatV;
using simd::IntV;
using simd::kWidth;
using simd::MaskV;

constexpr float kInf = std::numeric_limits<float>::infinity();
const float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kDenorm = std::numeric_limits<float>::denorm_min();

/** Edge-case battery cycled through every lane position. */
std::vector<float>
specialValues()
{
    return {0.0f,      -0.0f,     1.0f,     -1.0f,   0.5f,
            -2.5f,     kInf,      -kInf,    kNan,    kDenorm,
            -kDenorm,  1e-38f,    3.3e38f,  -3.3e38f, 42.75f,
            -1234.5f,  1e-45f,    0.99f,    255.0f,  -255.0f};
}

/** Bitwise float equality (NaN == NaN as long as the bits agree). */
bool
bitEqual(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/**
 * Run @p vec_op / @p scalar_op over every kWidth-window of the
 * battery and require bit-identical lanes.
 */
template <typename VecOp, typename ScalarOp>
void
checkBinaryOp(const char *name, VecOp vec_op, ScalarOp scalar_op)
{
    std::vector<float> vals = specialValues();
    // Also pair every value against every other value.
    for (std::size_t ai = 0; ai < vals.size(); ++ai) {
        float a_lanes[kWidth > 0 ? kWidth : 1] = {};
        float b_lanes[kWidth > 0 ? kWidth : 1] = {};
        for (std::size_t bi = 0; bi < vals.size(); bi += kWidth) {
            for (int l = 0; l < kWidth; ++l) {
                a_lanes[l] = vals[ai];
                b_lanes[l] = vals[(bi + l) % vals.size()];
            }
            FloatV r = vec_op(FloatV::load(a_lanes),
                              FloatV::load(b_lanes));
            float out[kWidth];
            r.store(out);
            for (int l = 0; l < kWidth; ++l) {
                float want = scalar_op(a_lanes[l], b_lanes[l]);
                EXPECT_TRUE(bitEqual(out[l], want))
                    << name << " lane " << l << ": " << a_lanes[l]
                    << " op " << b_lanes[l] << " -> " << out[l]
                    << ", want " << want;
            }
        }
    }
}

TEST(Simd, BackendReportsAName)
{
    ASSERT_NE(simd::backendName(), nullptr);
    EXPECT_TRUE(kWidth == 4 || kWidth == 8) << simd::backendName();
}

TEST(Simd, ArithmeticLaneExact)
{
    checkBinaryOp(
        "add", [](FloatV a, FloatV b) { return a + b; },
        [](float a, float b) { return a + b; });
    checkBinaryOp(
        "sub", [](FloatV a, FloatV b) { return a - b; },
        [](float a, float b) { return a - b; });
    checkBinaryOp(
        "mul", [](FloatV a, FloatV b) { return a * b; },
        [](float a, float b) { return a * b; });
    checkBinaryOp(
        "div", [](FloatV a, FloatV b) { return a / b; },
        [](float a, float b) { return a / b; });
}

TEST(Simd, SqrtAndNegLaneExact)
{
    // Unary ops run through the binary harness with b ignored.
    checkBinaryOp(
        "sqrt", [](FloatV a, FloatV) { return simd::sqrt(a); },
        [](float a, float) { return std::sqrt(a); });
    checkBinaryOp(
        "neg", [](FloatV a, FloatV) { return simd::neg(a); },
        [](float a, float) { return -a; });
}

TEST(Simd, FloatToIntConversionsMatchScalarCasts)
{
    // In range, every lane equals the scalar cast of the scalar
    // rounding; values whose result does not fit an int32 (and NaN)
    // are left to the backend's conversion and not compared.
    std::vector<float> vals = specialValues();
    for (float v : {0.5f, -0.5f, 1.5f, -1.5f, 2.999999f, -2.999999f,
                    8388607.5f, -8388607.5f, 16777217.0f, 2147483520.0f,
                    -2147483648.0f, 123.0f, -7.25f})
        vals.push_back(v);
    auto fits = [](float r) {
        return r >= -2147483648.0f && r < 2147483648.0f;
    };
    for (std::size_t i = 0; i < vals.size(); i += kWidth) {
        float lanes[kWidth];
        for (int l = 0; l < kWidth; ++l)
            lanes[l] = vals[(i + l) % vals.size()];
        const FloatV x = FloatV::load(lanes);
        std::int32_t tr[kWidth], fl[kWidth], ce[kWidth];
        simd::truncToInt(x).store(tr);
        simd::floorToInt(x).store(fl);
        simd::ceilToInt(x).store(ce);
        for (int l = 0; l < kWidth; ++l) {
            const float v = lanes[l];
            if (fits(std::trunc(v))) {
                EXPECT_EQ(tr[l], static_cast<std::int32_t>(v)) << v;
            }
            if (fits(std::floor(v))) {
                EXPECT_EQ(fl[l], static_cast<std::int32_t>(std::floor(v)))
                    << v;
            }
            if (fits(std::ceil(v))) {
                EXPECT_EQ(ce[l], static_cast<std::int32_t>(std::ceil(v)))
                    << v;
            }
        }
    }
}

TEST(Simd, IntMinMaxAndSubtractLaneExact)
{
    const std::int32_t vals[] = {0, 1, -1, 7, -7, INT32_MAX, INT32_MIN,
                                 123456, -654321, 2};
    constexpr int n = sizeof(vals) / sizeof(vals[0]);
    for (int ai = 0; ai < n; ++ai) {
        std::int32_t a_lanes[kWidth], b_lanes[kWidth];
        for (int l = 0; l < kWidth; ++l) {
            a_lanes[l] = vals[ai];
            b_lanes[l] = vals[(ai + l + 1) % n];
        }
        const IntV a = IntV::load(a_lanes), b = IntV::load(b_lanes);
        std::int32_t mx[kWidth], mn[kWidth], df[kWidth];
        simd::maxInt(a, b).store(mx);
        simd::minInt(a, b).store(mn);
        (a - b).store(df);
        for (int l = 0; l < kWidth; ++l) {
            EXPECT_EQ(mx[l], std::max(a_lanes[l], b_lanes[l]));
            EXPECT_EQ(mn[l], std::min(a_lanes[l], b_lanes[l]));
            EXPECT_EQ(df[l], static_cast<std::int32_t>(
                                 static_cast<std::uint32_t>(a_lanes[l]) -
                                 static_cast<std::uint32_t>(b_lanes[l])));
        }
    }
}

TEST(Simd, MinMaxFollowTheSseRule)
{
    // min(a,b) = a < b ? a : b; max(a,b) = a > b ? a : b.  The second
    // operand wins on NaN and on equal-comparing values (so
    // min(+0,-0) is -0, the second operand).
    checkBinaryOp(
        "min",
        [](FloatV a, FloatV b) { return simd::min(a, b); },
        [](float a, float b) { return a < b ? a : b; });
    checkBinaryOp(
        "max",
        [](FloatV a, FloatV b) { return simd::max(a, b); },
        [](float a, float b) { return a > b ? a : b; });
}

TEST(Simd, ComparisonsLaneExactIncludingNaN)
{
    std::vector<float> vals = specialValues();
    float a_lanes[kWidth], b_lanes[kWidth];
    for (std::size_t ai = 0; ai < vals.size(); ++ai) {
        for (std::size_t bi = 0; bi < vals.size(); bi += kWidth) {
            for (int l = 0; l < kWidth; ++l) {
                a_lanes[l] = vals[ai];
                b_lanes[l] = vals[(bi + l) % vals.size()];
            }
            FloatV a = FloatV::load(a_lanes);
            FloatV b = FloatV::load(b_lanes);
            unsigned le = (a <= b).bits();
            unsigned lt = (a < b).bits();
            unsigned gt = (a > b).bits();
            unsigned ge = (a >= b).bits();
            unsigned eq = (a == b).bits();
            for (int l = 0; l < kWidth; ++l) {
                unsigned bit = 1u << l;
                EXPECT_EQ((le & bit) != 0, a_lanes[l] <= b_lanes[l]);
                EXPECT_EQ((lt & bit) != 0, a_lanes[l] < b_lanes[l]);
                EXPECT_EQ((gt & bit) != 0, a_lanes[l] > b_lanes[l]);
                EXPECT_EQ((ge & bit) != 0, a_lanes[l] >= b_lanes[l]);
                EXPECT_EQ((eq & bit) != 0, a_lanes[l] == b_lanes[l]);
            }
        }
    }
}

TEST(Simd, MaskOpsAndFirstN)
{
    for (int n = 0; n <= kWidth + 1; ++n) {
        MaskV m = MaskV::firstN(n);
        int clamped = n > kWidth ? kWidth : n;
        EXPECT_EQ(m.bits(), (clamped >= 32 ? ~0u : (1u << clamped) - 1u))
            << "firstN(" << n << ")";
        EXPECT_EQ(m.count(), clamped);
        EXPECT_EQ(m.any(), clamped > 0);
        EXPECT_EQ(m.none(), clamped == 0);
    }
    MaskV a = MaskV::firstN(kWidth / 2);
    MaskV b = MaskV::firstN(kWidth);
    EXPECT_EQ((a & b).bits(), a.bits());
    EXPECT_EQ((a | b).bits(), b.bits());
}

TEST(Simd, FromBitsRoundTripsEveryLanePattern)
{
    // Every lane pattern: fromBits is the exact inverse of bits(),
    // each lane is all-ones or all-zeros (so select/and/or see a
    // proper mask), and bits at or above kWidth are ignored.
    float ones[kWidth], zeros[kWidth];
    for (int l = 0; l < kWidth; ++l) {
        ones[l] = 1.0f;
        zeros[l] = 0.0f;
    }
    for (unsigned p = 0; p < (1u << kWidth); ++p) {
        const MaskV m = MaskV::fromBits(p);
        EXPECT_EQ(m.bits(), p) << "pattern " << p;
        EXPECT_EQ(MaskV::fromBits(p | (~0u << kWidth)).bits(), p)
            << "pattern " << p << " with high bits set";
        EXPECT_EQ((m & MaskV::firstN(kWidth)).bits(), p);
        EXPECT_EQ((m | MaskV::firstN(0)).bits(), p);
        const FloatV s = simd::select(m, FloatV::load(ones),
                                      FloatV::load(zeros));
        const IntV si = simd::selectInt(m, IntV(-1), IntV(0));
        for (int l = 0; l < kWidth; ++l) {
            const bool on = (p >> l) & 1u;
            EXPECT_EQ(s.lane(l), on ? 1.0f : 0.0f)
                << "pattern " << p << " lane " << l;
            EXPECT_EQ(si.lane(l), on ? -1 : 0)
                << "pattern " << p << " lane " << l;
        }
    }
}

TEST(Simd, SelectPicksPerLane)
{
    float a_lanes[kWidth], b_lanes[kWidth];
    for (int l = 0; l < kWidth; ++l) {
        a_lanes[l] = static_cast<float>(l + 1);
        b_lanes[l] = -static_cast<float>(l + 1);
    }
    for (int n = 0; n <= kWidth; ++n) {
        FloatV r = simd::select(MaskV::firstN(n),
                                FloatV::load(a_lanes),
                                FloatV::load(b_lanes));
        for (int l = 0; l < kWidth; ++l)
            EXPECT_EQ(r.lane(l), l < n ? a_lanes[l] : b_lanes[l]);
    }
}

TEST(Simd, LoadStoreTails)
{
    float src[kWidth];
    for (int l = 0; l < kWidth; ++l)
        src[l] = static_cast<float>(10 + l);
    for (int n = 0; n <= kWidth; ++n) {
        FloatV v = FloatV::loadPartial(src, n);
        for (int l = 0; l < kWidth; ++l)
            EXPECT_EQ(v.lane(l), l < n ? src[l] : 0.0f)
                << "loadPartial n=" << n << " lane " << l;

        float dst[kWidth];
        for (int l = 0; l < kWidth; ++l)
            dst[l] = -1.0f;
        FloatV::load(src).storePartial(dst, n);
        for (int l = 0; l < kWidth; ++l)
            EXPECT_EQ(dst[l], l < n ? src[l] : -1.0f)
                << "storePartial n=" << n << " lane " << l;
    }
}

TEST(Simd, IotaFromMatchesScalarCast)
{
    for (int x0 : {0, 1, 7, 1023, -5, 1 << 20}) {
        FloatV v = FloatV::iotaFrom(x0);
        for (int l = 0; l < kWidth; ++l)
            EXPECT_EQ(v.lane(l), static_cast<float>(x0 + l));
    }
}

TEST(Simd, IntOpsLaneExact)
{
    const std::int32_t vals[] = {0, 1, -1, 127, -128,
                                 std::numeric_limits<std::int32_t>::max(),
                                 std::numeric_limits<std::int32_t>::min(),
                                 0x7f800000, static_cast<std::int32_t>(
                                                 0x80000000u)};
    std::int32_t a_lanes[kWidth], b_lanes[kWidth];
    const int nv = static_cast<int>(std::size(vals));
    for (int ai = 0; ai < nv; ++ai) {
        for (int bi = 0; bi < nv; bi += kWidth) {
            for (int l = 0; l < kWidth; ++l) {
                a_lanes[l] = vals[ai];
                b_lanes[l] = vals[(bi + l) % nv];
            }
            IntV a = IntV::load(a_lanes);
            IntV b = IntV::load(b_lanes);
            std::int32_t out[kWidth];

            (a + b).store(out);
            for (int l = 0; l < kWidth; ++l)
                EXPECT_EQ(out[l],
                          static_cast<std::int32_t>(
                              static_cast<std::uint32_t>(a_lanes[l]) +
                              static_cast<std::uint32_t>(b_lanes[l])));

            (a | b).store(out);
            for (int l = 0; l < kWidth; ++l)
                EXPECT_EQ(out[l], a_lanes[l] | b_lanes[l]);

            (a ^ b).store(out);
            for (int l = 0; l < kWidth; ++l)
                EXPECT_EQ(out[l], a_lanes[l] ^ b_lanes[l]);

            (a & b).store(out);
            for (int l = 0; l < kWidth; ++l)
                EXPECT_EQ(out[l], a_lanes[l] & b_lanes[l]);

            a.shiftLeft<3>().store(out);
            for (int l = 0; l < kWidth; ++l)
                EXPECT_EQ(out[l],
                          static_cast<std::int32_t>(
                              static_cast<std::uint32_t>(a_lanes[l])
                              << 3));

            a.shiftRightArith<31>().store(out);
            for (int l = 0; l < kWidth; ++l)
                EXPECT_EQ(out[l], a_lanes[l] >> 31);

            unsigned eq = simd::cmpEq(a, b).bits();
            for (int l = 0; l < kWidth; ++l)
                EXPECT_EQ((eq & (1u << l)) != 0,
                          a_lanes[l] == b_lanes[l]);
        }
    }
}

TEST(Simd, BitcastsRoundTrip)
{
    std::vector<float> vals = specialValues();
    float lanes[kWidth];
    for (std::size_t i = 0; i < vals.size(); i += kWidth) {
        for (int l = 0; l < kWidth; ++l)
            lanes[l] = vals[(i + l) % vals.size()];
        FloatV f = FloatV::load(lanes);
        FloatV back = simd::bitcastToFloat(simd::bitcastToInt(f));
        float out[kWidth];
        back.store(out);
        for (int l = 0; l < kWidth; ++l)
            EXPECT_TRUE(bitEqual(out[l], lanes[l])) << "lane " << l;
    }
}

TEST(Simd, RoundToIntTiesToEven)
{
    const float vals[] = {0.5f, 1.5f, 2.5f, -0.5f, -1.5f, -2.5f,
                          0.49f, 0.51f, 3.0f, -3.0f, 1e6f, -1e6f};
    float lanes[kWidth];
    for (std::size_t i = 0; i < std::size(vals); i += kWidth) {
        for (int l = 0; l < kWidth; ++l)
            lanes[l] = vals[(i + l) % std::size(vals)];
        std::int32_t out[kWidth];
        simd::roundToInt(FloatV::load(lanes)).store(out);
        for (int l = 0; l < kWidth; ++l)
            EXPECT_EQ(out[l], static_cast<std::int32_t>(
                                  std::nearbyintf(lanes[l])))
                << "round(" << lanes[l] << ")";
    }
}

TEST(Simd, ToFloatIsExactConversion)
{
    std::int32_t lanes[kWidth];
    for (int l = 0; l < kWidth; ++l)
        lanes[l] = (l + 1) * 12345 - 7;
    FloatV f = simd::toFloat(IntV::load(lanes));
    for (int l = 0; l < kWidth; ++l)
        EXPECT_EQ(f.lane(l), static_cast<float>(lanes[l]));
}

/**
 * expExact against std::exp on the float bit patterns first, first +
 * stride, ... up to last inclusive, kWidth patterns per call; returns
 * how many lanes differ in any bit (the first few are reported).
 */
std::uint64_t
expExactMismatches(std::uint32_t first, std::uint32_t last,
                   std::uint32_t stride)
{
    std::uint64_t bad = 0;
    float in[kWidth] = {}, out[kWidth] = {};
    for (std::uint64_t b = first; b <= last;) {
        int n = 0;
        for (; n < kWidth && b <= last; ++n, b += stride)
            in[n] = std::bit_cast<float>(static_cast<std::uint32_t>(b));
        for (int l = n; l < kWidth; ++l)
            in[l] = 0.0f;
        simd::expExact(FloatV::load(in)).store(out);
        for (int l = 0; l < n; ++l) {
            const float want = std::exp(in[l]);
            if (bitEqual(out[l], want))
                continue;
            if (++bad <= 5)
                ADD_FAILURE() << "expExact(0x" << std::hex
                              << std::bit_cast<std::uint32_t>(in[l])
                              << ") = 0x"
                              << std::bit_cast<std::uint32_t>(out[l])
                              << ", std::exp gives 0x"
                              << std::bit_cast<std::uint32_t>(want);
        }
    }
    return bad;
}

TEST(Simd, ExpExactMatchesStdExpOnTheFalloffDomain)
{
    // The raster kernels evaluate exp(-q/2) with -q/2 in [-5.6, 0]:
    // every float in [-8, 0] (bit patterns -0 .. -8, then +0), then a
    // stride-61 walk over all 2^32 patterns for the rest of the line,
    // infinities and NaN payloads (it mixes lanes on and off the
    // vector path in one call).
    EXPECT_EQ(expExactMismatches(0x80000000u,
                                 std::bit_cast<std::uint32_t>(-8.0f), 1),
              0u);
    EXPECT_EQ(expExactMismatches(0u, 0u, 1), 0u);
    EXPECT_EQ(expExactMismatches(0u, 0xffffffffu, 61), 0u);
}

TEST(Simd, ExpExactComputesTheSelectedLanes)
{
    // A lane mask limits the lanes that must hold std::exp; the
    // battery puts lanes on and off the vector path under each mask.
    const std::vector<float> vals = specialValues();
    float in[kWidth] = {}, out[kWidth] = {};
    for (std::size_t first = 0; first < vals.size(); ++first) {
        for (int l = 0; l < kWidth; ++l)
            in[l] = vals[(first + l) % vals.size()];
        for (unsigned lanes = 0; lanes < (1u << kWidth); ++lanes) {
            simd::expExact(FloatV::load(in), lanes).store(out);
            for (int l = 0; l < kWidth; ++l) {
                if (lanes >> l & 1) {
                    EXPECT_TRUE(bitEqual(out[l], std::exp(in[l])))
                        << "exp(" << in[l] << "), lanes " << lanes;
                }
            }
        }
    }
}

// Every float: ~25 s in Release.  CI's auto leg runs it with
// --gtest_also_run_disabled_tests, so each push proves the vector
// form against the runner's own glibc.
TEST(Simd, DISABLED_ExpExactMatchesStdExpOnEveryFloat)
{
    EXPECT_EQ(expExactMismatches(0u, 0xffffffffu, 1), 0u);
}

} // namespace
} // namespace gcc3d
