/**
 * @file
 * Portable fixed-width SIMD layer for the rasterization hot loops.
 *
 * One backend is selected at compile time (CMake's `GCC3D_SIMD`
 * option chooses the flags; the preprocessor picks the widest ISA
 * those flags enable):
 *
 *  - AVX2:  8 x f32 lanes (`__AVX2__`),
 *  - SSE2:  4 x f32 lanes (`__SSE2__` — the x86-64 baseline),
 *  - NEON:  4 x f32 lanes (`__ARM_NEON`),
 *  - scalar fallback: 4 x f32 lanes of plain C++ (always correct;
 *    forced with `-DGCC3D_SIMD=off`, i.e. `GCC3D_SIMD_FORCE_SCALAR`).
 *
 * Semantics contract (what tests/test_simd.cc locks in, backend by
 * backend): every lane of every arithmetic/comparison op performs the
 * *exact* scalar IEEE-754 single-precision operation — `FloatV`
 * addition is lane-wise `float +`, `operator<=` is lane-wise `<=`
 * (false on NaN), and so on.  This is what lets the renderers run
 * their per-pixel op sequence W pixels at a time and stay
 * bit-identical to the scalar reference: a lane is just the scalar
 * program at a different x.
 *
 * The only deliberately non-trivial semantics:
 *
 *  - min/max follow the SSE rule `min(a,b) = a < b ? a : b` (the
 *    second operand wins on NaN and on equal-valued ±0); NEON and
 *    the scalar fallback implement the same rule via select, so all
 *    backends agree bit-for-bit.
 *  - roundToInt rounds half to even (the hardware default mode),
 *    matching `std::nearbyintf` under the default environment.
 *  - simdExp (below) is an approximation with its own contract.
 */

#ifndef GCC3D_GSMATH_SIMD_H
#define GCC3D_GSMATH_SIMD_H

#include <bit>
#include <cmath>
#include <cstdint>

#if !defined(GCC3D_SIMD_FORCE_SCALAR) && defined(__AVX2__)
#define GCC3D_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(GCC3D_SIMD_FORCE_SCALAR) && \
    (defined(__SSE2__) || defined(_M_X64) || \
     (defined(_M_IX86_FP) && _M_IX86_FP >= 2))
#define GCC3D_SIMD_SSE2 1
#include <emmintrin.h>
#elif !defined(GCC3D_SIMD_FORCE_SCALAR) && defined(__ARM_NEON) && \
    defined(__aarch64__)
// AArch64 only: the layer uses vcvtnq/vaddvq, which 32-bit NEON lacks.
#define GCC3D_SIMD_NEON 1
#include <arm_neon.h>
#else
#define GCC3D_SIMD_SCALAR 1
#endif

namespace gcc3d {
namespace simd {

#if defined(GCC3D_SIMD_AVX2)
inline constexpr int kWidth = 8;
#else
inline constexpr int kWidth = 4;
#endif

/** Human-readable backend id ("avx2" / "sse2" / "neon" / "scalar"). */
inline const char *
backendName()
{
#if defined(GCC3D_SIMD_AVX2)
    return "avx2";
#elif defined(GCC3D_SIMD_SSE2)
    return "sse2";
#elif defined(GCC3D_SIMD_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

struct FloatV;
struct IntV;

// =====================================================================
// MaskV: the result of lane-wise comparisons.  Each lane is all-ones
// (true) or all-zeros (false); bits() packs lane i into bit i.
// =====================================================================
struct MaskV
{
#if defined(GCC3D_SIMD_AVX2)
    __m256 m;
#elif defined(GCC3D_SIMD_SSE2)
    __m128 m;
#elif defined(GCC3D_SIMD_NEON)
    uint32x4_t m;
#else
    std::uint32_t m[4];
#endif

    /** Mask with lanes [0, n) true and the rest false (n clamped). */
    static MaskV
    firstN(int n)
    {
#if defined(GCC3D_SIMD_AVX2)
        const __m256i iota =
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        return {_mm256_castsi256_ps(
            _mm256_cmpgt_epi32(_mm256_set1_epi32(n), iota))};
#elif defined(GCC3D_SIMD_SSE2)
        const __m128i iota = _mm_setr_epi32(0, 1, 2, 3);
        return {_mm_castsi128_ps(
            _mm_cmpgt_epi32(_mm_set1_epi32(n), iota))};
#elif defined(GCC3D_SIMD_NEON)
        const std::int32_t iota[4] = {0, 1, 2, 3};
        int32x4_t iv = vld1q_s32(iota);
        return {vcltq_s32(iv, vdupq_n_s32(n))};
#else
        MaskV r;
        for (int i = 0; i < 4; ++i)
            r.m[i] = i < n ? 0xffffffffu : 0u;
        return r;
#endif
    }

    /** Lane i true exactly when bit i of @p b is set (the inverse of
     *  bits(); bits at and above kWidth are ignored). */
    static MaskV
    fromBits(unsigned b)
    {
#if defined(GCC3D_SIMD_AVX2)
        const __m256i lane_bit =
            _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        return {_mm256_castsi256_ps(_mm256_cmpeq_epi32(
            _mm256_and_si256(
                _mm256_set1_epi32(static_cast<int>(b)), lane_bit),
            lane_bit))};
#elif defined(GCC3D_SIMD_SSE2)
        const __m128i lane_bit = _mm_setr_epi32(1, 2, 4, 8);
        return {_mm_castsi128_ps(_mm_cmpeq_epi32(
            _mm_and_si128(_mm_set1_epi32(static_cast<int>(b)), lane_bit),
            lane_bit))};
#elif defined(GCC3D_SIMD_NEON)
        const std::uint32_t lane_bit[4] = {1, 2, 4, 8};
        return {vtstq_u32(vdupq_n_u32(b), vld1q_u32(lane_bit))};
#else
        MaskV r;
        for (int i = 0; i < 4; ++i)
            r.m[i] = (b >> i) & 1u ? 0xffffffffu : 0u;
        return r;
#endif
    }

    /** Lane i -> bit i of the result. */
    unsigned
    bits() const
    {
#if defined(GCC3D_SIMD_AVX2)
        return static_cast<unsigned>(_mm256_movemask_ps(m));
#elif defined(GCC3D_SIMD_SSE2)
        return static_cast<unsigned>(_mm_movemask_ps(m));
#elif defined(GCC3D_SIMD_NEON)
        // Collapse each lane to its bit: shift lane i's MSB down and
        // accumulate.
        const std::int32_t shifts[4] = {0, 1, 2, 3};
        uint32x4_t msb = vshrq_n_u32(m, 31);
        uint32x4_t sh = vshlq_u32(msb, vld1q_s32(shifts));
        return vaddvq_u32(sh);
#else
        unsigned r = 0;
        for (int i = 0; i < 4; ++i)
            if (m[i])
                r |= 1u << i;
        return r;
#endif
    }

    bool any() const { return bits() != 0; }
    bool none() const { return bits() == 0; }
    int count() const { return std::popcount(bits()); }

    MaskV
    operator&(const MaskV &o) const
    {
#if defined(GCC3D_SIMD_AVX2)
        return {_mm256_and_ps(m, o.m)};
#elif defined(GCC3D_SIMD_SSE2)
        return {_mm_and_ps(m, o.m)};
#elif defined(GCC3D_SIMD_NEON)
        return {vandq_u32(m, o.m)};
#else
        MaskV r;
        for (int i = 0; i < 4; ++i)
            r.m[i] = m[i] & o.m[i];
        return r;
#endif
    }

    MaskV
    operator|(const MaskV &o) const
    {
#if defined(GCC3D_SIMD_AVX2)
        return {_mm256_or_ps(m, o.m)};
#elif defined(GCC3D_SIMD_SSE2)
        return {_mm_or_ps(m, o.m)};
#elif defined(GCC3D_SIMD_NEON)
        return {vorrq_u32(m, o.m)};
#else
        MaskV r;
        for (int i = 0; i < 4; ++i)
            r.m[i] = m[i] | o.m[i];
        return r;
#endif
    }
};

// =====================================================================
// FloatV: kWidth packed f32 lanes.
// =====================================================================
struct FloatV
{
#if defined(GCC3D_SIMD_AVX2)
    __m256 v;
#elif defined(GCC3D_SIMD_SSE2)
    __m128 v;
#elif defined(GCC3D_SIMD_NEON)
    float32x4_t v;
#else
    float v[4];
#endif

    FloatV() : FloatV(0.0f) {}

    /** Broadcast @p x to every lane. */
    explicit FloatV(float x)
    {
#if defined(GCC3D_SIMD_AVX2)
        v = _mm256_set1_ps(x);
#elif defined(GCC3D_SIMD_SSE2)
        v = _mm_set1_ps(x);
#elif defined(GCC3D_SIMD_NEON)
        v = vdupq_n_f32(x);
#else
        for (int i = 0; i < 4; ++i)
            v[i] = x;
#endif
    }

    /** Unaligned load of kWidth floats. */
    static FloatV
    load(const float *p)
    {
        FloatV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_loadu_ps(p);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_loadu_ps(p);
#elif defined(GCC3D_SIMD_NEON)
        r.v = vld1q_f32(p);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = p[i];
#endif
        return r;
    }

    /** Load lanes [0, n) from @p p; lanes >= n are 0.0f. */
    static FloatV
    loadPartial(const float *p, int n)
    {
        float buf[kWidth] = {};
        if (n > kWidth)
            n = kWidth;
        for (int i = 0; i < n; ++i)
            buf[i] = p[i];
        return load(buf);
    }

    /** Lane i = float(x0 + i); exact for |x0 + i| < 2^24. */
    static FloatV iotaFrom(int x0);

    /** Unaligned store of all kWidth lanes. */
    void
    store(float *p) const
    {
#if defined(GCC3D_SIMD_AVX2)
        _mm256_storeu_ps(p, v);
#elif defined(GCC3D_SIMD_SSE2)
        _mm_storeu_ps(p, v);
#elif defined(GCC3D_SIMD_NEON)
        vst1q_f32(p, v);
#else
        for (int i = 0; i < 4; ++i)
            p[i] = v[i];
#endif
    }

    /** Store lanes [0, n) only; memory beyond is untouched. */
    void
    storePartial(float *p, int n) const
    {
        float buf[kWidth];
        store(buf);
        if (n > kWidth)
            n = kWidth;
        for (int i = 0; i < n; ++i)
            p[i] = buf[i];
    }

    float
    lane(int i) const
    {
        float buf[kWidth];
        store(buf);
        return buf[i];
    }

    FloatV
    operator+(const FloatV &o) const
    {
        FloatV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_add_ps(v, o.v);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_add_ps(v, o.v);
#elif defined(GCC3D_SIMD_NEON)
        r.v = vaddq_f32(v, o.v);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = v[i] + o.v[i];
#endif
        return r;
    }

    FloatV
    operator-(const FloatV &o) const
    {
        FloatV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_sub_ps(v, o.v);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_sub_ps(v, o.v);
#elif defined(GCC3D_SIMD_NEON)
        r.v = vsubq_f32(v, o.v);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = v[i] - o.v[i];
#endif
        return r;
    }

    FloatV
    operator*(const FloatV &o) const
    {
        FloatV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_mul_ps(v, o.v);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_mul_ps(v, o.v);
#elif defined(GCC3D_SIMD_NEON)
        r.v = vmulq_f32(v, o.v);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = v[i] * o.v[i];
#endif
        return r;
    }

    FloatV
    operator/(const FloatV &o) const
    {
        FloatV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_div_ps(v, o.v);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_div_ps(v, o.v);
#elif defined(GCC3D_SIMD_NEON)
        r.v = vdivq_f32(v, o.v);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = v[i] / o.v[i];
#endif
        return r;
    }

    MaskV
    operator<=(const FloatV &o) const
    {
#if defined(GCC3D_SIMD_AVX2)
        return {_mm256_cmp_ps(v, o.v, _CMP_LE_OQ)};
#elif defined(GCC3D_SIMD_SSE2)
        return {_mm_cmple_ps(v, o.v)};
#elif defined(GCC3D_SIMD_NEON)
        return {vcleq_f32(v, o.v)};
#else
        MaskV r;
        for (int i = 0; i < 4; ++i)
            r.m[i] = v[i] <= o.v[i] ? 0xffffffffu : 0u;
        return r;
#endif
    }

    MaskV
    operator<(const FloatV &o) const
    {
#if defined(GCC3D_SIMD_AVX2)
        return {_mm256_cmp_ps(v, o.v, _CMP_LT_OQ)};
#elif defined(GCC3D_SIMD_SSE2)
        return {_mm_cmplt_ps(v, o.v)};
#elif defined(GCC3D_SIMD_NEON)
        return {vcltq_f32(v, o.v)};
#else
        MaskV r;
        for (int i = 0; i < 4; ++i)
            r.m[i] = v[i] < o.v[i] ? 0xffffffffu : 0u;
        return r;
#endif
    }

    MaskV operator>(const FloatV &o) const { return o < *this; }
    MaskV operator>=(const FloatV &o) const { return o <= *this; }

    MaskV
    operator==(const FloatV &o) const
    {
#if defined(GCC3D_SIMD_AVX2)
        return {_mm256_cmp_ps(v, o.v, _CMP_EQ_OQ)};
#elif defined(GCC3D_SIMD_SSE2)
        return {_mm_cmpeq_ps(v, o.v)};
#elif defined(GCC3D_SIMD_NEON)
        return {vceqq_f32(v, o.v)};
#else
        MaskV r;
        for (int i = 0; i < 4; ++i)
            r.m[i] = v[i] == o.v[i] ? 0xffffffffu : 0u;
        return r;
#endif
    }
};

// =====================================================================
// IntV: kWidth packed i32 lanes (bit manipulation + conversions).
// =====================================================================
struct IntV
{
#if defined(GCC3D_SIMD_AVX2)
    __m256i v;
#elif defined(GCC3D_SIMD_SSE2)
    __m128i v;
#elif defined(GCC3D_SIMD_NEON)
    int32x4_t v;
#else
    std::int32_t v[4];
#endif

    IntV() : IntV(0) {}

    explicit IntV(std::int32_t x)
    {
#if defined(GCC3D_SIMD_AVX2)
        v = _mm256_set1_epi32(x);
#elif defined(GCC3D_SIMD_SSE2)
        v = _mm_set1_epi32(x);
#elif defined(GCC3D_SIMD_NEON)
        v = vdupq_n_s32(x);
#else
        for (int i = 0; i < 4; ++i)
            v[i] = x;
#endif
    }

    /** Lane i = i. */
    static IntV
    iota()
    {
        IntV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_setr_epi32(0, 1, 2, 3);
#elif defined(GCC3D_SIMD_NEON)
        const std::int32_t lanes[4] = {0, 1, 2, 3};
        r.v = vld1q_s32(lanes);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = i;
#endif
        return r;
    }

    static IntV
    load(const std::int32_t *p)
    {
        IntV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
#elif defined(GCC3D_SIMD_NEON)
        r.v = vld1q_s32(p);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = p[i];
#endif
        return r;
    }

    /** Zero-extending load of kWidth u16 values. */
    static IntV
    loadU16(const std::uint16_t *p)
    {
        IntV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_cvtepu16_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_unpacklo_epi16(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)),
            _mm_setzero_si128());
#elif defined(GCC3D_SIMD_NEON)
        r.v = vreinterpretq_s32_u32(vmovl_u16(vld1_u16(p)));
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = p[i];
#endif
        return r;
    }

    void
    store(std::int32_t *p) const
    {
#if defined(GCC3D_SIMD_AVX2)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
#elif defined(GCC3D_SIMD_SSE2)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
#elif defined(GCC3D_SIMD_NEON)
        vst1q_s32(p, v);
#else
        for (int i = 0; i < 4; ++i)
            p[i] = v[i];
#endif
    }

    std::int32_t
    lane(int i) const
    {
        std::int32_t buf[kWidth];
        store(buf);
        return buf[i];
    }

    IntV
    operator+(const IntV &o) const
    {
        IntV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_add_epi32(v, o.v);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_add_epi32(v, o.v);
#elif defined(GCC3D_SIMD_NEON)
        r.v = vaddq_s32(v, o.v);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(v[i]) +
                static_cast<std::uint32_t>(o.v[i]));
#endif
        return r;
    }

    IntV
    operator-(const IntV &o) const
    {
        IntV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_sub_epi32(v, o.v);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_sub_epi32(v, o.v);
#elif defined(GCC3D_SIMD_NEON)
        r.v = vsubq_s32(v, o.v);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(v[i]) -
                static_cast<std::uint32_t>(o.v[i]));
#endif
        return r;
    }

    IntV
    operator|(const IntV &o) const
    {
        IntV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_or_si256(v, o.v);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_or_si128(v, o.v);
#elif defined(GCC3D_SIMD_NEON)
        r.v = vorrq_s32(v, o.v);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = v[i] | o.v[i];
#endif
        return r;
    }

    IntV
    operator^(const IntV &o) const
    {
        IntV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_xor_si256(v, o.v);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_xor_si128(v, o.v);
#elif defined(GCC3D_SIMD_NEON)
        r.v = veorq_s32(v, o.v);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = v[i] ^ o.v[i];
#endif
        return r;
    }

    IntV
    operator&(const IntV &o) const
    {
        IntV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_and_si256(v, o.v);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_and_si128(v, o.v);
#elif defined(GCC3D_SIMD_NEON)
        r.v = vandq_s32(v, o.v);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = v[i] & o.v[i];
#endif
        return r;
    }

    /** Logical (zero-filling) left shift by an immediate. */
    template <int N>
    IntV
    shiftLeft() const
    {
        IntV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_slli_epi32(v, N);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_slli_epi32(v, N);
#elif defined(GCC3D_SIMD_NEON)
        r.v = vshlq_n_s32(v, N);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(v[i]) << N);
#endif
        return r;
    }

    /** Arithmetic (sign-filling) right shift by an immediate. */
    template <int N>
    IntV
    shiftRightArith() const
    {
        IntV r;
#if defined(GCC3D_SIMD_AVX2)
        r.v = _mm256_srai_epi32(v, N);
#elif defined(GCC3D_SIMD_SSE2)
        r.v = _mm_srai_epi32(v, N);
#elif defined(GCC3D_SIMD_NEON)
        r.v = vshrq_n_s32(v, N);
#else
        for (int i = 0; i < 4; ++i)
            r.v[i] = v[i] >> N;
#endif
        return r;
    }
};

// =====================================================================
// Conversions and selects.
// =====================================================================

/** Bitwise reinterpretation float lanes -> int lanes. */
inline IntV
bitcastToInt(const FloatV &f)
{
    IntV r;
#if defined(GCC3D_SIMD_AVX2)
    r.v = _mm256_castps_si256(f.v);
#elif defined(GCC3D_SIMD_SSE2)
    r.v = _mm_castps_si128(f.v);
#elif defined(GCC3D_SIMD_NEON)
    r.v = vreinterpretq_s32_f32(f.v);
#else
    for (int i = 0; i < 4; ++i)
        r.v[i] = std::bit_cast<std::int32_t>(f.v[i]);
#endif
    return r;
}

/** Bitwise reinterpretation int lanes -> float lanes. */
inline FloatV
bitcastToFloat(const IntV &x)
{
    FloatV r;
#if defined(GCC3D_SIMD_AVX2)
    r.v = _mm256_castsi256_ps(x.v);
#elif defined(GCC3D_SIMD_SSE2)
    r.v = _mm_castsi128_ps(x.v);
#elif defined(GCC3D_SIMD_NEON)
    r.v = vreinterpretq_f32_s32(x.v);
#else
    for (int i = 0; i < 4; ++i)
        r.v[i] = std::bit_cast<float>(x.v[i]);
#endif
    return r;
}

/** Exact int -> float conversion per lane. */
inline FloatV
toFloat(const IntV &x)
{
    FloatV r;
#if defined(GCC3D_SIMD_AVX2)
    r.v = _mm256_cvtepi32_ps(x.v);
#elif defined(GCC3D_SIMD_SSE2)
    r.v = _mm_cvtepi32_ps(x.v);
#elif defined(GCC3D_SIMD_NEON)
    r.v = vcvtq_f32_s32(x.v);
#else
    for (int i = 0; i < 4; ++i)
        r.v[i] = static_cast<float>(x.v[i]);
#endif
    return r;
}

/** Round to nearest (ties to even) per lane. */
inline IntV
roundToInt(const FloatV &f)
{
    IntV r;
#if defined(GCC3D_SIMD_AVX2)
    r.v = _mm256_cvtps_epi32(f.v);
#elif defined(GCC3D_SIMD_SSE2)
    r.v = _mm_cvtps_epi32(f.v);
#elif defined(GCC3D_SIMD_NEON)
    r.v = vcvtnq_s32_f32(f.v);
#else
    for (int i = 0; i < 4; ++i)
        r.v[i] = static_cast<std::int32_t>(
            std::nearbyintf(f.v[i]));
#endif
    return r;
}

inline FloatV
FloatV::iotaFrom(int x0)
{
    return toFloat(IntV(x0) + IntV::iota());
}

/** Lane-wise m ? a : b. */
inline FloatV
select(const MaskV &m, const FloatV &a, const FloatV &b)
{
    FloatV r;
#if defined(GCC3D_SIMD_AVX2)
    r.v = _mm256_blendv_ps(b.v, a.v, m.m);
#elif defined(GCC3D_SIMD_SSE2)
    r.v = _mm_or_ps(_mm_and_ps(m.m, a.v), _mm_andnot_ps(m.m, b.v));
#elif defined(GCC3D_SIMD_NEON)
    r.v = vbslq_f32(m.m, a.v, b.v);
#else
    for (int i = 0; i < 4; ++i)
        r.v[i] = m.m[i] ? a.v[i] : b.v[i];
#endif
    return r;
}

/** Lane-wise m ? a : b on integer lanes. */
inline IntV
selectInt(const MaskV &m, const IntV &a, const IntV &b)
{
    IntV r;
#if defined(GCC3D_SIMD_AVX2)
    r.v = _mm256_castps_si256(_mm256_blendv_ps(
        _mm256_castsi256_ps(b.v), _mm256_castsi256_ps(a.v), m.m));
#elif defined(GCC3D_SIMD_SSE2)
    __m128i mi = _mm_castps_si128(m.m);
    r.v = _mm_or_si128(_mm_and_si128(mi, a.v),
                       _mm_andnot_si128(mi, b.v));
#elif defined(GCC3D_SIMD_NEON)
    r.v = vreinterpretq_s32_u32(
        vbslq_u32(m.m, vreinterpretq_u32_s32(a.v),
                  vreinterpretq_u32_s32(b.v)));
#else
    for (int i = 0; i < 4; ++i)
        r.v[i] = m.m[i] ? a.v[i] : b.v[i];
#endif
    return r;
}

/** Lane-wise i32 equality. */
inline MaskV
cmpEq(const IntV &a, const IntV &b)
{
    MaskV r;
#if defined(GCC3D_SIMD_AVX2)
    r.m = _mm256_castsi256_ps(_mm256_cmpeq_epi32(a.v, b.v));
#elif defined(GCC3D_SIMD_SSE2)
    r.m = _mm_castsi128_ps(_mm_cmpeq_epi32(a.v, b.v));
#elif defined(GCC3D_SIMD_NEON)
    r.m = vceqq_s32(a.v, b.v);
#else
    for (int i = 0; i < 4; ++i)
        r.m[i] = a.v[i] == b.v[i] ? 0xffffffffu : 0u;
#endif
    return r;
}

/**
 * Truncating float -> int conversion per lane: static_cast<int32_t>
 * for in-range values.  Out of range (and NaN) each backend gives what
 * its scalar conversion instruction gives: INT32_MIN on x86,
 * saturation on NEON.
 */
inline IntV
truncToInt(const FloatV &f)
{
    IntV r;
#if defined(GCC3D_SIMD_AVX2)
    r.v = _mm256_cvttps_epi32(f.v);
#elif defined(GCC3D_SIMD_SSE2)
    r.v = _mm_cvttps_epi32(f.v);
#elif defined(GCC3D_SIMD_NEON)
    r.v = vcvtq_s32_f32(f.v);
#else
    for (int i = 0; i < 4; ++i)
        r.v[i] = static_cast<std::int32_t>(f.v[i]);
#endif
    return r;
}

/** Lane-wise signed i32 a > b. */
inline MaskV
cmpGt(const IntV &a, const IntV &b)
{
    MaskV r;
#if defined(GCC3D_SIMD_AVX2)
    r.m = _mm256_castsi256_ps(_mm256_cmpgt_epi32(a.v, b.v));
#elif defined(GCC3D_SIMD_SSE2)
    r.m = _mm_castsi128_ps(_mm_cmpgt_epi32(a.v, b.v));
#elif defined(GCC3D_SIMD_NEON)
    r.m = vcgtq_s32(a.v, b.v);
#else
    for (int i = 0; i < 4; ++i)
        r.m[i] = a.v[i] > b.v[i] ? 0xffffffffu : 0u;
#endif
    return r;
}

/** Lane-wise std::max / std::min of signed i32. */
inline IntV
maxInt(const IntV &a, const IntV &b)
{
    return selectInt(cmpGt(b, a), b, a);
}

inline IntV
minInt(const IntV &a, const IntV &b)
{
    return selectInt(cmpGt(a, b), b, a);
}

namespace int_detail {
/** Lanes where truncToInt's result is a real conversion, not the
 *  out-of-range value of some backend. */
inline MaskV
inRange(const IntV &i)
{
    return MaskV::fromBits(
        ~(cmpEq(i, IntV(INT32_MIN)) | cmpEq(i, IntV(INT32_MAX))).bits());
}
} // namespace int_detail

/**
 * static_cast<int32_t>(std::floor(x)) per lane, on every backend the
 * value its scalar form gives (the correction is skipped where the
 * conversion hit its out-of-range value, which floor(x) == x keeps).
 */
inline IntV
floorToInt(const FloatV &x)
{
    const IntV i = truncToInt(x);
    const MaskV fix = (toFloat(i) > x) & int_detail::inRange(i);
    return selectInt(fix, i - IntV(1), i);
}

/** static_cast<int32_t>(std::ceil(x)) per lane (see floorToInt). */
inline IntV
ceilToInt(const FloatV &x)
{
    const IntV i = truncToInt(x);
    const MaskV fix = (toFloat(i) < x) & int_detail::inRange(i);
    return selectInt(fix, i + IntV(1), i);
}

/**
 * Lane-wise minimum with SSE semantics: min(a, b) = a < b ? a : b
 * (b wins when a is NaN or when the values compare equal).
 */
inline FloatV
min(const FloatV &a, const FloatV &b)
{
    FloatV r;
#if defined(GCC3D_SIMD_AVX2)
    r.v = _mm256_min_ps(a.v, b.v);
#elif defined(GCC3D_SIMD_SSE2)
    r.v = _mm_min_ps(a.v, b.v);
#elif defined(GCC3D_SIMD_NEON)
    r.v = vbslq_f32(vcltq_f32(a.v, b.v), a.v, b.v);
#else
    for (int i = 0; i < 4; ++i)
        r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
#endif
    return r;
}

/**
 * Lane-wise maximum with SSE semantics: max(a, b) = a > b ? a : b
 * (b wins when a is NaN or when the values compare equal).
 */
inline FloatV
max(const FloatV &a, const FloatV &b)
{
    FloatV r;
#if defined(GCC3D_SIMD_AVX2)
    r.v = _mm256_max_ps(a.v, b.v);
#elif defined(GCC3D_SIMD_SSE2)
    r.v = _mm_max_ps(a.v, b.v);
#elif defined(GCC3D_SIMD_NEON)
    r.v = vbslq_f32(vcgtq_f32(a.v, b.v), a.v, b.v);
#else
    for (int i = 0; i < 4; ++i)
        r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
#endif
    return r;
}

/** Lane-wise IEEE square root (correctly rounded, as std::sqrt). */
inline FloatV
sqrt(const FloatV &a)
{
    FloatV r;
#if defined(GCC3D_SIMD_AVX2)
    r.v = _mm256_sqrt_ps(a.v);
#elif defined(GCC3D_SIMD_SSE2)
    r.v = _mm_sqrt_ps(a.v);
#elif defined(GCC3D_SIMD_NEON)
    r.v = vsqrtq_f32(a.v);
#else
    for (int i = 0; i < 4; ++i)
        r.v[i] = std::sqrt(a.v[i]);
#endif
    return r;
}

/** Lane-wise negation: flips the sign bit, as scalar unary minus
 *  does (-(+0) is -0, unlike 0 - x). */
inline FloatV
neg(const FloatV &a)
{
    return bitcastToFloat(bitcastToInt(a) ^ IntV(INT32_MIN));
}

// =====================================================================
// simdExp: vectorized polynomial exponential.
// =====================================================================

namespace exp_detail {
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kC1 = 0.693359375f;        ///< ln2 high part
inline constexpr float kC2 = -2.12194440e-4f;     ///< ln2 low part
inline constexpr float kP0 = 1.9875691500e-4f;
inline constexpr float kP1 = 1.3981999507e-3f;
inline constexpr float kP2 = 8.3334519073e-3f;
inline constexpr float kP3 = 4.1665795894e-2f;
inline constexpr float kP4 = 1.6666665459e-1f;
inline constexpr float kP5 = 5.0000001201e-1f;
/** Clamp bounds keeping 2^n in normal-float range. */
inline constexpr float kExpLo = -87.3365447504019f;
inline constexpr float kExpHi = 88.3762626647949f;
} // namespace exp_detail

/**
 * Scalar transcription of simdExp: the identical operation sequence
 * on one lane (the unit tests verify simdExp is lane-for-lane
 * bit-identical to this).
 *
 * Accuracy contract: relative error < 3e-7 against std::exp over
 * [-87.3, 88.3].  Inputs are clamped to that interval first, so the
 * result is always a positive normal float — in particular
 * simdExpScalar(-inf) is ~1.2e-38, NOT 0.  Callers gating on an
 * alpha/cutoff threshold (the renderers' fast-alpha mode) are
 * unaffected: their inputs live in [-6, 0] by construction.
 */
inline float
simdExpScalar(float x)
{
    using namespace exp_detail;
    // min/max with the SSE rule (second operand wins on NaN).
    x = x < kExpHi ? x : kExpHi;
    x = x > kExpLo ? x : kExpLo;
    float fx = x * kLog2e;
    float fn = std::nearbyintf(fx);  // ties to even, matches cvtps
    std::int32_t n = static_cast<std::int32_t>(fn);
    x = x - fn * kC1;
    x = x - fn * kC2;
    float z = x * x;
    float y = kP0;
    y = y * x + kP1;
    y = y * x + kP2;
    y = y * x + kP3;
    y = y * x + kP4;
    y = y * x + kP5;
    y = y * z + x + 1.0f;
    float pow2 = std::bit_cast<float>((n + 127) << 23);
    return y * pow2;
}

/**
 * Vectorized exp with the contract documented on simdExpScalar.
 * Bit-identical per lane to simdExpScalar.
 */
inline FloatV
simdExp(FloatV x)
{
    using namespace exp_detail;
    x = min(x, FloatV(kExpHi));
    x = max(x, FloatV(kExpLo));
    FloatV fx = x * FloatV(kLog2e);
    IntV n = roundToInt(fx);
    FloatV fn = toFloat(n);
    x = x - fn * FloatV(kC1);
    x = x - fn * FloatV(kC2);
    FloatV z = x * x;
    FloatV y(kP0);
    y = y * x + FloatV(kP1);
    y = y * x + FloatV(kP2);
    y = y * x + FloatV(kP3);
    y = y * x + FloatV(kP4);
    y = y * x + FloatV(kP5);
    y = y * z + x + FloatV(1.0f);
    FloatV pow2 = bitcastToFloat((n + IntV(127)).shiftLeft<23>());
    return y * pow2;
}

} // namespace simd
} // namespace gcc3d

#endif // GCC3D_GSMATH_SIMD_H
