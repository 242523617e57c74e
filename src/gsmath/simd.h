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
 *  - expExact is std::exp per lane, not one IEEE operation; see its
 *    comment for which builds evaluate it as a vector.
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
// expExact: std::exp(float), lane for lane.
// =====================================================================

// The vector forms transcribe glibc's expf (>= 2.27), as glibc's
// ifunc runs it on every AVX2+FMA host: the FMA build of
// sysdeps/ieee754/flt-32/e_expf.c.  They need the FMA ISA, to fuse
// where that build fuses, and glibc, whose expf they must equal.
// With AVX-512F all eight lanes take one 8 x double pass and the
// table lookup is two in-register permutes; with AVX2 alone they take
// two 4 x double halves, each with a gather.  Both forms run expf's
// double-precision op sequence, so they return the same bits.
#if defined(GCC3D_SIMD_AVX2) && defined(__FMA__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 27)
#define GCC3D_SIMD_EXP_GLIBC_FMA 1
#endif
#endif

#if defined(GCC3D_SIMD_EXP_GLIBC_FMA)
namespace exp_detail {
/** glibc's __exp2f_data: tab[i] = bits(2^(i/32)) - (i << 47) (as
 *  long long, the element type of the gather and permute
 *  intrinsics). */
alignas(64) inline constexpr long long kTab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
/** 32 / ln 2, the round-to-int shift 1.5 * 2^52, and the cubic's
 *  coefficients scaled for r = x * 32 / ln 2 - k. */
inline constexpr std::uint64_t kInvLn2N = 0x40471547652b82fe;
inline constexpr std::uint64_t kShift = 0x4338000000000000;
inline constexpr std::uint64_t kC0 = 0x3ebc6af84b912394;
inline constexpr std::uint64_t kC1 = 0x3f2ebfce50fac4f3;
inline constexpr std::uint64_t kC2 = 0x3f962e42ff0c52d6;
/** Lanes whose (bits >> 20 & 0x7ff) reaches this (|x| >= 88, inf,
 *  NaN) leave expf's main path. */
inline constexpr int kSpecialTop = 0x42b;

#if defined(__AVX512F__)
inline constexpr const char *kForm = "avx512";

inline __m512d
pd(std::uint64_t bits)
{
    return _mm512_set1_pd(std::bit_cast<double>(bits));
}

/** expf's main path on eight lanes: exp(x) = 2^(k/32) * 2^(r/32).
 *  The unmasked cvtps_pd, slli_epi64 and cvtpd_ps trip GCC 12's
 *  -Wmaybe-uninitialized inside avx512fintrin.h; their maskz forms
 *  with every lane set compile to the same instructions. */
inline __m256
expMain(__m256 x)
{
    constexpr __mmask8 kAll = 0xff;
    const __m512d xd = _mm512_maskz_cvtps_pd(kAll, x);
    const __m512d kds = _mm512_fmadd_pd(pd(kInvLn2N), xd, pd(kShift));
    const __m512i ki = _mm512_castpd_si512(kds);
    const __m512d kd = _mm512_sub_pd(kds, pd(kShift));
    const __m512d r = _mm512_fmsub_pd(pd(kInvLn2N), xd, kd);
    // kTab[ki & 31]: the permutes read index bits 0-3 and pick from
    // kTab[0..15] and kTab[16..31]; bit 4 chooses between them.
    const __m512i lo = _mm512_permutex2var_epi64(
        _mm512_load_si512(kTab), ki, _mm512_load_si512(kTab + 8));
    const __m512i hi = _mm512_permutex2var_epi64(
        _mm512_load_si512(kTab + 16), ki, _mm512_load_si512(kTab + 24));
    const __m512i t = _mm512_add_epi64(
        _mm512_mask_blend_epi64(
            _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)), lo, hi),
        _mm512_maskz_slli_epi64(kAll, ki, 47));
    const __m512d z = _mm512_fmadd_pd(r, pd(kC0), pd(kC1));
    const __m512d r2 = _mm512_mul_pd(r, r);
    const __m512d y = _mm512_fmadd_pd(
        z, r2, _mm512_fmadd_pd(r, pd(kC2), _mm512_set1_pd(1.0)));
    return _mm512_maskz_cvtpd_ps(kAll,
                                 _mm512_mul_pd(y, _mm512_castsi512_pd(t)));
}
#else
inline constexpr const char *kForm = "avx2";

inline __m256d
pd(std::uint64_t bits)
{
    return _mm256_set1_pd(std::bit_cast<double>(bits));
}

/** expf's main path on four lanes: exp(x) = 2^(k/32) * 2^(r/32). */
inline __m128
expHalf(__m128 x)
{
    const __m256d xd = _mm256_cvtps_pd(x);
    const __m256d kds = _mm256_fmadd_pd(pd(kInvLn2N), xd, pd(kShift));
    const __m256i ki = _mm256_castpd_si256(kds);
    const __m256d kd = _mm256_sub_pd(kds, pd(kShift));
    const __m256d r = _mm256_fmsub_pd(pd(kInvLn2N), xd, kd);
    const __m256i t = _mm256_add_epi64(
        _mm256_i64gather_epi64(
            kTab, _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8),
        _mm256_slli_epi64(ki, 47));
    const __m256d z = _mm256_fmadd_pd(r, pd(kC0), pd(kC1));
    const __m256d r2 = _mm256_mul_pd(r, r);
    const __m256d y = _mm256_fmadd_pd(
        z, r2, _mm256_fmadd_pd(r, pd(kC2), _mm256_set1_pd(1.0)));
    return _mm256_cvtpd_ps(_mm256_mul_pd(y, _mm256_castsi256_pd(t)));
}

/** expf's main path on eight lanes, as two four-lane halves. */
inline __m256
expMain(__m256 x)
{
    return _mm256_set_m128(expHalf(_mm256_extractf128_ps(x, 1)),
                           expHalf(_mm256_castps256_ps128(x)));
}
#endif
} // namespace exp_detail
#endif

/** The form expExact compiled to: "avx512" or "avx2" (a vector
 *  form), or "per-lane" (std::exp once per lane). */
#if defined(GCC3D_SIMD_EXP_GLIBC_FMA)
inline constexpr const char *kExpForm = exp_detail::kForm;
#else
inline constexpr const char *kExpForm = "per-lane";
#endif

/**
 * std::exp on the lanes set in @p lanes, bit for bit, NaN payloads
 * included; the other lanes hold unspecified values.  With AVX2, FMA
 * and glibc it evaluates glibc's expf on all eight lanes at once (one
 * 8 x double pass with AVX-512F, two 4 x double halves without) and
 * calls std::exp only for selected lanes off expf's main path
 * (|x| >= 88, inf, NaN); every other build calls std::exp once per
 * selected lane.  The vector forms are exact only where the running
 * libm is that expf; tests/test_simd.cc checks them against the
 * local std::exp over every float.
 */
inline FloatV
expExact(const FloatV &x, unsigned lanes = (1u << kWidth) - 1)
{
#if defined(GCC3D_SIMD_EXP_GLIBC_FMA)
    using namespace exp_detail;
    const __m256i top = _mm256_and_si256(
        _mm256_srli_epi32(_mm256_castps_si256(x.v), 20),
        _mm256_set1_epi32(0x7ff));
    lanes &= static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(
            top, _mm256_set1_epi32(kSpecialTop - 1)))));
    FloatV r;
    r.v = expMain(x.v);
    if (lanes == 0)
        return r;
    float out[kWidth];
    r.store(out);
#else
    float out[kWidth] = {};
#endif
    float in[kWidth];
    x.store(in);
    for (; lanes != 0; lanes &= lanes - 1) {
        const int i = std::countr_zero(lanes);
        out[i] = std::exp(in[i]);
    }
    return FloatV::load(out);
}

} // namespace simd
} // namespace gcc3d

#endif // GCC3D_GSMATH_SIMD_H
