/**
 * @file
 * Third-order real spherical harmonics (SH) for view-dependent color.
 *
 * 3DGS stores, per Gaussian, 16 SH coefficients per RGB channel
 * (48 floats total).  Color is evaluated as
 *     C(v) = sum_l sum_m c_{lm} Y_{lm}(v)        (Eq. 2)
 * over the normalized view direction v, followed by the +0.5 offset and
 * clamp used by the reference rasterizer.
 *
 * The SH Unit of the accelerator (one SHE per channel) computes exactly
 * this 16-term dot product; the cycle model in src/core/sh_unit.* charges
 * cost per coefficient.
 */

#ifndef GCC3D_GSMATH_SH_H
#define GCC3D_GSMATH_SH_H

#include <array>

#include "gsmath/vec.h"

namespace gcc3d {

/** Number of SH bands used by 3DGS (degrees 0..3). */
inline constexpr int kShDegree = 3;
/** Coefficients per channel: (degree+1)^2 = 16. */
inline constexpr int kShCoeffsPerChannel = (kShDegree + 1) * (kShDegree + 1);
/** Total SH parameters per Gaussian (3 channels x 16). */
inline constexpr int kShCoeffsTotal = 3 * kShCoeffsPerChannel;

/**
 * Real spherical harmonics constants (matching the 3DGS reference
 * rasterizer's SH_C0..SH_C3 tables); shared by shBasis and the tile
 * renderer's lane-group transcription of it.
 */
namespace sh_constants {
inline constexpr float kC0 = 0.28209479177387814f;
inline constexpr float kC1 = 0.4886025119029199f;
inline constexpr float kC2[5] = {
    1.0925484305920792f,
    -1.0925484305920792f,
    0.31539156525252005f,
    -1.0925484305920792f,
    0.5462742152960396f,
};
inline constexpr float kC3[7] = {
    -0.5900435899266435f,
    2.890611442640554f,
    -0.4570457994644658f,
    0.3731763325901154f,
    -0.4570457994644658f,
    1.445305721320277f,
    -0.5900435899266435f,
};
} // namespace sh_constants

/** SH basis values Y_00..Y_33 for a unit direction. */
using ShBasis = std::array<float, kShCoeffsPerChannel>;

/**
 * Evaluate the 16 real SH basis functions at unit direction @p dir.
 * Constants follow the standard real-SH convention used by the 3DGS
 * reference implementation (SH_C0..SH_C3).
 */
ShBasis shBasis(const Vec3 &dir);

/**
 * Evaluate RGB color from 48 SH coefficients.
 *
 * @param sh   coefficients laid out channel-major: sh[c*16 + i] for
 *             channel c in {R,G,B} and basis index i.
 * @param dir  view direction (Gaussian center minus camera position),
 *             normalized internally.
 * @return clamped RGB in [0, +inf) after the reference +0.5 offset.
 */
Vec3 evalShColor(const std::array<float, kShCoeffsTotal> &sh,
                 const Vec3 &dir);

/**
 * Degree-truncated evaluation (used by ablation studies): only bands
 * 0..@p degree contribute.
 */
Vec3 evalShColorDegree(const std::array<float, kShCoeffsTotal> &sh,
                       const Vec3 &dir, int degree);

} // namespace gcc3d

#endif // GCC3D_GSMATH_SH_H
