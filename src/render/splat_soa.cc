#include "render/splat_soa.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "gsmath/simd.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace gcc3d {

PixelRect
splatBounds(const Splat &s, BoundingMode mode)
{
    switch (mode) {
      case BoundingMode::Aabb3Sigma:
        return aabbFromRadius(s.ellipse.center, s.radius_3sigma);
      case BoundingMode::Obb3Sigma:
        // The OBB itself is oriented; its tile coverage is bounded by
        // the axis-aligned extent of the oriented box.
        return aabbFromCovariance(s.ellipse.center, s.ellipse.cov, 9.0f);
      case BoundingMode::OmegaSigma:
        return aabbFromRadius(s.ellipse.center, s.radius_omega);
      case BoundingMode::Conservative: {
        int r = std::max(s.radius_3sigma, s.radius_omega);
        return aabbFromRadius(s.ellipse.center, (r * 5 + 3) / 4);
      }
    }
    return {};
}

TileRange
tileRangeFor(const Splat &s, BoundingMode mode, int tile, int width,
             int height)
{
    PixelRect box = splatBounds(s, mode).clipped(width, height);
    TileRange r;
    if (box.empty())
        return r;
    r.bx0 = box.x0 / tile;
    r.by0 = box.y0 / tile;
    r.bx1 = box.x1 / tile;
    r.by1 = box.y1 / tile;
    return r;
}

ObbParams
obbParamsFor(const Splat &s)
{
    ObbParams o;
    o.cx = s.ellipse.center.x;
    o.cy = s.ellipse.center.y;
    o.ca = std::cos(s.ellipse.eig.angle);
    o.sa = std::sin(s.ellipse.eig.angle);
    o.ha = 3.0f * std::sqrt(s.ellipse.eig.l1);
    o.hb = 3.0f * std::sqrt(s.ellipse.eig.l2);
    return o;
}

bool
obbOverlapsTile(const ObbParams &o, float tx0, float ty0, float tx1,
                float ty1)
{
    // Tile corners relative to the splat center, projected onto the
    // box axes; the tile misses the box iff all corners fall beyond
    // one face (separating axis among the box axes).  The image-axis
    // separation is already handled by the AABB sweep.
    float min_u = 1e30f, max_u = -1e30f;
    float min_v = 1e30f, max_v = -1e30f;
    const float xs[2] = {tx0, tx1};
    const float ys[2] = {ty0, ty1};
    for (float x : xs) {
        for (float y : ys) {
            float dx = x - o.cx;
            float dy = y - o.cy;
            float u = dx * o.ca + dy * o.sa;
            float v = -dx * o.sa + dy * o.ca;
            min_u = std::min(min_u, u);
            max_u = std::max(max_u, u);
            min_v = std::min(min_v, v);
            max_v = std::max(max_v, v);
        }
    }
    return min_u <= o.ha && max_u >= -o.ha && min_v <= o.hb &&
           max_v >= -o.hb;
}

namespace {

/** Per-frame constants of the SoA row derivation. */
struct RowFrame
{
    RowFrame(BoundingMode mode_, int tile_, float alpha_cutoff, int width_,
             int height_)
        : mode(mode_), tile(tile_), width(width_), height(height_),
          max_dim(width_ + height_), cutoff_on(alpha_cutoff > 0.0f),
          log_cutoff(cutoff_on ? std::log(static_cast<double>(alpha_cutoff))
                               : 0.0)
    {
    }

    BoundingMode mode;
    int tile, width, height, max_dim;
    bool cutoff_on;     ///< a positive cutoff bounds rects and q
    double log_cutoff;  ///< log(alpha_cutoff), taken once per frame
};

/**
 * The row's exp-skip threshold (into @p q_skip) and cutoff-safe
 * iteration radius (returned; -1 when no finite radius is provably
 * safe, so the rect is the whole image) for opacity @p opacity and
 * eigenvalues @p l1, @p l2.
 *
 * Both rest on the headroom ln(omega) - ln(cutoff): alpha = omega *
 * exp(-q/2) falls below the cutoff once q > 2 * headroom.
 *
 *  - q_skip is that crossing plus a 0.2 margin (alpha a further ~10%
 *    below the cutoff), absorbing the rounding of the float exp and
 *    the float quadratic form, so skipping exp above it never flips
 *    a pass/fail decision the reference path makes.
 *  - The radius follows from q >= |d|^2 / max(l1, l2): alpha < cutoff
 *    once |d|^2 > 2 * max(l1, l2) * headroom.  A 5% slack on the
 *    squared radius plus a 3-pixel guard absorbs the rounding of the
 *    conic/eigen computations (the equivalence suite verifies
 *    bit-identical images).  No cutoff, or a bound beyond the image
 *    (not conservative once clipped), gives no radius.
 *
 * Opacity at or below the cutoff leaves only near-center ties:
 * q_skip 0.2 and radius 2.  ln(cutoff) comes from @p f and ln(omega)
 * is taken once, the same doubles as computing each bound on its own.
 */
int
cutoffBounds(float opacity, float l1, float l2, const RowFrame &f,
             float &q_skip)
{
    if (!f.cutoff_on) {
        q_skip = std::numeric_limits<float>::infinity();
        return -1;
    }
    const double headroom =
        std::log(static_cast<double>(opacity)) - f.log_cutoff;
    if (!(headroom > 0.0)) {
        q_skip = 0.2f;
        return 2;
    }
    q_skip = static_cast<float>(2.0 * headroom + 0.2);
    const double lam = std::max(l1, l2);
    const double r = std::sqrt(2.0 * lam * headroom * 1.05);
    return r < static_cast<double>(f.max_dim) ? static_cast<int>(r) + 3
                                               : -1;
}

/** Append the SoA row of splat @p s (SplatSoA::build's path). */
void
appendRow(SplatSoA &soa, const Splat &s, const RowFrame &f)
{
    SplatSoA::Blend b;
    b.cx = s.ellipse.center.x;
    b.cy = s.ellipse.center.y;
    b.c00 = s.ellipse.conic(0, 0);
    b.c01 = s.ellipse.conic(0, 1);
    b.c10 = s.ellipse.conic(1, 0);
    b.c11 = s.ellipse.conic(1, 1);
    b.opacity = s.opacity;
    b.r = s.color.x;
    b.g = s.color.y;
    b.b = s.color.z;
    const int cutoff_r = cutoffBounds(s.opacity, s.ellipse.eig.l1,
                                      s.ellipse.eig.l2, f, b.q_skip);
    PixelRect it;
    if (cutoff_r < 0) {
        it.x0 = 0;
        it.y0 = 0;
        it.x1 = f.width - 1;
        it.y1 = f.height - 1;
    } else {
        it = aabbFromRadius(s.ellipse.center, cutoff_r)
                 .clipped(f.width, f.height);
    }
    b.it_x0 = it.x0;
    b.it_y0 = it.y0;
    b.it_x1 = it.x1;
    b.it_y1 = it.y1;

    const PixelRect sb =
        aabbFromRadius(s.ellipse.center,
                       std::max(s.radius_3sigma, s.radius_omega))
            .clipped(f.width, f.height);
    b.sb_x0 = sb.x0;
    b.sb_y0 = sb.y0;
    b.sb_x1 = sb.x1;
    b.sb_y1 = sb.y1;

    soa.blend.push_back(b);
    soa.id.push_back(s.id);
    soa.depth.push_back(s.depth);
    soa.range.push_back(
        tileRangeFor(s, f.mode, f.tile, f.width, f.height));
    if (soa.obb_refine)
        soa.obb.push_back(obbParamsFor(s));
}

/** Reserve @p n rows in every per-row array @p soa fills. */
void
reserveRows(SplatSoA &soa, std::size_t n)
{
    soa.blend.reserve(n);
    soa.range.reserve(n);
    soa.id.reserve(n);
    soa.depth.reserve(n);
    if (soa.obb_refine)
        soa.obb.reserve(n);
}

/** Depth keys in one vectorized pass over the gathered depths
 *  (integer bit manipulation; bit-identical to the scalar
 *  orderedKeyFromFloat per element). */
void
finishKeys(SplatSoA &soa)
{
    soa.depth_key.resize(soa.size());
    orderedKeysFromFloats(soa.depth.data(), soa.depth_key.data(),
                          soa.size());
}

using simd::FloatV;
using simd::kWidth;

/**
 * Camera constants of the lane-group projection, broadcast once per
 * frame.  Scalar sub-expressions that projectGaussian evaluates the
 * same way for every Gaussian (the frustum slopes, the half viewport,
 * the products with the Jacobian's zero entries) are evaluated once
 * here with the same operations.
 */
struct LaneCamera
{
    explicit LaneCamera(const Camera &cam)
    {
        const Mat4 &m = cam.viewMatrix();
        for (int r = 0; r < 3; ++r) {
            for (int c = 0; c < 3; ++c)
                view[r][c] = FloatV(m(r, c));
            // transformPoint multiplies the translation by w = 1.
            view[r][3] = FloatV(m(r, 3) * 1.0f);
        }
        for (int c = 0; c < 3; ++c) {
            zero_w0[c] = FloatV(0.0f * m(0, c));
            zero_w1[c] = FloatV(0.0f * m(1, c));
        }
        near = FloatV(cam.nearPlane());
        fx = FloatV(cam.focalX());
        fy = FloatV(cam.focalY());
        neg_fx = FloatV(-cam.focalX());
        neg_fy = FloatV(-cam.focalY());
        band_x = FloatV(kFrustumGuardBand * 0.5f *
                        static_cast<float>(cam.width()));
        band_y = FloatV(kFrustumGuardBand * 0.5f *
                        static_cast<float>(cam.height()));
        half_w = FloatV(0.5f * static_cast<float>(cam.width()));
        half_h = FloatV(0.5f * static_cast<float>(cam.height()));
        pos_x = FloatV(cam.position().x);
        pos_y = FloatV(cam.position().y);
        pos_z = FloatV(cam.position().z);
    }

    FloatV view[3][4];           ///< rows 0..2 of the view matrix
    FloatV zero_w0[3], zero_w1[3]; ///< 0 * W(0, c), 0 * W(1, c)
    FloatV near, fx, fy, neg_fx, neg_fy;
    FloatV band_x, band_y;       ///< guard band * half viewport
    FloatV half_w, half_h;       ///< 0.5 * viewport
    FloatV pos_x, pos_y, pos_z;  ///< camera position
};

/** Gather member @p field of the group's Gaussians into lanes. */
template <typename Get>
FloatV
gatherLanes(const Gaussian *const *g, int count, Get &&field)
{
    alignas(32) float buf[kWidth] = {};
    for (int l = 0; l < count; ++l)
        buf[l] = field(*g[l]);
    return FloatV::load(buf);
}

/** Per-lane results of the vector part of a lane group's projection. */
struct GroupLanes
{
    alignas(32) float depth[kWidth];
    alignas(32) float cx[kWidth], cy[kWidth];
    alignas(32) float conic[4][kWidth];
    alignas(32) float l1[kWidth], l2[kWidth];
    alignas(32) float atan_y[kWidth], atan_x[kWidth];  ///< eig angle args
    alignas(32) float basis[kShCoeffsPerChannel][kWidth];
};

/**
 * SH basis of the group's view directions (mean - camera position):
 * shBasis' op sequence, Vec3::normalized included, one lane each.
 */
void
shBasisLanes(const FloatV &mx, const FloatV &my, const FloatV &mz,
             const LaneCamera &c, GroupLanes &out)
{
    using namespace sh_constants;
    const FloatV dx = mx - c.pos_x, dy = my - c.pos_y, dz = mz - c.pos_z;
    const FloatV n = simd::sqrt(dx * dx + dy * dy + dz * dz);
    const simd::MaskV pos = n > FloatV(0.0f);
    const FloatV x = simd::select(pos, dx / n, dx);
    const FloatV y = simd::select(pos, dy / n, dy);
    const FloatV z = simd::select(pos, dz / n, dz);
    const FloatV xx = x * x, yy = y * y, zz = z * z;
    const FloatV xy = x * y, yz = y * z, xz = x * z;
    const FloatV two(2.0f), three(3.0f), four(4.0f);
    const FloatV b[kShCoeffsPerChannel] = {
        FloatV(kC0),
        FloatV(-kC1) * y,
        FloatV(kC1) * z,
        FloatV(-kC1) * x,
        FloatV(kC2[0]) * xy,
        FloatV(kC2[1]) * yz,
        FloatV(kC2[2]) * (two * zz - xx - yy),
        FloatV(kC2[3]) * xz,
        FloatV(kC2[4]) * (xx - yy),
        FloatV(kC3[0]) * y * (three * xx - yy),
        FloatV(kC3[1]) * xy * z,
        FloatV(kC3[2]) * y * (four * zz - xx - yy),
        FloatV(kC3[3]) * z * (two * zz - three * xx - three * yy),
        FloatV(kC3[4]) * x * (four * zz - xx - yy),
        FloatV(kC3[5]) * z * (xx - yy),
        FloatV(kC3[6]) * x * (xx - three * yy),
    };
    for (int i = 0; i < kShCoeffsPerChannel; ++i)
        b[i].store(out.basis[i]);
}

/** evalShColor of lane @p l's coefficients over the group's basis. */
Vec3
shColorLane(const std::array<float, kShCoeffsTotal> &sh,
            const GroupLanes &lanes, int l)
{
    Vec3 c;
    for (int i = 0; i < kShCoeffsPerChannel; ++i) {
        const float b = lanes.basis[i][l];
        c.x += sh[0 * kShCoeffsPerChannel + i] * b;
        c.y += sh[1 * kShCoeffsPerChannel + i] * b;
        c.z += sh[2 * kShCoeffsPerChannel + i] * b;
    }
    c += Vec3(0.5f, 0.5f, 0.5f);
    c.x = std::max(0.0f, c.x);
    c.y = std::max(0.0f, c.y);
    c.z = std::max(0.0f, c.z);
    return c;
}

/**
 * Project the @p count (<= kWidth) Gaussians @p g, source ids @p ids,
 * and append the rows of those that survive.  Lanes run
 * projectGaussian's op sequence — Gaussian::covariance3d,
 * Ellipse::fromCovariance, radius3Sigma, radiusOmegaSigma and the
 * screen cull included — then the row's bound rects (aabbFromRadius,
 * aabbFromCovariance, clipped) and the SH basis, in vector registers.
 * Per lane stay the libm calls (radiusOmegaSigma's log, the row's
 * log(omega), atan2/cos/sin for the OBB), the SH dot products, the
 * tile division and the row stores.  Lanes past @p count compute on
 * zeros and are discarded.
 */
void
projectGroup(const Gaussian *const *g, const std::uint32_t *ids, int count,
             const LaneCamera &c, const RowFrame &f, SplatSoA &soa,
             PreprocessStats &stats)
{
    // ---- Mean -> view space, near plane and frustum (the only part
    // every Gaussian pays). ----
    const FloatV mx = gatherLanes(g, count,
                    [](const Gaussian &q) { return q.mean.x; });
    const FloatV my = gatherLanes(g, count,
                    [](const Gaussian &q) { return q.mean.y; });
    const FloatV mz = gatherLanes(g, count,
                    [](const Gaussian &q) { return q.mean.z; });
    FloatV v[3];
    for (int r = 0; r < 3; ++r)
        v[r] = c.view[r][0] * mx + c.view[r][1] * my + c.view[r][2] * mz +
               c.view[r][3];
    const unsigned valid = simd::MaskV::firstN(count).bits();
    const unsigned near_bits = valid & (v[2] < c.near).bits();
    const FloatV lim_x = c.band_x * v[2] / c.fx;
    const FloatV lim_y = c.band_y * v[2] / c.fy;
    const unsigned in_bits =
        valid & ~near_bits & (v[0] > simd::neg(lim_x)).bits() &
        (v[0] < lim_x).bits() & (v[1] > simd::neg(lim_y)).bits() &
        (v[1] < lim_y).bits();
    stats.near_culled += static_cast<std::size_t>(std::popcount(near_bits));
    stats.frustum_culled += static_cast<std::size_t>(
        std::popcount(valid & ~near_bits & ~in_bits));
    stats.in_frustum += static_cast<std::size_t>(std::popcount(in_bits));
    if (in_bits == 0)
        return;

    // ---- World covariance R S S^T R^T (Quat::toMatrix normalizes;
    // the diagonal S keeps its zero products). ----
    const FloatV zero(0.0f), one(1.0f), two(2.0f);
    FloatV qw = gatherLanes(g, count,
                    [](const Gaussian &q) { return q.rotation.w; });
    FloatV qx = gatherLanes(g, count,
                    [](const Gaussian &q) { return q.rotation.x; });
    FloatV qy = gatherLanes(g, count,
                    [](const Gaussian &q) { return q.rotation.y; });
    FloatV qz = gatherLanes(g, count,
                    [](const Gaussian &q) { return q.rotation.z; });
    const FloatV qn = simd::sqrt(qw * qw + qx * qx + qy * qy + qz * qz);
    const simd::MaskV degenerate = qn <= zero;
    qw = simd::select(degenerate, one, qw / qn);
    qx = simd::select(degenerate, zero, qx / qn);
    qy = simd::select(degenerate, zero, qy / qn);
    qz = simd::select(degenerate, zero, qz / qn);
    const FloatV ww = qw * qw, xx = qx * qx, yy = qy * qy, zz = qz * qz;
    const FloatV xy = qx * qy, xz = qx * qz, yz = qy * qz;
    const FloatV wx = qw * qx, wy = qw * qy, wz = qw * qz;
    const FloatV rot[3][3] = {
        {ww + xx - yy - zz, two * (xy - wz), two * (xz + wy)},
        {two * (xy + wz), ww - xx + yy - zz, two * (yz - wx)},
        {two * (xz - wy), two * (yz + wx), ww - xx - yy + zz}};
    const FloatV scale[3] = {
        gatherLanes(g, count,
                    [](const Gaussian &q) { return q.scale.x; }),
        gatherLanes(g, count,
                    [](const Gaussian &q) { return q.scale.y; }),
        gatherLanes(g, count,
                    [](const Gaussian &q) { return q.scale.z; })};
    FloatV rs[3][3];
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            rs[i][j] = rot[i][0] * (j == 0 ? scale[0] : zero) +
                       rot[i][1] * (j == 1 ? scale[1] : zero) +
                       rot[i][2] * (j == 2 ? scale[2] : zero);
    FloatV cov3[3][3];  // symmetric bit for bit: products commute
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j <= i; ++j)
            cov3[i][j] = cov3[j][i] = rs[i][0] * rs[j][0] +
                                      rs[i][1] * rs[j][1] +
                                      rs[i][2] * rs[j][2];

    // ---- Sigma' = J W Sigma W^T J^T, top-left 2x2 (the only block
    // projectGaussian keeps), plus the 0.3 dilation. ----
    const FloatV inv_z = one / v[2];
    const FloatV inv_z2 = inv_z * inv_z;
    const FloatV j00 = c.fx * inv_z, j02 = c.neg_fx * v[0] * inv_z2;
    const FloatV j11 = c.fy * inv_z, j12 = c.neg_fy * v[1] * inv_z2;
    FloatV jw[2][3];
    for (int k = 0; k < 3; ++k) {
        jw[0][k] = j00 * c.view[0][k] + c.zero_w1[k] + j02 * c.view[2][k];
        jw[1][k] = c.zero_w0[k] + j11 * c.view[1][k] + j12 * c.view[2][k];
    }
    FloatV t[2][3];
    for (int i = 0; i < 2; ++i)
        for (int k = 0; k < 3; ++k)
            t[i][k] = jw[i][0] * cov3[0][k] + jw[i][1] * cov3[1][k] +
                      jw[i][2] * cov3[2][k];
    FloatV cov2[2][2];
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            cov2[i][j] = t[i][0] * jw[j][0] + t[i][1] * jw[j][1] +
                         t[i][2] * jw[j][2];
    const FloatV dilation(0.3f);
    cov2[0][0] = cov2[0][0] + dilation;
    cov2[1][1] = cov2[1][1] + dilation;

    // ---- Ellipse::fromCovariance: regularize, invert, eigen. ----
    GroupLanes lanes;
    const simd::MaskV tiny =
        cov2[0][0] * cov2[1][1] - cov2[0][1] * cov2[1][0] <= FloatV(1e-12f);
    const FloatV a = simd::select(tiny, cov2[0][0] + FloatV(1e-4f), cov2[0][0]);
    const FloatV d = simd::select(tiny, cov2[1][1] + FloatV(1e-4f), cov2[1][1]);
    const FloatV inv = one / (a * d - cov2[0][1] * cov2[1][0]);
    (d * inv).store(lanes.conic[0]);
    (simd::neg(cov2[0][1]) * inv).store(lanes.conic[1]);
    (simd::neg(cov2[1][0]) * inv).store(lanes.conic[2]);
    (a * inv).store(lanes.conic[3]);
    const FloatV half(0.5f);
    const FloatV b = half * (cov2[0][1] + cov2[1][0]);
    const FloatV mid = half * (a + d);
    const FloatV disc =
        simd::sqrt(simd::max(mid * mid - (a * d - b * b), zero));
    const FloatV l1 = simd::max(mid + disc, zero);
    const FloatV l2 = simd::max(mid - disc, zero);
    l1.store(lanes.l1);
    l2.store(lanes.l2);
    (two * b).store(lanes.atan_y);
    (a - d).store(lanes.atan_x);
    const FloatV cx = c.fx * v[0] / v[2] + c.half_w;
    const FloatV cy = c.fy * v[1] / v[2] + c.half_h;
    cx.store(lanes.cx);
    cy.store(lanes.cy);
    v[2].store(lanes.depth);

    // ---- Integer radii and bound rects (radius3Sigma,
    // radiusOmegaSigma, aabbFromRadius, aabbFromCovariance, clipped),
    // in lanes; only radiusOmegaSigma's log runs per lane. ----
    alignas(32) float k2[kWidth] = {};
    unsigned omega_bits = 0;  // lanes with a nonzero omega-sigma radius
    for (unsigned bits = in_bits; bits != 0; bits &= bits - 1) {
        const int l = std::countr_zero(bits);
        const float omega = g[l]->opacity;
        if (omega <= kAlphaMin)
            continue;
        k2[l] = 2.0f * std::log(255.0f * omega);
        if (!(k2[l] <= 0.0f))
            omega_bits |= 1u << l;
    }
    using simd::IntV;
    const IntV izero(0), w1(f.width - 1), h1(f.height - 1);
    const IntV r_omega = simd::selectInt(
        simd::MaskV::fromBits(omega_bits),
        simd::ceilToInt(simd::sqrt(FloatV::load(k2) * l1)), izero);
    const FloatV three(3.0f);
    const FloatV ha = three * simd::sqrt(l1);
    const IntV r3 = simd::ceilToInt(ha);
    const IntV floor_x = simd::floorToInt(cx);
    const IntV floor_y = simd::floorToInt(cy);
    const IntV ceil_x = simd::ceilToInt(cx);
    const IntV ceil_y = simd::ceilToInt(cy);
    // aabbFromRadius(center, r).clipped(width, height)
    auto clipped = [&](const IntV &x0, const IntV &y0, const IntV &x1,
                       const IntV &y1, std::int32_t (&out)[4][kWidth]) {
        simd::maxInt(x0, izero).store(out[0]);
        simd::maxInt(y0, izero).store(out[1]);
        simd::minInt(x1, w1).store(out[2]);
        simd::minInt(y1, h1).store(out[3]);
        // Lane set: the rect is empty.
        return (simd::cmpGt(IntV::load(out[0]), IntV::load(out[2])) |
                simd::cmpGt(IntV::load(out[1]), IntV::load(out[3])))
            .bits();
    };
    auto radius_rect = [&](const IntV &r, std::int32_t (&out)[4][kWidth]) {
        return clipped(floor_x - r, floor_y - r, ceil_x + r, ceil_y + r,
                       out);
    };
    alignas(32) std::int32_t box[4][kWidth], sb[4][kWidth];
    alignas(32) std::int32_t tr[4][kWidth] = {};
    const unsigned screen_empty = radius_rect(r_omega, box);
    // projectGaussian's screen cull: radius_omega == 0 || box.empty().
    const unsigned survivors =
        in_bits & ~simd::cmpEq(r_omega, izero).bits() & ~screen_empty;
    stats.screen_culled +=
        static_cast<std::size_t>(std::popcount(in_bits & ~survivors));
    stats.projected += static_cast<std::size_t>(std::popcount(survivors));
    if (survivors == 0)
        return;
    const IntV r_sb = simd::maxInt(r3, r_omega);
    radius_rect(r_sb, sb);
    unsigned range_empty = 0;
    switch (f.mode) {
      case BoundingMode::Aabb3Sigma:
        range_empty = radius_rect(r3, tr);
        break;
      case BoundingMode::Obb3Sigma: {
        const FloatV nine(9.0f);
        const FloatV exv = simd::sqrt(simd::max(nine * cov2[0][0], zero));
        const FloatV eyv = simd::sqrt(simd::max(nine * cov2[1][1], zero));
        range_empty = clipped(
            simd::floorToInt(cx - exv), simd::floorToInt(cy - eyv),
            simd::ceilToInt(cx + exv), simd::ceilToInt(cy + eyv), tr);
        break;
      }
      case BoundingMode::OmegaSigma:
        range_empty = radius_rect(r_omega, tr);
        break;
      case BoundingMode::Conservative: {
        // (r * 5 + 3) / 4, truncating like int division.
        const IntV n = r_sb.shiftLeft<2>() + r_sb + IntV(3);
        const IntV q = (n + (n.shiftRightArith<31>() & IntV(3)))
                           .shiftRightArith<2>();
        range_empty = radius_rect(q, tr);
        break;
      }
    }
    alignas(32) std::int32_t center[4][kWidth];  // floor x, y; ceil x, y
    floor_x.store(center[0]);
    floor_y.store(center[1]);
    ceil_x.store(center[2]);
    ceil_y.store(center[3]);
    alignas(32) float hb[kWidth], ha_l[kWidth];
    (three * simd::sqrt(l2)).store(hb);
    ha.store(ha_l);
    shBasisLanes(mx, my, mz, c, lanes);

    // ---- Per surviving lane: the libm calls, the SH dot products and
    // the row. ----
    for (unsigned bits = survivors; bits != 0; bits &= bits - 1) {
        const int l = std::countr_zero(bits);
        SplatSoA::Blend row;
        row.cx = lanes.cx[l];
        row.cy = lanes.cy[l];
        row.c00 = lanes.conic[0][l];
        row.c01 = lanes.conic[1][l];
        row.c10 = lanes.conic[2][l];
        row.c11 = lanes.conic[3][l];
        row.opacity = g[l]->opacity;
        const Vec3 color = shColorLane(g[l]->sh, lanes, l);
        row.r = color.x;
        row.g = color.y;
        row.b = color.z;
        const int cutoff_r = cutoffBounds(row.opacity, lanes.l1[l],
                                          lanes.l2[l], f, row.q_skip);
        if (cutoff_r < 0) {
            row.it_x0 = 0;
            row.it_y0 = 0;
            row.it_x1 = f.width - 1;
            row.it_y1 = f.height - 1;
        } else {
            row.it_x0 = std::max(center[0][l] - cutoff_r, 0);
            row.it_y0 = std::max(center[1][l] - cutoff_r, 0);
            row.it_x1 = std::min(center[2][l] + cutoff_r, f.width - 1);
            row.it_y1 = std::min(center[3][l] + cutoff_r, f.height - 1);
        }
        row.sb_x0 = sb[0][l];
        row.sb_y0 = sb[1][l];
        row.sb_x1 = sb[2][l];
        row.sb_y1 = sb[3][l];
        soa.blend.push_back(row);
        soa.id.push_back(ids[l]);
        soa.depth.push_back(lanes.depth[l]);
        TileRange range;  // tileRangeFor: empty, or the rect in tiles
        if (!((range_empty >> l) & 1u)) {
            range.bx0 = tr[0][l] / f.tile;
            range.by0 = tr[1][l] / f.tile;
            range.bx1 = tr[2][l] / f.tile;
            range.by1 = tr[3][l] / f.tile;
        }
        soa.range.push_back(range);
        if (soa.obb_refine) {
            // obbParamsFor over Ellipse's eigen angle.
            const float angle =
                0.5f * std::atan2(lanes.atan_y[l], lanes.atan_x[l]);
            soa.obb.push_back({row.cx, row.cy, std::cos(angle),
                               std::sin(angle), ha_l[l], hb[l]});
        }
    }
}

/** project() over the view's Gaussians [begin, end), serially. */
void
projectRange(const CloudView &view, std::size_t begin, std::size_t end,
             const LaneCamera &c, const RowFrame &f, SplatSoA &soa,
             PreprocessStats &stats)
{
    const Gaussian *group[kWidth];
    std::uint32_t ids[kWidth];
    int count = 0;
    view.forRange(begin, end, [&](std::size_t i, const Gaussian &g) {
        group[count] = &g;
        ids[count] = static_cast<std::uint32_t>(i);
        if (++count == kWidth) {
            projectGroup(group, ids, count, c, f, soa, stats);
            count = 0;
        }
    });
    if (count > 0)
        projectGroup(group, ids, count, c, f, soa, stats);
}

/** Below this population, fan-out overhead dwarfs the projection
 *  work. */
constexpr std::size_t kMinParallelGaussians = 4096;

/** Append @p part's rows to @p soa (depth keys excluded). */
void
appendRows(SplatSoA &soa, const SplatSoA &part)
{
    auto cat = [](auto &dst, const auto &src) {
        dst.insert(dst.end(), src.begin(), src.end());
    };
    cat(soa.blend, part.blend);
    cat(soa.range, part.range);
    cat(soa.obb, part.obb);
    cat(soa.id, part.id);
    cat(soa.depth, part.depth);
}

} // namespace

SplatSoA
SplatSoA::build(const std::vector<Splat> &splats, BoundingMode mode,
                int tile_size, float alpha_cutoff, int width, int height)
{
    const RowFrame f(mode, tile_size, alpha_cutoff, width, height);
    SplatSoA soa;
    soa.obb_refine = mode == BoundingMode::Obb3Sigma;
    reserveRows(soa, splats.size());
    for (const Splat &s : splats)
        appendRow(soa, s, f);
    finishKeys(soa);
    return soa;
}

SplatSoA
SplatSoA::project(const CloudView &view, const Camera &cam,
                  BoundingMode mode, int tile_size, float alpha_cutoff,
                  PreprocessStats &stats, ThreadPool *pool)
{
    const RowFrame f(mode, tile_size, alpha_cutoff, cam.width(),
                     cam.height());
    const LaneCamera c(cam);
    const std::size_t n = view.size();
    stats.total = n;
    SplatSoA soa;
    soa.obb_refine = mode == BoundingMode::Obb3Sigma;
    if (pool == nullptr || pool->workerCount() < 2 ||
        n < kMinParallelGaussians) {
        reserveRows(soa, n / 2);
        projectRange(view, 0, n, c, f, soa, stats);
        finishKeys(soa);
        return soa;
    }

    // Chunked fan-out with a chunk-order merge: rows and summed
    // counters equal the serial pass whatever the scheduling.
    std::vector<SplatSoA> parts;
    std::vector<PreprocessStats> part_stats;
    forEachChunk(pool, n, kMinParallelGaussians / 4,
                 [&](std::size_t k, std::size_t begin, std::size_t end) {
                     parts[k].obb_refine = soa.obb_refine;
                     reserveRows(parts[k], (end - begin) / 2);
                     projectRange(view, begin, end, c, f, parts[k],
                                  part_stats[k]);
                 },
                 [&](std::size_t chunks) {
                     parts.resize(chunks);
                     part_stats.resize(chunks);
                 });
    std::size_t rows = 0;
    for (const SplatSoA &part : parts)
        rows += part.size();
    reserveRows(soa, rows);
    for (std::size_t k = 0; k < parts.size(); ++k) {
        appendRows(soa, parts[k]);
        stats.merge(part_stats[k]);
    }
    finishKeys(soa);
    return soa;
}

} // namespace gcc3d
