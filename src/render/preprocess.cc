#include "render/preprocess.h"

#include "gsmath/simd.h"
#include "runtime/parallel_for.h"

namespace gcc3d {

void
viewDepthsZ(const Gaussian *const *gaussians, std::size_t n,
            const Camera &cam, float *out)
{
    const Mat4 &m = cam.viewMatrix();
    // z row of transformPoint: ((m20*x + m21*y) + m22*z) + m23*1 —
    // the SIMD evaluation preserves this association per lane, and
    // m23*1.0f is bitwise m23, so each lane equals the scalar call.
    const simd::FloatV m20(m(2, 0)), m21(m(2, 1)), m22(m(2, 2));
    const simd::FloatV m23(m(2, 3));

    std::size_t i = 0;
    float mx[simd::kWidth], my[simd::kWidth], mz[simd::kWidth];
    for (; i + simd::kWidth <= n; i += simd::kWidth) {
        for (int l = 0; l < simd::kWidth; ++l) {
            const Vec3 &p = gaussians[i + l]->mean;
            mx[l] = p.x;
            my[l] = p.y;
            mz[l] = p.z;
        }
        simd::FloatV z = m20 * simd::FloatV::load(mx) +
                         m21 * simd::FloatV::load(my) +
                         m22 * simd::FloatV::load(mz) + m23;
        z.store(out + i);
    }
    for (; i < n; ++i)
        out[i] = cam.worldToView(gaussians[i]->mean).z;
}

std::optional<Splat>
projectGaussian(const Gaussian &g, std::uint32_t id, const Camera &cam,
                PreprocessStats *stats)
{
    Vec3 v = cam.worldToView(g.mean);
    if (v.z < cam.nearPlane()) {
        if (stats != nullptr)
            ++stats->near_culled;
        return std::nullopt;
    }
    if (!cam.inFrustum(v)) {
        if (stats != nullptr)
            ++stats->frustum_culled;
        return std::nullopt;
    }
    if (stats != nullptr)
        ++stats->in_frustum;

    // Sigma' = J W Sigma W^T J^T (Eq. 1).
    Mat3 w = cam.viewMatrix().topLeft3x3();
    Mat3 jac = cam.projectionJacobian(v);
    Mat3 jw = jac * w;
    Mat3 cov3 = g.covariance3d();
    Mat3 cov2_full = jw * cov3 * jw.transposed();
    Mat2 cov2 = cov2_full.topLeft2x2();
    // Reference rasterizer's low-pass dilation: every splat is at
    // least ~one pixel wide, which also keeps the conic well-posed.
    cov2(0, 0) += 0.3f;
    cov2(1, 1) += 0.3f;

    Splat s;
    s.id = id;
    s.depth = v.z;
    s.ellipse = Ellipse::fromCovariance(cam.viewToPixel(v), cov2);
    s.opacity = g.opacity;
    s.radius_omega = radiusOmegaSigma(s.ellipse.eig, g.opacity);
    s.radius_3sigma = radius3Sigma(s.ellipse.eig);

    // Screen cull: a splat whose omega-sigma footprint cannot touch
    // the image contributes nothing.
    PixelRect box = aabbFromRadius(s.ellipse.center, s.radius_omega)
                        .clipped(cam.width(), cam.height());
    if (s.radius_omega == 0 || box.empty()) {
        if (stats != nullptr)
            ++stats->screen_culled;
        return std::nullopt;
    }

    if (stats != nullptr)
        ++stats->projected;
    return s;
}

Vec3
shColorFor(const Gaussian &g, const Camera &cam)
{
    return evalShColor(g.sh, g.mean - cam.position());
}

namespace {

/** Serial preprocess of the index range [begin, end). */
void
preprocessRange(const GaussianCloud &cloud, const Camera &cam,
                std::size_t begin, std::size_t end,
                std::vector<Splat> &splats, PreprocessStats &stats)
{
    for (std::size_t i = begin; i < end; ++i) {
        auto s = projectGaussian(cloud[i], static_cast<std::uint32_t>(i),
                                 cam, &stats);
        if (!s)
            continue;
        s->color = shColorFor(cloud[i], cam);
        splats.push_back(*s);
    }
}

/** Below this population, fan-out overhead dwarfs the projection work. */
constexpr std::size_t kMinParallelGaussians = 4096;

} // namespace

std::vector<Splat>
preprocessAll(const GaussianCloud &cloud, const Camera &cam,
              PreprocessStats &stats, ThreadPool *pool)
{
    stats.total = cloud.size();
    if (pool == nullptr || pool->workerCount() < 2 ||
        cloud.size() < kMinParallelGaussians) {
        std::vector<Splat> splats;
        splats.reserve(cloud.size() / 2);
        preprocessRange(cloud, cam, 0, cloud.size(), splats, stats);
        return splats;
    }

    // Chunked fan-out with deterministic chunk-order merge: the
    // concatenated splat list and the summed counters are identical
    // to the serial pass regardless of worker scheduling.
    std::vector<std::vector<Splat>> chunk_splats;
    std::vector<PreprocessStats> chunk_stats;
    forEachChunk(pool, cloud.size(), kMinParallelGaussians / 4,
                 [&](std::size_t c, std::size_t begin, std::size_t end) {
                     chunk_splats[c].reserve((end - begin) / 2);
                     preprocessRange(cloud, cam, begin, end,
                                     chunk_splats[c], chunk_stats[c]);
                 },
                 [&](std::size_t chunk_count) {
                     chunk_splats.resize(chunk_count);
                     chunk_stats.resize(chunk_count);
                 });

    std::size_t produced = 0;
    for (const auto &cs : chunk_splats)
        produced += cs.size();
    std::vector<Splat> splats;
    splats.reserve(produced);
    for (std::size_t c = 0; c < chunk_splats.size(); ++c) {
        splats.insert(splats.end(), chunk_splats[c].begin(),
                      chunk_splats[c].end());
        stats.merge(chunk_stats[c]);
    }
    return splats;
}

} // namespace gcc3d
