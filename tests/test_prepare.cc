/**
 * @file
 * Differential tests of the tile renderer's fused prepare stage.
 *
 * SplatSoA::project (lane-group projection straight into the SoA
 * store, reading a CloudView) must equal SplatSoA::build over
 * preprocessAll of the same Gaussians as one cloud, field for field
 * and bit for bit, with identical PreprocessStats.  The inputs are
 * seeded generated clouds that reach the degenerate regions: means at
 * and behind the near plane, a camera inside the cloud, zero (one
 * axis or all three), tiny and huge scales, zero and unnormalized quaternions, opacity at,
 * just below and just above 1/255, non-positive and ground-truth
 * cutoffs, every BoundingMode, 1x1, ragged and half-resolution
 * viewports, populations that are no multiple of simd::kWidth, and
 * views split into spans of random length.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gsmath/simd.h"
#include "render/splat_soa.h"
#include "render/tile_renderer.h"
#include "runtime/thread_pool.h"
#include "test_util.h"

namespace gcc3d {
namespace {

using test::splitView;

/** A cutoff above 1/255: splats at or below it still project, so the
 *  rows' no-headroom branch is reachable. */
constexpr float kRaisedCutoff = 0.02f;

/** Seeded cloud over the degenerate regions around @p eye. */
GaussianCloud
degenerateCloud(std::uint64_t seed, std::size_t n, const Vec3 &eye)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    std::normal_distribution<float> gauss(0.0f, 1.0f);
    const float below = std::nextafter(kAlphaMin, 0.0f);
    const float above = std::nextafter(kAlphaMin, 1.0f);
    const float opacities[] = {kAlphaMin, below, above, 1.0f,
                               0.0f,      kRaisedCutoff,
                               std::nextafter(kRaisedCutoff, 0.0f)};
    const float scales[] = {0.0f, 1e-30f, 1e-4f, 1e3f, 1e4f};

    GaussianCloud cloud("degenerate");
    for (std::size_t i = 0; i < n; ++i) {
        Gaussian g;
        // Most means spread around the eye (so some lie behind the
        // camera); a few sit exactly on the near plane of an eye at
        // the origin looking down +z.
        g.mean = eye + Vec3(3.0f * u(rng), 3.0f * u(rng), 3.0f * u(rng));
        if (i % 11 == 0)
            g.mean = Vec3(0.05f * u(rng), 0.05f * u(rng), 0.2f);
        const float s = std::exp(-3.0f + 0.8f * gauss(rng));
        g.scale = Vec3(s, s * (0.2f + std::fabs(u(rng))), s);
        if (i % 7 == 0)
            g.scale = Vec3(scales[i % 5], scales[(i / 7) % 5], s);
        if (i % 17 == 0)
            g.scale = Vec3(0.0f, 0.0f, 0.0f);  // signed-zero covariances
        g.rotation = Quat(u(rng), u(rng), u(rng), u(rng));  // unnormalized
        if (i % 13 == 0)
            g.rotation = Quat(0.0f, 0.0f, 0.0f, 0.0f);
        g.opacity = 0.05f + 0.95f * std::fabs(u(rng));
        if (i % 5 == 0)
            g.opacity = opacities[(i / 5) % 7];
        for (float &c : g.sh)
            c = 0.5f * u(rng);
        cloud.add(g);
    }
    return cloud;
}

template <typename T>
::testing::AssertionResult
bitsEqual(const char *field, const std::vector<T> &a, const std::vector<T> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << field << ": " << a.size() << " vs " << b.size() << " rows";
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0)
            return ::testing::AssertionFailure()
                   << field << " differs at row " << i;
    return ::testing::AssertionSuccess();
}

void
expectSoaIdentical(const SplatSoA &got, const SplatSoA &want)
{
    EXPECT_EQ(got.obb_refine, want.obb_refine);
    EXPECT_TRUE(bitsEqual("blend", got.blend, want.blend));
    EXPECT_TRUE(bitsEqual("depth_key", got.depth_key, want.depth_key));
    EXPECT_TRUE(bitsEqual("range", got.range, want.range));
    EXPECT_TRUE(bitsEqual("obb", got.obb, want.obb));
    EXPECT_TRUE(bitsEqual("id", got.id, want.id));
    EXPECT_TRUE(bitsEqual("depth", got.depth, want.depth));
}

void
expectPreIdentical(const PreprocessStats &a, const PreprocessStats &b)
{
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.near_culled, b.near_culled);
    EXPECT_EQ(a.frustum_culled, b.frustum_culled);
    EXPECT_EQ(a.in_frustum, b.in_frustum);
    EXPECT_EQ(a.screen_culled, b.screen_culled);
    EXPECT_EQ(a.projected, b.projected);
}

/** The viewports every case runs: regular, 1x1, ragged, half-res. */
std::vector<Camera>
viewports(const Vec3 &eye, const Vec3 &target)
{
    std::vector<Camera> cams;
    for (auto [w, h] : {std::pair{96, 80}, {1, 1}, {37, 23}}) {
        Camera cam(w, h, 1.1f);
        cam.lookAt(eye, target);
        cams.push_back(cam);
    }
    cams.push_back(cams.front().scaledResolution(0.5f));
    return cams;
}

struct CutoffCase
{
    const char *name;
    float alpha_cutoff;
};

const CutoffCase kCutoffs[] = {
    {"default", kAlphaMin},
    {"ground_truth", TileRendererConfig::groundTruth().alpha_cutoff},
    {"raised", kRaisedCutoff},
    {"zero", 0.0f},
    {"negative", -1.0f},
};

constexpr BoundingMode kModes[] = {
    BoundingMode::Aabb3Sigma, BoundingMode::Obb3Sigma,
    BoundingMode::OmegaSigma, BoundingMode::Conservative};

TEST(FusedPrepare, MatchesPreprocessThenBuildOnGeneratedInputs)
{
    // (eye, target): outside looking in, and inside the cloud at the
    // origin looking down +z (near-plane means land at z' = 0.2).
    const std::pair<Vec3, Vec3> poses[] = {
        {Vec3(0.3f, 0.4f, -6.0f), Vec3(0, 0, 0)},
        {Vec3(0, 0, 0), Vec3(0, 0, 1)},
    };
    int cases = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (const auto &[eye, target] : poses) {
            // 1 and 257 Gaussians: no multiple of any kWidth.
            for (std::size_t n : {std::size_t{1}, std::size_t{257}}) {
                const GaussianCloud cloud = degenerateCloud(seed, n, eye);
                const CloudView view = splitView(cloud, seed * 31 + n);
                for (const Camera &cam : viewports(eye, target)) {
                    PreprocessStats ref_pre;
                    const std::vector<Splat> splats =
                        preprocessAll(cloud, cam, ref_pre);
                    for (const CutoffCase &cut : kCutoffs) {
                        for (BoundingMode mode : kModes) {
                            SCOPED_TRACE(::testing::Message()
                                         << "seed " << seed << " n " << n
                                         << " eye " << eye << " viewport "
                                         << cam.width() << "x"
                                         << cam.height() << " cutoff "
                                         << cut.name << " mode "
                                         << static_cast<int>(mode));
                            const SplatSoA want = SplatSoA::build(
                                splats, mode, 16, cut.alpha_cutoff,
                                cam.width(), cam.height());
                            PreprocessStats pre;
                            const SplatSoA got = SplatSoA::project(
                                view, cam, mode, 16, cut.alpha_cutoff, pre);
                            expectSoaIdentical(got, want);
                            expectPreIdentical(pre, ref_pre);
                            ++cases;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 3 * 2 * 2 * 4 * 5 * 4);
}

TEST(FusedPrepare, GeneratedCasesReachTheDegenerateRegions)
{
    // Guard against a generator drift that would leave a region
    // untested: every cull outcome occurs, a splat projects from the
    // near plane, one just above 1/255, and one at or below the
    // raised cutoff.
    const Vec3 eye(0, 0, 0);
    const GaussianCloud cloud = degenerateCloud(2, 257, eye);
    Camera cam(96, 80, 1.1f);
    cam.lookAt(eye, Vec3(0, 0, 1));
    PreprocessStats pre;
    const std::vector<Splat> splats = preprocessAll(cloud, cam, pre);
    EXPECT_GT(pre.near_culled, 0u);
    EXPECT_GT(pre.frustum_culled, 0u);
    EXPECT_GT(pre.screen_culled, 0u);
    EXPECT_GT(pre.projected, 0u);
    bool near_plane = false, above_min = false, at_cutoff = false;
    for (const Splat &s : splats) {
        near_plane = near_plane || s.depth == cam.nearPlane();
        above_min = above_min ||
                    s.opacity == std::nextafter(kAlphaMin, 1.0f);
        at_cutoff = at_cutoff || s.opacity <= kRaisedCutoff;
    }
    EXPECT_TRUE(near_plane);
    EXPECT_TRUE(above_min);
    EXPECT_TRUE(at_cutoff);
}

TEST(FusedPrepare, PoolFanOutMatchesSerial)
{
    const GaussianCloud cloud = generateScene(test::tinySpec(5, 9001), 1.0f);
    const Camera cam = test::frontCamera();
    ThreadPool pool(3);
    for (BoundingMode mode : kModes) {
        PreprocessStats serial_pre, pooled_pre;
        const SplatSoA serial =
            SplatSoA::project(CloudView(cloud), cam, mode, 16, kAlphaMin,
                              serial_pre);
        const SplatSoA pooled =
            SplatSoA::project(splitView(cloud, 7), cam, mode, 16, kAlphaMin,
                              pooled_pre, &pool);
        expectSoaIdentical(pooled, serial);
        expectPreIdentical(pooled_pre, serial_pre);
    }
}

TEST(FusedPrepare, SplitViewRendersLikeTheReference)
{
    // End to end: a frame rendered from a view of many spans equals
    // the scalar reference over the same Gaussians as one cloud.
    const Vec3 eye(0.3f, 0.4f, -6.0f);
    const GaussianCloud cloud = degenerateCloud(9, 1005, eye);
    for (const Camera &cam : viewports(eye, Vec3(0, 0, 0))) {
        for (BoundingMode mode : kModes) {
            TileRendererConfig cfg;
            cfg.bounding = mode;
            const TileRenderer renderer(cfg);
            StandardFlowStats ref_stats, stats;
            const Image ref = renderer.renderReference(cloud, cam, ref_stats);
            const Image got =
                renderer.render(splitView(cloud, 3), cam, stats);
            EXPECT_TRUE(test::imagesBitIdentical(got, ref));
            expectPreIdentical(stats.pre, ref_stats.pre);
            EXPECT_EQ(stats.kv_pairs, ref_stats.kv_pairs);
            EXPECT_EQ(stats.alpha_evals, ref_stats.alpha_evals);
            EXPECT_EQ(stats.blend_ops, ref_stats.blend_ops);
            EXPECT_EQ(stats.rendered_gaussians, ref_stats.rendered_gaussians);
        }
    }
}

} // namespace
} // namespace gcc3d
