/** @file Tests for the clustered LOD subsystem (src/lod/). */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "lod/lod_builder.h"
#include "lod/lod_scene.h"
#include "lod/residency.h"
#include "obs/fault_hooks.h"
#include "render/gaussian_wise_renderer.h"
#include "render/metrics.h"
#include "render/preprocess.h"
#include "render/tile_renderer.h"
#include "runtime/sweep_runner.h"
#include "serve/fleet.h"
#include "serve/frame_scheduler.h"
#include "test_util.h"

namespace gcc3d {
namespace {

std::string
tempLodPath(const std::string &tag)
{
    return ::testing::TempDir() + "/lod-" + tag + ".gsc";
}

// ---- moment-matched merging ----

TEST(LodMerge, SingleMemberIsIdentity)
{
    std::vector<Gaussian> src = {test::makeGaussian(Vec3(1, 2, 3), 0.2f)};
    std::uint32_t idx = 0;
    Gaussian m = mergeGaussians(src, &idx, 1);
    EXPECT_EQ(m.mean, src[0].mean);
    EXPECT_EQ(m.scale, src[0].scale);
    EXPECT_EQ(m.opacity, src[0].opacity);
    EXPECT_EQ(m.sh, src[0].sh);
}

TEST(LodMerge, PreservesWeightedMoments)
{
    // A spread of Gaussians with varied scale/opacity: the proxy must
    // match the mixture's weighted mean and second moment.
    std::vector<Gaussian> src;
    std::vector<std::uint32_t> idx;
    std::mt19937 rng(3);
    std::uniform_real_distribution<float> u(0.0f, 1.0f);
    for (int i = 0; i < 40; ++i) {
        Gaussian g = test::makeGaussian(
            Vec3(u(rng) * 2.0f, u(rng), u(rng) - 0.5f),
            0.02f + 0.1f * u(rng), 0.2f + 0.7f * u(rng));
        g.scale.y *= 1.0f + u(rng);  // anisotropic members
        src.push_back(g);
        idx.push_back(static_cast<std::uint32_t>(i));
    }
    Gaussian m = mergeGaussians(src, idx.data(), idx.size());

    auto area = [](const Vec3 &s) {
        return s.x * s.y + s.y * s.z + s.z * s.x;
    };
    double wsum = 0.0, mean[3] = {0, 0, 0};
    double m2[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
    double oa = 0.0;
    for (const Gaussian &g : src) {
        double w = static_cast<double>(g.opacity) * area(g.scale);
        double p[3] = {g.mean.x, g.mean.y, g.mean.z};
        Mat3 cov = g.covariance3d();
        wsum += w;
        for (int r = 0; r < 3; ++r) {
            mean[r] += w * p[r];
            for (int c = 0; c < 3; ++c)
                m2[r][c] += w * (cov(static_cast<size_t>(r),
                                     static_cast<size_t>(c)) +
                                 p[r] * p[c]);
        }
        oa += static_cast<double>(g.opacity) * area(g.scale);
    }
    for (int r = 0; r < 3; ++r)
        mean[r] /= wsum;

    // Mean invariant.
    EXPECT_NEAR(m.mean.x, mean[0], 1e-4);
    EXPECT_NEAR(m.mean.y, mean[1], 1e-4);
    EXPECT_NEAR(m.mean.z, mean[2], 1e-4);

    // Second-moment invariant: the proxy's covariance equals the
    // mixture covariance (trace compared; the full matrix is rotated
    // into the eigenbasis, so compare rotation-invariant quantities).
    Mat3 pcov = m.covariance3d();
    double mix_trace = 0.0;
    for (int r = 0; r < 3; ++r)
        mix_trace += m2[r][r] / wsum - mean[r] * mean[r];
    double proxy_trace = pcov(0, 0) + pcov(1, 1) + pcov(2, 2);
    EXPECT_NEAR(proxy_trace, mix_trace, mix_trace * 0.02);

    // Opacity x area conservation (up to the [0.02, 0.99] clamp).
    double proxy_oa = static_cast<double>(m.opacity) * area(m.scale);
    if (m.opacity < 0.985f) {
        EXPECT_NEAR(proxy_oa, oa, oa * 0.05);
    }
    EXPECT_GT(m.opacity, 0.0f);
    EXPECT_LE(m.opacity, 0.99f);
}

TEST(LodMerge, CollinearMembersStayFinite)
{
    // Degenerate case: members on a line; the eigensolver must still
    // produce finite scales and a unit rotation.
    std::vector<Gaussian> src;
    std::vector<std::uint32_t> idx;
    for (int i = 0; i < 8; ++i) {
        src.push_back(test::makeGaussian(
            Vec3(static_cast<float>(i) * 0.1f, 0, 0), 1e-4f));
        idx.push_back(static_cast<std::uint32_t>(i));
    }
    Gaussian m = mergeGaussians(src, idx.data(), idx.size());
    EXPECT_TRUE(std::isfinite(m.scale.x));
    EXPECT_TRUE(std::isfinite(m.scale.y));
    EXPECT_TRUE(std::isfinite(m.scale.z));
    EXPECT_GT(m.scale.x * m.scale.y * m.scale.z, 0.0f);
    EXPECT_NEAR(m.rotation.norm(), 1.0f, 1e-4f);
}

TEST(LodBuilder, ProxyLevelShrinksPopulation)
{
    GaussianCloud cloud = generateScene(test::tinySpec(31, 2000), 1.0f);
    Vec3 lo, hi;
    cloud.bounds(lo, hi);
    std::vector<Gaussian> proxies =
        buildProxyLevel(cloud.gaussians(), lo, hi, 32);
    EXPECT_GE(proxies.size(), 1u);
    EXPECT_LT(proxies.size(), cloud.size() / 4);
    // Deterministic: same inputs, same proxies.
    std::vector<Gaussian> again =
        buildProxyLevel(cloud.gaussians(), lo, hi, 32);
    ASSERT_EQ(again.size(), proxies.size());
    for (std::size_t i = 0; i < proxies.size(); ++i)
        EXPECT_EQ(again[i].mean, proxies[i].mean);
}

// ---- LOD file + scene ----

TEST(LodScene, LodOffDecodeIsBitIdenticalToSource)
{
    // The acceptance contract: a lossless v2 LOD file with LOD
    // disabled reproduces the source cloud bit for bit, and renders
    // bit-identical pixels.
    GaussianCloud cloud = generateScene(test::tinySpec(32, 1500), 1.0f);
    const std::string path = tempLodPath("bitexact");
    LodBuildConfig cfg;
    cfg.chunk_target = 128;
    cfg.proxy_levels = 2;
    cfg.quantize = false;
    ASSERT_TRUE(buildLodFile(cloud, path, cfg));

    LodScene lod(path, 16u << 20);
    ASSERT_EQ(lod.totalCount(), cloud.size());
    GaussianCloud full = lod.fullCloud();
    ASSERT_EQ(full.size(), cloud.size());
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        EXPECT_EQ(full[i].mean, cloud[i].mean);
        EXPECT_EQ(full[i].scale, cloud[i].scale);
        EXPECT_EQ(full[i].rotation.w, cloud[i].rotation.w);
        EXPECT_EQ(full[i].rotation.x, cloud[i].rotation.x);
        EXPECT_EQ(full[i].rotation.y, cloud[i].rotation.y);
        EXPECT_EQ(full[i].rotation.z, cloud[i].rotation.z);
        EXPECT_EQ(full[i].opacity, cloud[i].opacity);
        EXPECT_EQ(full[i].sh, cloud[i].sh);
    }

    // loadCloud on the same file (the v1-compatible entry point) sees
    // the identical cloud too.
    GaussianCloud negotiated = loadCloudFile(path);
    ASSERT_EQ(negotiated.size(), cloud.size());
    EXPECT_EQ(negotiated[0].mean, cloud[0].mean);

    Camera cam = test::frontCamera();
    TileRenderer renderer{TileRendererConfig{}};
    StandardFlowStats s1, s2;
    double a = imageChecksum(renderer.render(cloud, cam, s1));
    double b = imageChecksum(renderer.render(full, cam, s2));
    EXPECT_EQ(a, b);

    std::filesystem::remove(path);
}

TEST(LodScene, ForcedLeafCutEqualsFullScene)
{
    GaussianCloud cloud = generateScene(test::tinySpec(33, 1200), 1.0f);
    const std::string path = tempLodPath("leafcut");
    LodBuildConfig cfg;
    cfg.chunk_target = 100;
    cfg.quantize = false;
    ASSERT_TRUE(buildLodFile(cloud, path, cfg));

    LodScene lod(path, 16u << 20);
    LodCutParams params;
    params.force_level = 0;
    LodCutStats stats;
    GaussianCloud cut = lod.buildCut(test::frontCamera(), params, &stats);
    // Every Gaussian selected (chunk order differs from source order);
    // the cloud holds all but those of chunks outside the frustum.
    EXPECT_EQ(stats.cut_gaussians, cloud.size());
    EXPECT_EQ(cut.size() + stats.culled_gaussians, cloud.size());
    EXPECT_EQ(stats.leaf_gaussians, cloud.size());
    EXPECT_EQ(stats.proxy_chunks, 0u);
    EXPECT_EQ(stats.leaf_chunks, lod.chunkCount());

    std::filesystem::remove(path);
}

TEST(LodScene, CoarserLevelsShrinkTheCut)
{
    GaussianCloud cloud = generateScene(test::tinySpec(34, 2000), 1.0f);
    const std::string path = tempLodPath("levels");
    LodBuildConfig cfg;
    cfg.chunk_target = 200;
    cfg.proxy_levels = 3;
    cfg.proxy_base = 16;
    ASSERT_TRUE(buildLodFile(cloud, path, cfg));

    LodScene lod(path, 16u << 20);
    Camera cam = test::frontCamera();
    std::size_t prev = cloud.size() + 1;
    for (int level = 0; level <= lod.proxyLevels(); ++level) {
        LodCutParams params;
        params.force_level = level;
        GaussianCloud cut = lod.buildCut(cam, params);
        EXPECT_LT(cut.size(), prev) << "level " << level;
        EXPECT_GE(cut.size(), 1u);
        prev = cut.size();
    }

    std::filesystem::remove(path);
}

TEST(LodScene, CutIsIndependentOfCacheState)
{
    GaussianCloud cloud = generateScene(test::tinySpec(35, 1500), 1.0f);
    const std::string path = tempLodPath("purecut");
    LodBuildConfig cfg;
    cfg.chunk_target = 64;
    cfg.quantize = false;
    ASSERT_TRUE(buildLodFile(cloud, path, cfg));

    // A tiny budget (single chunk at best) and a roomy one must
    // produce identical cuts for the same camera.
    LodScene tight(path, 64u * 1024);
    LodScene roomy(path, 64u << 20);
    LodCutParams params;
    params.force_level = 0;
    Camera cam = test::frontCamera();
    GaussianCloud a = tight.buildCut(cam, params);
    GaussianCloud warm = roomy.buildCut(cam, params);
    GaussianCloud b = roomy.buildCut(cam, params);  // cache now warm
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].mean, b[i].mean);

    // The tight budget was honoured while producing the same data.
    EXPECT_LE(tight.residencyStats().peak_resident_bytes, 64u * 1024);

    std::filesystem::remove(path);
}

TEST(LodScene, RepeatedCutLargerThanBudgetKeepsItsCachedLeaves)
{
    // The cut's leaves outnumber the budget.  Fetched in index order,
    // LRU would evict every cached leaf just before the next cut
    // reaches it (all misses); fetching cached leaves first makes
    // the repeat hit every leaf the first cut left cached.
    GaussianCloud cloud = generateScene(test::tinySpec(43, 1200), 1.0f);
    const std::string path = tempLodPath("repeat");
    LodBuildConfig cfg;
    cfg.chunk_target = 100;
    cfg.quantize = false;
    ASSERT_TRUE(buildLodFile(cloud, path, cfg));

    const std::size_t budget = 128u * 1024;  // under half the leaves
    ASSERT_LT(budget, cloud.size() * Gaussian::kTotalBytes / 2);
    LodScene lod(path, budget);
    LodCutParams params;
    params.force_level = 0;
    const Camera cam = test::frontCamera();
    const GaussianCloud first = lod.buildCut(cam, params);
    const ResidencyManager::Stats s1 = lod.residencyStats();
    const GaussianCloud again = lod.buildCut(cam, params);
    const ResidencyManager::Stats s2 = lod.residencyStats();

    const std::uint64_t hits = s2.hits - s1.hits;
    const std::uint64_t faults = s2.faults - s1.faults;
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(hits + faults, lod.chunkCount());
    EXPECT_LE(s2.peak_resident_bytes, budget);
    ASSERT_EQ(first.size(), again.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i].mean, again[i].mean);

    std::filesystem::remove(path);
}

TEST(LodScene, SpanCutRendersLikeTheCopiedCut)
{
    // Both renderers read a cut's resident spans in place; the copied
    // cut is the same Gaussians in the same order, so images, stats
    // and temporal counters agree bit for bit.  The budget holds
    // a few chunks, so pinned leaves get evicted mid-frame; the pins
    // never count against the budget, and dropping them leaves the
    // resident bytes where the cut left them.
    GaussianCloud cloud = generateScene(test::tinySpec(38, 3000), 1.0f);
    const std::string path = tempLodPath("span-cut");
    LodBuildConfig cfg;
    cfg.chunk_target = 128;
    ASSERT_TRUE(buildLodFile(cloud, path, cfg));

    const std::size_t budget = 4 * 128 * Gaussian::kTotalBytes;
    LodScene span_lod(path, budget), copy_lod(path, budget);
    LodCutParams params;
    params.tau = 0.3f;
    const TileRenderer tile{TileRendererConfig{}};
    TemporalCache span_cache, copy_cache;
    obs::Counter &copied_bytes =
        obs::MetricsRegistry::global().counter("lod.cut.copied_bytes");
    obs::Counter &scanned = obs::MetricsRegistry::global().counter(
        "render.tile.prepare.scanned");
    obs::Counter &projected = obs::MetricsRegistry::global().counter(
        "render.tile.prepare.projected");
    for (int f = 0; f < 4; ++f) {
        SCOPED_TRACE(::testing::Message() << "frame " << f);
        Camera cam = test::frontCamera();
        cam.lookAt(Vec3(0.4f * f, 0.5f, -4.0f + 0.5f * f), Vec3(0, 0, 0));

        const std::int64_t copied_before = copied_bytes.value();
        LodCutStats span_stats, copy_stats;
        std::size_t resident_with_pins = 0;
        Image span_image, span_warm, copy_image, copy_warm;
        StandardFlowStats span_flow, copy_flow, span_temporal, copy_temporal;
        {
            const LodCut cut = span_lod.cut(cam, params, &span_stats);
            EXPECT_EQ(copied_bytes.value(), copied_before);  // no copy
            resident_with_pins = span_lod.residencyStats().resident_bytes;
            const std::int64_t scanned_before = scanned.value();
            const std::int64_t projected_before = projected.value();
            span_image = tile.render(cut.view, cam, span_flow);
            span_warm = tile.renderTemporal(cut.view, cam, span_temporal,
                                            span_cache);
            // Flushed once per frame: the view's size and the rows.
            EXPECT_EQ(scanned.value() - scanned_before,
                      GCC3D_OBS_ENABLED
                          ? static_cast<std::int64_t>(2 * cut.view.size())
                          : 0);
            EXPECT_EQ(projected.value() - projected_before,
                      GCC3D_OBS_ENABLED
                          ? static_cast<std::int64_t>(
                                span_flow.pre.projected +
                                span_temporal.pre.projected)
                          : 0);
        }
        EXPECT_EQ(span_lod.residencyStats().resident_bytes,
                  resident_with_pins);
        EXPECT_LE(span_lod.residencyStats().peak_resident_bytes, budget);

        const GaussianCloud copied = copy_lod.buildCut(cam, params, &copy_stats);
        EXPECT_EQ(copied_bytes.value() - copied_before,
                  GCC3D_OBS_ENABLED
                      ? static_cast<std::int64_t>(copied.size() *
                                                  sizeof(Gaussian))
                      : 0);
        EXPECT_EQ(copy_lod.residencyStats().resident_bytes,
                  resident_with_pins);
        copy_image = tile.render(copied, cam, copy_flow);
        copy_warm =
            tile.renderTemporal(copied, cam, copy_temporal, copy_cache);

        EXPECT_EQ(span_stats.cut_gaussians, copy_stats.cut_gaussians);
        EXPECT_EQ(span_stats.leaf_gaussians, copy_stats.leaf_gaussians);
        EXPECT_EQ(span_stats.culled_gaussians, copy_stats.culled_gaussians);
        EXPECT_TRUE(test::imagesBitIdentical(span_image, copy_image));
        EXPECT_TRUE(test::imagesBitIdentical(span_warm, copy_warm));
        EXPECT_TRUE(test::imagesBitIdentical(span_warm, span_image));
        for (const auto &[a, b] : {std::pair{&span_flow, &copy_flow},
                                   {&span_temporal, &copy_temporal}}) {
            EXPECT_EQ(a->pre.total, b->pre.total);
            EXPECT_EQ(a->pre.projected, b->pre.projected);
            EXPECT_EQ(a->pre.screen_culled, b->pre.screen_culled);
            EXPECT_EQ(a->kv_pairs, b->kv_pairs);
            EXPECT_EQ(a->alpha_evals, b->alpha_evals);
            EXPECT_EQ(a->blend_ops, b->blend_ops);
            EXPECT_EQ(a->rendered_gaussians, b->rendered_gaussians);
            EXPECT_EQ(a->subtile_passes, b->subtile_passes);
            EXPECT_EQ(a->sort_pass_keys, b->sort_pass_keys);
        }
        EXPECT_EQ(span_cache.counters().incremental_frames,
                  copy_cache.counters().incremental_frames);
        EXPECT_EQ(span_cache.counters().tiles_rastered,
                  copy_cache.counters().tiles_rastered);

        // The Gaussian-wise renderer reads the cut in place too, full
        // view and 64 px Cmode.
        for (int subview : {0, 64}) {
            SCOPED_TRACE(::testing::Message() << "gw subview " << subview);
            GaussianWiseConfig gw_cfg;
            gw_cfg.subview_size = subview;
            const GaussianWiseRenderer gw(gw_cfg);
            GaussianWiseStats span_gw, copy_gw;
            Image span_gw_image;
            {
                const std::int64_t gw_copied_before = copied_bytes.value();
                const LodCut cut = span_lod.cut(cam, params);
                span_gw_image = gw.render(cut.view, cam, span_gw);
                EXPECT_EQ(copied_bytes.value(), gw_copied_before);
            }
            const Image copy_gw_image = gw.render(copied, cam, copy_gw);
            EXPECT_TRUE(test::imagesBitIdentical(span_gw_image, copy_gw_image));
            EXPECT_EQ(span_gw.total, copy_gw.total);
            EXPECT_EQ(span_gw.depth_culled, copy_gw.depth_culled);
            EXPECT_EQ(span_gw.projected, copy_gw.projected);
            EXPECT_EQ(span_gw.survived_cull, copy_gw.survived_cull);
            EXPECT_EQ(span_gw.sh_evaluated, copy_gw.sh_evaluated);
            EXPECT_EQ(span_gw.rendered_gaussians,
                      copy_gw.rendered_gaussians);
            EXPECT_EQ(span_gw.skipped_by_termination,
                      copy_gw.skipped_by_termination);
            EXPECT_EQ(span_gw.groups, copy_gw.groups);
            EXPECT_EQ(span_gw.groups_processed, copy_gw.groups_processed);
            EXPECT_EQ(span_gw.stage2_invocations,
                      copy_gw.stage2_invocations);
            EXPECT_EQ(span_gw.bin_records, copy_gw.bin_records);
            EXPECT_EQ(span_gw.alpha_evals, copy_gw.alpha_evals);
            EXPECT_EQ(span_gw.blend_ops, copy_gw.blend_ops);
            EXPECT_EQ(span_gw.visited_blocks, copy_gw.visited_blocks);
            EXPECT_EQ(span_gw.group_trace.size(),
                      copy_gw.group_trace.size());
            EXPECT_GT(span_gw.blend_ops, 0);
            if (subview > 0) {
                EXPECT_GT(span_gw.bin_records, 0);
            }
        }
    }
    EXPECT_GT(span_lod.residencyStats().evictions, 0u);
    std::filesystem::remove(path);
}

TEST(LodScene, QuantizedCutRendersCloseToSource)
{
    GaussianCloud cloud = generateScene(test::tinySpec(36, 1500), 1.0f);
    const std::string path = tempLodPath("psnr");
    LodBuildConfig cfg;
    cfg.chunk_target = 128;
    ASSERT_TRUE(buildLodFile(cloud, path, cfg));  // quantized

    LodScene lod(path, 16u << 20);
    LodCutParams params;
    params.force_level = 0;
    Camera cam = test::frontCamera();
    TileRenderer renderer{TileRendererConfig{}};
    StandardFlowStats s1, s2;
    Image ref = renderer.render(cloud, cam, s1);
    Image got = renderer.render(lod.buildCut(cam, params), cam, s2);
    // Quantization noise only: far above any proxy-level floor.
    EXPECT_GT(psnr(ref, got), 45.0);

    std::filesystem::remove(path);
}

// ---- streamed builder ----

TEST(LodBuilder, StreamedBuildIsDeterministicAndComplete)
{
    SceneSpec spec = test::tinySpec(37, 5000);
    const std::string p1 = tempLodPath("stream1");
    const std::string p2 = tempLodPath("stream2");
    LodBuildConfig cfg;
    cfg.chunk_target = 256;
    cfg.stream_batch = 1024;   // force many batches
    cfg.flush_cap = 2048;      // force mid-build flushes
    ASSERT_TRUE(buildLodFileStreamed(spec, 5000, p1, cfg));
    ASSERT_TRUE(buildLodFileStreamed(spec, 5000, p2, cfg));

    // Byte-identical across runs.
    std::ifstream f1(p1, std::ios::binary), f2(p2, std::ios::binary);
    std::string d1((std::istreambuf_iterator<char>(f1)),
                   std::istreambuf_iterator<char>());
    std::string d2((std::istreambuf_iterator<char>(f2)),
                   std::istreambuf_iterator<char>());
    EXPECT_EQ(d1, d2);
    EXPECT_FALSE(d1.empty());

    // Every generated Gaussian present exactly once.
    LodScene lod(p1, 16u << 20);
    EXPECT_EQ(lod.totalCount(), 5000u);
    EXPECT_EQ(lod.fullCloud().size(), 5000u);

    std::filesystem::remove(p1);
    std::filesystem::remove(p2);
}

// ---- leaf decode ----

/** FNV-1a over every decoded field of @p cloud, in cloud order. */
std::uint64_t
cloudDigest(const GaussianCloud &cloud)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](float v) {
        const auto bits = std::bit_cast<std::uint32_t>(v);
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    };
    for (const Gaussian &g : cloud.gaussians()) {
        for (float v : {g.mean.x, g.mean.y, g.mean.z, g.scale.x, g.scale.y,
                        g.scale.z, g.rotation.w, g.rotation.x, g.rotation.y,
                        g.rotation.z, g.opacity})
            mix(v);
        for (float v : g.sh)
            mix(v);
    }
    return h;
}

/** Every Gaussian of @p a equals @p b's at the same index, bit for bit. */
::testing::AssertionResult
sameGaussians(const GaussianCloud &a, const GaussianCloud &b)
{
    static_assert(sizeof(Gaussian) == Gaussian::kTotalBytes);
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "sizes " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(Gaussian)) != 0)
            return ::testing::AssertionFailure() << "first difference at " << i;
    return ::testing::AssertionSuccess();
}

TEST(LodScene, QuantizedDecodeDigestIsPinned)
{
    // Digests of the leaf decode (fullCloud and loadCloud) and of the
    // footer proxy decode (a level-1 cut) of a small quantized file,
    // recorded before leaf decoding moved to an in-memory decoder: a
    // decoder change that moves any bit of any field fails here.
    GaussianCloud cloud = generateScene(test::tinySpec(40, 1000), 1.0f);
    const std::string path = tempLodPath("digest");
    LodBuildConfig cfg;
    cfg.chunk_target = 128;
    cfg.proxy_levels = 2;
    ASSERT_TRUE(buildLodFile(cloud, path, cfg));

    LodScene lod(path, 16u << 20);
    GaussianCloud full = lod.fullCloud();
    ASSERT_EQ(full.size(), cloud.size());
    EXPECT_EQ(cloudDigest(full), 0x86bce6ccf349a85cULL);
    EXPECT_EQ(cloudDigest(loadCloudFile(path)), cloudDigest(full));

    LodCutParams params;
    params.force_level = 1;
    EXPECT_EQ(cloudDigest(lod.buildCut(test::frontCamera(), params)),
              0x72a5cf7a485a7c2fULL);

    std::filesystem::remove(path);
}

/** The directory of the v2 file at @p path. */
GscV2Reader
readDirectory(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return GscV2Reader(in);
}

TEST(LodScene, LeafIndexOutOfRangeFallsBackOrThrows)
{
    GaussianCloud cloud = generateScene(test::tinySpec(41, 600), 1.0f);
    LodCutParams params;
    params.force_level = 0;
    for (int levels : {0, 1}) {
        const std::string path = tempLodPath("badindex");
        LodBuildConfig cfg;
        cfg.chunk_target = 100;
        cfg.proxy_levels = levels;
        ASSERT_TRUE(buildLodFile(cloud, path, cfg));

        // Point chunk 0's first record at a source index past the end.
        const std::uint64_t first = readDirectory(path).chunk(0).offset;
        {
            std::fstream f(path,
                           std::ios::in | std::ios::out | std::ios::binary);
            const std::uint32_t bad = 0xffffffffu;
            f.seekp(static_cast<std::streamoff>(first));
            f.write(reinterpret_cast<const char *>(&bad), sizeof bad);
            ASSERT_TRUE(f.good());
        }

        // The directory is intact, so the file opens; the bad chunk
        // degrades to its proxy, or throws when there is none.
        LodScene lod(path, 16u << 20);
        if (levels > 0) {
            LodCutStats stats;
            lod.buildCut(test::frontCamera(), params, &stats);
            EXPECT_EQ(stats.proxy_fallbacks, 1u);
            EXPECT_EQ(stats.leaf_chunks, lod.chunkCount() - 1);
        } else {
            EXPECT_THROW(lod.buildCut(test::frontCamera(), params),
                         std::runtime_error);
        }
        EXPECT_THROW(lod.fullCloud(), std::runtime_error);
        EXPECT_THROW(loadCloudFile(path), std::runtime_error);
        std::filesystem::remove(path);
    }
}

TEST(LodScene, FileCutMidChunkFailsCleanly)
{
    GaussianCloud cloud = generateScene(test::tinySpec(42, 600), 1.0f);
    const std::string path = tempLodPath("cut");
    LodBuildConfig cfg;
    cfg.chunk_target = 100;
    cfg.proxy_levels = 1;
    ASSERT_TRUE(buildLodFile(cloud, path, cfg));
    const GscV2Reader dir = readDirectory(path);
    // A few bytes into the last chunk's first record.
    const std::uint64_t cut_at = dir.chunk(dir.chunkCount() - 1).offset + 10;

    // Cut before it is opened: the footer is gone, nothing opens.
    const std::string copy = tempLodPath("cut-copy");
    std::filesystem::copy_file(
        path, copy, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(copy, cut_at);
    EXPECT_THROW(LodScene(copy, 16u << 20), std::runtime_error);
    EXPECT_THROW(loadCloudFile(copy), std::runtime_error);

    // Cut while open: the directory is in memory, but the last
    // chunk's read comes up short.  The cut falls back to its proxy.
    LodScene lod(path, 16u << 20);
    std::filesystem::resize_file(path, cut_at);
    LodCutParams params;
    params.force_level = 0;
    LodCutStats stats;
    lod.buildCut(test::frontCamera(), params, &stats);
    EXPECT_EQ(stats.proxy_fallbacks, 1u);
    EXPECT_EQ(stats.leaf_chunks, lod.chunkCount() - 1);
    EXPECT_THROW(lod.fullCloud(), std::runtime_error);

    std::filesystem::remove(path);
    std::filesystem::remove(copy);
}

// ---- frustum cull ----

/** A generated file's directory and every chunk's decoded leaves. */
struct DecodedLodFile
{
    GscV2Reader dir;
    std::vector<std::vector<Gaussian>> leaves;

    explicit DecodedLodFile(const std::string &path)
        : dir(readDirectory(path)), leaves(dir.chunkCount())
    {
        std::ifstream in(path, std::ios::binary);
        std::vector<unsigned char> payload;
        std::vector<std::uint32_t> indices;
        for (std::size_t i = 0; i < dir.chunkCount(); ++i) {
            dir.readChunk(in, i, payload);
            dir.decodeChunk(i, payload, leaves[i], indices);
        }
    }

    /** Chunk @p i's Gaussians at @p level (0 = leaves). */
    const std::vector<Gaussian> &
    atLevel(std::size_t i, int level) const
    {
        return level == 0
                   ? leaves[i]
                   : dir.chunk(i).proxies[static_cast<std::size_t>(level - 1)];
    }

    /** Every chunk at @p level in chunk order: the cut with no cull. */
    GaussianCloud
    unculledCut(int level) const
    {
        GaussianCloud cut(dir.name());
        for (std::size_t i = 0; i < dir.chunkCount(); ++i)
            cut.append(atLevel(i, level));
        return cut;
    }
};

/** tinySpec's cloud plus a flat cluster well above it (its chunk's
 *  AABB has zero y extent), written with @p levels proxy levels. */
void
writeCullScene(const std::string &path, bool quantize, int levels)
{
    GaussianCloud cloud = generateScene(test::tinySpec(44, 1500), 1.0f);
    for (int k = 0; k < 64; ++k)
        cloud.add(test::makeGaussian(
            Vec3(-0.4f + 0.1f * static_cast<float>(k % 8), 5.0f,
                 -0.4f + 0.1f * static_cast<float>(k / 8)),
            0.05f));
    LodBuildConfig cfg;
    cfg.chunk_target = 64;
    cfg.proxy_levels = levels;
    cfg.proxy_base = 8;
    cfg.quantize = quantize;
    EXPECT_TRUE(buildLodFile(cloud, path, cfg));
}

/** The cameras both cull properties are checked from. */
std::vector<std::pair<std::string, Camera>>
cullCameras()
{
    std::vector<std::pair<std::string, Camera>> cams;
    cams.emplace_back("front", test::frontCamera());
    Camera inside = test::frontCamera();
    inside.lookAt(Vec3(0.2f, 0.1f, 0.3f), Vec3(1.0f, 0.0f, 1.0f));
    cams.emplace_back("inside", inside);
    Camera straddle = test::frontCamera();
    straddle.setNearPlane(4.0f);  // the near plane cuts the cloud
    cams.emplace_back("straddle", straddle);
    Camera away = test::frontCamera();
    away.lookAt(Vec3(0.0f, 0.5f, -4.0f), Vec3(0.0f, 0.5f, -8.0f));
    cams.emplace_back("away", away);
    cams.emplace_back("1x1", test::frontCamera(1, 1));
    cams.emplace_back("half", test::frontCamera().scaledResolution(0.5f));
    return cams;
}

TEST(LodCull, RejectedChunksHoldNoGaussianThatProjects)
{
    for (bool quantize : {false, true}) {
        for (int levels = 0; levels <= 3; ++levels) {
            SCOPED_TRACE(::testing::Message()
                         << "quantize " << quantize << " levels " << levels);
            const std::string path = tempLodPath("cull-conservative");
            writeCullScene(path, quantize, levels);
            const DecodedLodFile file(path);
            std::size_t flat = 0;
            for (std::size_t i = 0; i < file.dir.chunkCount(); ++i)
                if (file.dir.chunk(i).lo.y == file.dir.chunk(i).hi.y)
                    flat = i;
            ASSERT_EQ(file.dir.chunk(flat).lo.y, 5.0f);

            for (const auto &[name, cam] : cullCameras()) {
                std::size_t rejected = 0;
                for (std::size_t i = 0; i < file.dir.chunkCount(); ++i) {
                    const GscV2ChunkInfo &info = file.dir.chunk(i);
                    if (!cam.boxOutsideFrustum(info.lo, info.hi))
                        continue;
                    ++rejected;
                    for (int level = 0; level <= levels; ++level)
                        for (const Gaussian &g : file.atLevel(i, level))
                            EXPECT_FALSE(projectGaussian(g, 0, cam, nullptr))
                                << name << " chunk " << i << " level "
                                << level;
                }
                if (name == "away") {
                    EXPECT_EQ(rejected, file.dir.chunkCount());
                } else if (name == "front") {
                    // The flat chunk lies above the top plane.
                    EXPECT_TRUE(cam.boxOutsideFrustum(
                        file.dir.chunk(flat).lo, file.dir.chunk(flat).hi));
                }
            }
            std::filesystem::remove(path);
        }
    }
}

TEST(LodCull, CulledCutRendersLikeTheUnculledCut)
{
    GaussianWiseConfig cmode;
    cmode.subview_size = 64;
    const TileRenderer tile{TileRendererConfig{}};
    const GaussianWiseRenderer gw_full{GaussianWiseConfig{}};
    const GaussianWiseRenderer gw_cmode{cmode};
    for (bool quantize : {false, true}) {
        for (int levels = 0; levels <= 3; ++levels) {
            const std::string path = tempLodPath("cull-exact");
            writeCullScene(path, quantize, levels);
            const DecodedLodFile file(path);
            LodScene lod(path, 16u << 20);
            for (const auto &[name, cam] : cullCameras()) {
                for (int level = -1; level <= levels; ++level) {
                    SCOPED_TRACE(::testing::Message()
                                 << "quantize " << quantize << " levels "
                                 << levels << " camera " << name
                                 << " level " << level);
                    LodCutParams params;
                    params.force_level = level;
                    LodCutStats stats;
                    const GaussianCloud cut = lod.buildCut(cam, params, &stats);
                    EXPECT_EQ(cut.size(),
                              stats.cut_gaussians - stats.culled_gaussians);
                    EXPECT_GT(stats.culled_chunks, 0u);  // every camera culls
                    if (name == "away") {
                        EXPECT_TRUE(cut.empty());
                    }
                    if (level < 0)
                        continue;  // the distance-selected cut: counts only
                    const GaussianCloud full = file.unculledCut(level);
                    EXPECT_EQ(stats.cut_gaussians, full.size());

                    StandardFlowStats ts_cut, ts_full;
                    EXPECT_TRUE(test::imagesBitIdentical(
                        tile.render(cut, cam, ts_cut),
                        tile.render(full, cam, ts_full)));
                    EXPECT_EQ(ts_cut.alpha_evals, ts_full.alpha_evals);
                    EXPECT_EQ(ts_cut.kv_pairs, ts_full.kv_pairs);
                    for (const GaussianWiseRenderer *gw : {&gw_full, &gw_cmode}) {
                        GaussianWiseStats gs_cut, gs_full;
                        EXPECT_TRUE(test::imagesBitIdentical(
                            gw->render(cut, cam, gs_cut),
                            gw->render(full, cam, gs_full)));
                        EXPECT_EQ(gs_cut.alpha_evals, gs_full.alpha_evals);
                        EXPECT_EQ(gs_cut.blend_ops, gs_full.blend_ops);
                    }
                }
            }
            std::filesystem::remove(path);
        }
    }
}

TEST(LodScene, InfiniteTauOrBiasSelectsAValidLevel)
{
    GaussianCloud cloud = generateScene(test::tinySpec(45, 1200), 1.0f);
    const std::string path = tempLodPath("inf-tau");
    LodBuildConfig cfg;
    cfg.chunk_target = 100;
    cfg.proxy_levels = 2;
    ASSERT_TRUE(buildLodFile(cloud, path, cfg));
    LodScene lod(path, 16u << 20);
    const float inf = std::numeric_limits<float>::infinity();
    const Camera cam = test::frontCamera();
    for (const auto &[tau, bias] : {std::pair{inf, 1.0f}, std::pair{0.08f, inf},
                                    std::pair{inf, inf}}) {
        LodCutParams params;
        params.tau = tau;
        params.bias = bias;
        EXPECT_FALSE(lodCutParamsValid(params));
        LodCutStats stats;
        const GaussianCloud cut = lod.buildCut(cam, params, &stats);
        EXPECT_EQ(stats.leaf_chunks + stats.proxy_chunks, lod.chunkCount());
        EXPECT_LE(stats.cut_gaussians, cloud.size());
        EXPECT_EQ(cut.size(), stats.cut_gaussians - stats.culled_gaussians);
        if (std::isinf(tau) && bias == 1.0f) {
            EXPECT_EQ(stats.leaf_chunks, 0u);  // the camera is outside
        } else {
            EXPECT_EQ(stats.proxy_chunks, 0u);  // inf angle: all leaves
        }
    }
    LodCutParams sane;
    EXPECT_TRUE(lodCutParamsValid(sane));
    sane.tau = 1e30f;
    EXPECT_TRUE(lodCutParamsValid(sane));
    EXPECT_FALSE(lodCutParamsValid(sane, 1e30f));  // tau x factor is inf
    sane.tau = 0.0f;
    EXPECT_FALSE(lodCutParamsValid(sane));

    std::filesystem::remove(path);
}

// ---- residency manager ----

/** Loader that makes an n-Gaussian chunk and counts invocations. */
struct CountingLoader
{
    std::size_t n;
    int *calls;
    void
    operator()(ResidentChunk &chunk) const
    {
        ++*calls;
        chunk.gaussians.resize(n);
        chunk.indices.resize(n);
    }
};

TEST(Residency, BudgetNeverExceededAndLruEvicts)
{
    const std::size_t chunk_bytes = 10 * Gaussian::kTotalBytes;
    // Room for exactly 3 chunks.
    ResidencyManager mgr(3 * chunk_bytes);
    int calls = 0;
    auto touch = [&](std::size_t i) {
        mgr.acquire(i, CountingLoader{10, &calls});
    };

    // Fixed access pattern: fill 0,1,2; touch 0; fault 3 -> evicts 1
    // (LRU), not 0; fault 1 again -> evicts 2.
    touch(0);
    touch(1);
    touch(2);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(mgr.stats().resident_bytes, 3 * chunk_bytes);

    touch(0);  // hit, refreshes 0
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(mgr.stats().hits, 1u);

    touch(3);  // evicts 1
    EXPECT_EQ(calls, 4);
    touch(0);  // still resident
    touch(2);  // still resident
    EXPECT_EQ(calls, 4);
    touch(1);  // was evicted: faults again, evicts 3 (oldest now)
    EXPECT_EQ(calls, 5);
    touch(3);  // faults again
    EXPECT_EQ(calls, 6);

    ResidencyManager::Stats s = mgr.stats();
    EXPECT_EQ(s.faults, 6u);
    EXPECT_EQ(s.evictions, 3u);
    EXPECT_LE(s.resident_bytes, mgr.budgetBytes());
    EXPECT_LE(s.peak_resident_bytes, mgr.budgetBytes());
}

TEST(Residency, DeterministicEvictionOrder)
{
    // The same access pattern always yields the same hit/miss/evict
    // counters (strict LRU has no ties or randomness).
    auto run = [] {
        ResidencyManager mgr(4 * 100 * Gaussian::kTotalBytes);
        int calls = 0;
        const std::size_t pattern[] = {0, 1, 2, 3, 4, 1, 5, 0,
                                       2, 6, 3, 1, 7, 0, 4, 2};
        for (std::size_t i : pattern)
            mgr.acquire(i, CountingLoader{100, &calls});
        return mgr.stats();
    };
    ResidencyManager::Stats a = run();
    ResidencyManager::Stats b = run();
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.resident_bytes, b.resident_bytes);
    EXPECT_GT(a.evictions, 0u);
}

TEST(Residency, OverBudgetChunkLoadsTransiently)
{
    ResidencyManager mgr(5 * Gaussian::kTotalBytes);
    int calls = 0;
    // 10 x 236 B chunk exceeds the whole budget: served but not cached.
    auto big = mgr.acquire(0, CountingLoader{10, &calls});
    EXPECT_EQ(big->gaussians.size(), 10u);
    EXPECT_EQ(mgr.stats().transient_loads, 1u);
    EXPECT_EQ(mgr.stats().resident_bytes, 0u);
    // Asking again re-decodes (never cached)...
    mgr.acquire(0, CountingLoader{10, &calls});
    EXPECT_EQ(calls, 2);
    // ...but the first handout is still alive and intact.
    EXPECT_EQ(big->indices.size(), 10u);
}

TEST(Residency, HandoutSurvivesEviction)
{
    ResidencyManager mgr(2 * Gaussian::kTotalBytes);
    int calls = 0;
    auto held = mgr.acquire(0, CountingLoader{2, &calls});
    mgr.acquire(1, CountingLoader{2, &calls});  // evicts chunk 0
    EXPECT_EQ(mgr.stats().evictions, 1u);
    // The evicted chunk's data is still valid through our handle.
    EXPECT_EQ(held->gaussians.size(), 2u);
    EXPECT_EQ(held->bytes(), 2 * Gaussian::kTotalBytes);
}

/**
 * Starts @p threads concurrent acquires of chunk 7 through @p loader
 * and returns what each got (nullptr for an acquire that threw).
 */
template <typename Loader>
std::vector<std::shared_ptr<const ResidentChunk>>
acquireConcurrently(ResidencyManager &mgr, int threads, Loader loader,
                    std::atomic<int> &threw)
{
    std::vector<std::shared_ptr<const ResidentChunk>> got(
        static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            try {
                got[static_cast<std::size_t>(t)] = mgr.acquire(7, loader);
            } catch (const std::runtime_error &) {
                threw.fetch_add(1);
            }
        });
    for (std::thread &t : pool)
        t.join();
    return got;
}

/**
 * Holds a decode open until @p joiners other acquires have joined it
 * (joins count as hits), so every acquire overlaps the one decode.
 * Gives up after 10 s so a manager that decodes twice fails the
 * test's counts instead of hanging it.
 */
void
awaitJoiners(const ResidencyManager &mgr, std::uint64_t joiners)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (mgr.stats().hits < joiners &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
}

TEST(Residency, ConcurrentMissesShareOneDecode)
{
    constexpr int kThreads = 4;
    // A roomy budget (the chunk is cached) and a zero one (transient
    // loads): either way the chunk is decoded once and shared.
    for (std::size_t budget : {std::size_t{1} << 20, std::size_t{0}}) {
        ResidencyManager mgr(budget);
        std::atomic<int> calls{0}, threw{0};
        auto got = acquireConcurrently(
            mgr, kThreads,
            [&](ResidentChunk &c) {
                calls.fetch_add(1);
                awaitJoiners(mgr, kThreads - 1);
                c.gaussians.resize(10);
                c.indices.resize(10);
            },
            threw);
        EXPECT_EQ(calls.load(), 1) << "budget " << budget;
        EXPECT_EQ(threw.load(), 0);
        for (const auto &chunk : got) {
            ASSERT_NE(chunk, nullptr);
            EXPECT_EQ(chunk, got.front());
        }
        const ResidencyManager::Stats s = mgr.stats();
        EXPECT_EQ(s.faults, 1u);
        EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
        EXPECT_EQ(s.transient_loads, budget == 0 ? 1u : 0u);
    }
}

TEST(Residency, DecodeFailureReachesEveryWaiterThenRetries)
{
    constexpr int kThreads = 4;
    ResidencyManager mgr(std::size_t{1} << 20);
    std::atomic<int> calls{0}, threw{0};
    auto got = acquireConcurrently(
        mgr, kThreads,
        [&](ResidentChunk &) {
            calls.fetch_add(1);
            awaitJoiners(mgr, kThreads - 1);
            throw std::runtime_error("decode failed");
        },
        threw);
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(threw.load(), kThreads);
    EXPECT_EQ(mgr.stats().faults, 0u);
    EXPECT_EQ(mgr.stats().resident_bytes, 0u);

    // Nothing was cached and nothing is left pending: the next
    // acquire decodes afresh, and the one after hits.
    int retries = 0;
    auto chunk = mgr.acquire(7, CountingLoader{10, &retries});
    EXPECT_EQ(retries, 1);
    EXPECT_EQ(chunk->gaussians.size(), 10u);
    EXPECT_EQ(mgr.acquire(7, CountingLoader{10, &retries}), chunk);
    EXPECT_EQ(retries, 1);
    EXPECT_EQ(mgr.stats().faults, 1u);
}

// ---- residency + LOD under fault injection ----

/**
 * Scripted injector for tests: fixed per-site rules instead of the
 * seeded hashes of serve/chaos.h, so each test controls exactly which
 * probes fire (and layering stays clean — no serve include here).
 */
struct ScriptedInjector final : obs::FaultInjector
{
    bool pressure_all = false;       ///< BudgetPressure on every probe
    double pressure_factor = 0.5;    ///< its magnitude
    bool decode_fail_all = false;    ///< ChunkDecode fails every attempt
    bool decode_fail_first = false;  ///< ...or only attempt 0 per chunk
    std::atomic<std::uint64_t> probes{0};

    obs::FaultAction
    at(obs::FaultSite site, std::uint64_t key) override
    {
        probes.fetch_add(1, std::memory_order_relaxed);
        if (site == obs::FaultSite::BudgetPressure && pressure_all)
            return {true, pressure_factor};
        if (site == obs::FaultSite::ChunkDecode) {
            // loadLeaf folds the attempt into the key's low byte.
            const int attempt = static_cast<int>(key & 0xff);
            if (decode_fail_all || (decode_fail_first && attempt == 0))
                return {true, 1.0};
        }
        return {false, 0.0};
    }
};

/** RAII installer mirroring serve::ChaosScope for the local injector. */
struct InjectorScope
{
    explicit InjectorScope(obs::FaultInjector *inj)
    {
        obs::setFaultInjector(inj);
    }
    ~InjectorScope() { obs::setFaultInjector(nullptr); }
};

TEST(Residency, InjectedPressureSqueezesButNeverExceedsBudget)
{
    const std::size_t chunk_bytes = 10 * Gaussian::kTotalBytes;
    ScriptedInjector inj;
    inj.pressure_all = true;
    inj.pressure_factor = 0.5;  // loads cache under half the budget
    InjectorScope scope(&inj);

    ResidencyManager mgr(4 * chunk_bytes);
    int calls = 0;
    for (std::size_t i = 0; i < 6; ++i)
        mgr.acquire(i, CountingLoader{10, &calls});

    ResidencyManager::Stats s = mgr.stats();
    EXPECT_EQ(s.pressure_events, 6u);
    // The squeeze halves the effective budget for each load...
    EXPECT_LE(s.resident_bytes, 2 * chunk_bytes);
    // ...and the hard ceiling is never exceeded, squeezed or not.
    EXPECT_LE(s.peak_resident_bytes, mgr.budgetBytes());
    EXPECT_GT(s.evictions, 0u);
}

TEST(Residency, ConcurrentChaosAcquiresStayBoundedAndDeadlockFree)
{
    const std::size_t chunk_bytes = 10 * Gaussian::kTotalBytes;
    ScriptedInjector inj;
    inj.pressure_all = true;
    InjectorScope scope(&inj);

    ResidencyManager mgr(3 * chunk_bytes);
    std::atomic<int> calls{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&mgr, &calls, t] {
            for (int round = 0; round < 8; ++round) {
                auto chunk = mgr.acquire(
                    static_cast<std::size_t>((t + round) % 6),
                    [&calls](ResidentChunk &c) {
                        calls.fetch_add(1);
                        c.gaussians.resize(10);
                        c.indices.resize(10);
                    });
                // Handouts are always complete, cached or transient.
                EXPECT_EQ(chunk->gaussians.size(), 10u);
            }
        });
    for (std::thread &t : threads)
        t.join();  // terminates: no deadlock under injected pressure

    ResidencyManager::Stats s = mgr.stats();
    EXPECT_LE(s.resident_bytes, mgr.budgetBytes());
    EXPECT_LE(s.peak_resident_bytes, mgr.budgetBytes());
    EXPECT_GT(s.faults + s.hits, 0u);
}

TEST(LodScene, DecodeFaultsRetryTransientAndFallBackWhenPersistent)
{
    GaussianCloud cloud = generateScene(test::tinySpec(38, 1200), 1.0f);
    const std::string path = tempLodPath("chaos");
    LodBuildConfig cfg;
    cfg.chunk_target = 100;
    cfg.proxy_levels = 2;
    cfg.quantize = false;
    ASSERT_TRUE(buildLodFile(cloud, path, cfg));

    LodCutParams params;
    params.force_level = 0;
    Camera cam = test::frontCamera();

    // Transient faults (attempt 0 only): the bounded retry absorbs
    // them and the cut is exactly the clean leaf cut.
    {
        LodScene lod(path, 16u << 20);
        ScriptedInjector inj;
        inj.decode_fail_first = true;
        InjectorScope scope(&inj);
        LodCutStats stats;
        GaussianCloud cut = lod.buildCut(cam, params, &stats);
        EXPECT_EQ(cut.size(), cloud.size());
        EXPECT_EQ(stats.proxy_fallbacks, 0u);
        EXPECT_EQ(stats.leaf_chunks, lod.chunkCount());
        EXPECT_GT(inj.probes.load(), 0u);
    }

    // Persistent faults: retries exhaust and every leaf chunk
    // degrades to its finest proxy — a counted deviation, not a
    // failed frame.
    {
        LodScene lod(path, 16u << 20);
        ScriptedInjector inj;
        inj.decode_fail_all = true;
        InjectorScope scope(&inj);
        LodCutStats stats;
        GaussianCloud cut = lod.buildCut(cam, params, &stats);
        EXPECT_GT(cut.size(), 0u);
        EXPECT_LT(cut.size(), cloud.size());  // proxies, not leaves
        EXPECT_EQ(stats.proxy_fallbacks, lod.chunkCount());
        EXPECT_EQ(stats.leaf_gaussians, 0u);
    }

    std::filesystem::remove(path);
}

TEST(LodScene, ConcurrentFaultyCutsAgreeAndHonourTheBudget)
{
    GaussianCloud cloud = generateScene(test::tinySpec(39, 1500), 1.0f);
    const std::string path = tempLodPath("chaos-mt");
    LodBuildConfig cfg;
    cfg.chunk_target = 64;
    cfg.proxy_levels = 2;
    cfg.quantize = false;
    ASSERT_TRUE(buildLodFile(cloud, path, cfg));

    // Tight budget + transient decode faults + budget pressure, four
    // concurrent cut builders: every cut must still equal the clean
    // leaf cut, element by element (retries recover, transient loads
    // cover the squeeze), the byte budget must hold, and the run must
    // terminate.
    const std::size_t budget = 128u * 1024;
    LodScene lod(path, budget);
    LodCutParams params;
    params.force_level = 0;
    Camera cam = test::frontCamera();
    // The reference: one serial cut, before any fault or squeeze.
    const GaussianCloud clean = LodScene(path, 16u << 20).buildCut(cam, params);

    ScriptedInjector inj;
    inj.decode_fail_first = true;
    inj.pressure_all = true;
    InjectorScope scope(&inj);

    std::vector<GaussianCloud> cuts(4);
    std::vector<LodCutStats> stats(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < cuts.size(); ++t)
        threads.emplace_back([&, t] {
            cuts[t] = lod.buildCut(cam, params, &stats[t]);
        });
    for (std::thread &t : threads)
        t.join();

    for (std::size_t t = 0; t < cuts.size(); ++t) {
        EXPECT_EQ(stats[t].cut_gaussians, cloud.size());
        EXPECT_TRUE(sameGaussians(cuts[t], clean)) << "thread " << t;
    }
    EXPECT_LE(lod.residencyStats().peak_resident_bytes, budget);
    EXPECT_GT(lod.residencyStats().pressure_events, 0u);

    std::filesystem::remove(path);
}

TEST(LodServe, CityFleetPeakResidentStaysWithinBudget)
{
    // A streamed city file served to two concurrent sessions, one
    // tile and one Gaussian-wise, under a budget that binds (chunks
    // are evicted): peak stays within it, and both renderers read
    // their cuts in place, so no Gaussian is copied.
    const std::size_t kSplats = 20000;
    const std::size_t budget = std::size_t{2} << 20;
    const SceneSpec city = citySpec(kSplats);
    const std::string path = tempLodPath("city-fleet");
    ASSERT_TRUE(buildLodFileStreamed(city, kSplats, path, LodBuildConfig{}));

    FleetSpec spec;
    spec.sessions = 2;
    spec.frames = 2;
    spec.scenes = {city};
    spec.lod_path = path;
    spec.lod_budget_bytes = budget;
    spec.renderers = {SessionRenderer::Tile, SessionRenderer::GaussianWise};
    SceneRegistry registry;
    // Hold the shared LodScene so its counters outlive the fleet.
    SceneHandle handle = registry.acquireLod(path, budget, city, spec.frames);
    std::vector<Session> fleet = buildFleet(spec, registry);
    ASSERT_EQ(fleet[1].config().renderer, SessionRenderer::GaussianWise);
    obs::Counter &copied_bytes =
        obs::MetricsRegistry::global().counter("lod.cut.copied_bytes");
    const std::int64_t copied_before = copied_bytes.value();
    ThreadPool pool(2);
    FrameScheduler scheduler;
    ServeReport report = scheduler.run(fleet, pool);

    EXPECT_EQ(report.framesRendered(), 2 * 2);
    EXPECT_EQ(copied_bytes.value(), copied_before);
    const ResidencyManager::Stats rs = handle.lod->residencyStats();
    EXPECT_GT(rs.evictions, 0u);
    EXPECT_LE(rs.peak_resident_bytes, budget);

    std::filesystem::remove(path);
}

} // namespace
} // namespace gcc3d
