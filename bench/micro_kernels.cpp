/**
 * @file
 * google-benchmark microbenchmarks of the library's hot kernels:
 * projection (Eq. 1), SH evaluation (Eq. 2), exponential evaluation
 * (hardware EXP LUT vs libm vs simd::expExact), alpha-based
 * boundary identification (Algorithm 1), the bitonic sorting network,
 * and the SIMD-vs-scalar conic row kernels the rasterization inner
 * loops are built on.  These back the per-operation cost assumptions
 * of the cycle models and catch performance regressions.
 *
 * Exp outcome on this codebase: ExpLut exists to model the GCC Alpha
 * Unit's fixed-point datapath (the cycle sim charges its latency but
 * evaluates no alpha); no host-side render hot path consumes it.  Both raster
 * kernels evaluate exp through simd::expExact, which is std::exp bit
 * for bit: with AVX2, FMA and glibc it runs glibc's expf eight lanes
 * at a time (one 8 x double AVX-512 pass where the build has
 * AVX-512F, two 4 x double AVX2 halves otherwise), elsewhere it calls
 * std::exp per lane.  The BM_Exp* trio documents the choice: the
 * LUT's fixed-point quantization costs more than libm's exp on a
 * modern host, and BM_ExpExact's per-value rate against BM_ExpStd is
 * what the vector form buys the kernels.  Per value on one host
 * (Release, 4-vCPU Xeon with AVX-512F/VL, glibc 2.36, 3 alternated
 * runs): BM_ExpStd ~160 M/s; BM_ExpExact 1.07-1.09 G/s from a forced
 * GCC3D_SIMD=avx2 build, 1.25-1.33 G/s from an auto (AVX-512) build.
 *
 * Boundary walk: BM_BoundaryBlockTraversal times reach() plus
 * traverseLanes() (8-px blocks, 512x512 view, trivial visitor).  The
 * reach-bitmap walk against the breadth-first queue walk it replaced,
 * per traversal (Release, 4-vCPU Xeon with AVX2, medians of 3 runs):
 * radius 8: 618 -> 479 ns; 32: 3488 -> 2520 ns; 96: 24680 -> 17100
 * ns; the thin 96 (1000:1, 0.5 rad), whose reach window evaluates
 * 416 blocks to visit 56: 2720 -> 2395 ns.
 *
 * Temporal warp source: BM_TemporalExactFrame times an 8-frame exact
 * temporal arc of Palace at scale 0.005 (1264x832).  Capturing depth
 * per lane group into the retained frame, instead of a per-lane depth
 * loop plus a second copy of every exact frame, and returning the
 * frame by reference (Release, 4-vCPU Xeon with AVX2, one thread; min
 * and median of 6 alternated runs, ms per arc): keep_exact 0: 130 /
 * 137 -> 113 / 117; keep_exact 1: 241 / 250 -> 116 / 122.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/sort_unit.h"
#include "gsmath/exp_lut.h"
#include "gsmath/sh.h"
#include "gsmath/simd.h"
#include "render/boundary.h"
#include "render/preprocess.h"
#include "render/tile_renderer.h"
#include "scene/scene_generator.h"
#include "scene/scene_presets.h"
#include "scene/trajectory.h"

namespace {

using namespace gcc3d;

SceneSpec
microSpec()
{
    SceneSpec spec = scenePreset(SceneId::Lego);
    spec.gaussian_count = 20000;
    return spec;
}

void
BM_ProjectGaussian(benchmark::State &state)
{
    SceneSpec spec = microSpec();
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);
    std::uint32_t i = 0;
    for (auto _ : state) {
        auto s = projectGaussian(cloud[i], i, cam, nullptr);
        benchmark::DoNotOptimize(s);
        i = (i + 1) % static_cast<std::uint32_t>(cloud.size());
    }
}
BENCHMARK(BM_ProjectGaussian);

void
BM_ShColor(benchmark::State &state)
{
    SceneSpec spec = microSpec();
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);
    std::uint32_t i = 0;
    for (auto _ : state) {
        Vec3 c = shColorFor(cloud[i], cam);
        benchmark::DoNotOptimize(c);
        i = (i + 1) % static_cast<std::uint32_t>(cloud.size());
    }
}
BENCHMARK(BM_ShColor);

void
BM_ExpLut(benchmark::State &state)
{
    ExpLut lut;
    float x = -0.01f;
    for (auto _ : state) {
        float y = lut.eval(x);
        benchmark::DoNotOptimize(y);
        x -= 0.001f;
        if (x < -5.5f)
            x = -0.01f;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpLut);

void
BM_ExpStd(benchmark::State &state)
{
    float x = -0.01f;
    for (auto _ : state) {
        float y = std::exp(x);
        benchmark::DoNotOptimize(y);
        x -= 0.001f;
        if (x < -5.5f)
            x = -0.01f;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpStd);

void
BM_ExpExact(benchmark::State &state)
{
    // One expExact call evaluates kWidth exponentials over the
    // raster kernels' falloff domain; items/s is the per-value
    // throughput comparable with BM_ExpLut / BM_ExpStd.
    float lanes[simd::kWidth];
    for (int l = 0; l < simd::kWidth; ++l)
        lanes[l] = -0.01f - 0.6f * static_cast<float>(l);
    const simd::FloatV start = simd::FloatV::load(lanes);
    simd::FloatV x = start;
    const simd::FloatV step(-0.001f);
    const simd::FloatV floor_v(-10.0f);
    for (auto _ : state) {
        simd::FloatV y = simd::expExact(x);
        benchmark::DoNotOptimize(y);
        x = x + step;
        if ((x < floor_v).any())
            x = start;
    }
    state.SetItemsProcessed(state.iterations() * simd::kWidth);
}
BENCHMARK(BM_ExpExact);

/**
 * The rasterizers' row kernel: conic quadratic q over a pixel row
 * plus the cutoff mask.  Scalar transcription vs the simd.h loop the
 * renderers actually run (identical per-lane operations).
 */
void
BM_ConicRowScalar(benchmark::State &state)
{
    const int row_w = static_cast<int>(state.range(0));
    const float c00 = 0.02f, c01 = 0.005f, c10 = 0.005f, c11 = 0.03f;
    const float cx = 31.7f, cy = 12.3f, cutoff = 8.5f;
    std::int64_t passing = 0;
    for (auto _ : state) {
        const float dy = 10.5f - cy;
        for (int x = 0; x < row_w; ++x) {
            float dx = (static_cast<float>(x) + 0.5f) - cx;
            float q = dx * (c00 * dx + c01 * dy) +
                      dy * (c10 * dx + c11 * dy);
            if (q > cutoff)
                continue;
            ++passing;
        }
        benchmark::DoNotOptimize(passing);
    }
    state.SetItemsProcessed(state.iterations() * row_w);
}
BENCHMARK(BM_ConicRowScalar)->Arg(8)->Arg(64);

void
BM_ConicRowSimd(benchmark::State &state)
{
    const int row_w = static_cast<int>(state.range(0));
    const simd::FloatV c00(0.02f), c01(0.005f), c10(0.005f),
        c11(0.03f);
    const simd::FloatV cx(31.7f), cutoff(8.5f), half(0.5f);
    const float cy = 12.3f;
    std::int64_t passing = 0;
    for (auto _ : state) {
        const simd::FloatV dy(10.5f - cy);
        for (int x = 0; x < row_w; x += simd::kWidth) {
            const int nlane =
                std::min<int>(simd::kWidth, row_w - x);
            simd::FloatV dx =
                (simd::FloatV::iotaFrom(x) + half) - cx;
            simd::FloatV q = dx * (c00 * dx + c01 * dy) +
                             dy * (c10 * dx + c11 * dy);
            unsigned bits = simd::MaskV::firstN(nlane).bits() &
                            ~(q > cutoff).bits();
            passing += std::popcount(bits);
        }
        benchmark::DoNotOptimize(passing);
    }
    state.SetItemsProcessed(state.iterations() * row_w);
}
BENCHMARK(BM_ConicRowSimd)->Arg(8)->Arg(64);

void
BM_BoundaryBlockTraversal(benchmark::State &state)
{
    // Arg 0: 3-sigma radius in pixels; arg 1: 0 for a near-round
    // ellipse, 1 for a thin one (1000:1 variances) rotated 0.5 rad,
    // whose bounding box holds far more blocks than it reaches.
    const int radius = static_cast<int>(state.range(0));
    const float var = static_cast<float>(radius * radius) / 9.0f;
    Mat2 cov(var, 0.3f * var, 0.3f * var, var);
    if (state.range(1) != 0) {
        const float c = std::cos(0.5f), s = std::sin(0.5f);
        const float minor = var / 1000.0f;
        cov = Mat2(c * c * var + s * s * minor, c * s * (var - minor),
                   c * s * (var - minor), s * s * var + c * c * minor);
    }
    Ellipse e = Ellipse::fromCovariance(Vec2(256, 256), cov);
    BlockTraversal traversal(8, 512, 512);
    // The reach evaluation and lane-group walk GaussianWiseRenderer
    // runs, with a trivial visitor, so this times the reach bits, the
    // flood, the walk and the q evaluation.
    std::uint64_t sink = 0;
    auto visit = [&](int x, int, const simd::FloatV &, unsigned bits) {
        sink += static_cast<std::uint64_t>(x) ^ bits;
    };
    BoundaryStats bs;
    ReachWindow window;
    for (auto _ : state) {
        traversal.reach(e, 0.8f, window);
        bs = traversal.traverseLanes(window, nullptr, visit);
        benchmark::DoNotOptimize(bs);
        benchmark::DoNotOptimize(sink);
    }
    state.counters["pixels"] = static_cast<double>(bs.influence_pixels);
}
BENCHMARK(BM_BoundaryBlockTraversal)
    ->ArgNames({"radius", "thin"})
    ->Args({8, 0})
    ->Args({32, 0})
    ->Args({96, 0})
    ->Args({96, 1});

void
BM_BitonicSort(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::mt19937 rng(7);
    std::uniform_real_distribution<float> u(0.0f, 100.0f);
    std::vector<std::pair<float, std::uint32_t>> base(n);
    for (std::uint32_t i = 0; i < n; ++i)
        base[i] = {u(rng), i};
    for (auto _ : state) {
        auto keys = base;
        SortUnit::bitonicSort(keys);
        benchmark::DoNotOptimize(keys);
    }
}
BENCHMARK(BM_BitonicSort)->Arg(16)->Arg(256);

/**
 * One exact temporal tile frame stream: an 8-pose, 0.1 % arc of the
 * Palace preset at scale 0.005 (a serving session's tile frames),
 * replayed from a fresh cache each iteration on one thread.  Arg
 * keep_exact 1 also keeps the degradation ladder's warp source, as
 * every serving session with the ladder on does.
 */
void
BM_TemporalExactFrame(benchmark::State &state)
{
    const SceneSpec spec = scenePreset(SceneId::Palace);
    const GaussianCloud cloud = generateScene(spec, 0.005f);
    const Trajectory path = Trajectory::forSceneArc(spec, 8, 0.001f);
    const TileRenderer renderer;
    TemporalCache cache;
    for (auto _ : state) {
        cache.reset();
        cache.options.keep_exact = state.range(0) != 0;
        for (std::size_t f = 0; f < path.frameCount(); ++f) {
            StandardFlowStats stats;
            const Image &image =
                renderer.renderTemporal(cloud, path.frame(f), stats, cache);
            benchmark::DoNotOptimize(image.pixels().data());
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(path.frameCount()));
}
BENCHMARK(BM_TemporalExactFrame)
    ->ArgName("keep_exact")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
