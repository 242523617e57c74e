/**
 * @file
 * Shared fixtures/helpers for the unit and integration tests.
 */

#ifndef GCC3D_TESTS_TEST_UTIL_H
#define GCC3D_TESTS_TEST_UTIL_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <span>

#include "gsmath/simd.h"
#include "render/image.h"
#include "scene/scene_generator.h"
#include "scene/scene_presets.h"

namespace gcc3d::test {

/** A small deterministic scene for fast functional tests. */
inline SceneSpec
tinySpec(std::uint64_t seed = 42, std::size_t count = 3000)
{
    SceneSpec spec;
    spec.name = "tiny";
    spec.layout = SceneLayout::Object;
    spec.seed = seed;
    spec.gaussian_count = count;
    spec.cluster_count = 24;
    spec.extent = 2.0f;
    spec.cluster_sigma = 0.25f;
    spec.log_scale_mean = -3.6f;
    spec.log_scale_sigma = 0.6f;
    spec.anisotropy = 0.4f;
    spec.high_opacity_fraction = 0.6f;
    spec.image_width = 192;
    spec.image_height = 160;
    spec.fov_x = 0.9f;
    return spec;
}

/** A small indoor-style scene (denser occlusion). */
inline SceneSpec
tinyRoomSpec(std::uint64_t seed = 43, std::size_t count = 4000)
{
    SceneSpec spec = tinySpec(seed, count);
    spec.name = "tiny-room";
    spec.layout = SceneLayout::Room;
    spec.high_opacity_fraction = 0.8f;
    spec.high_opacity_min = 0.8f;
    return spec;
}

/** A single Gaussian with convenient defaults. */
inline Gaussian
makeGaussian(const Vec3 &mean, float scale = 0.1f, float opacity = 0.8f)
{
    Gaussian g;
    g.mean = mean;
    g.scale = Vec3(scale, scale, scale);
    g.opacity = opacity;
    g.setBaseColor(Vec3(0.7f, 0.4f, 0.2f));
    return g;
}

/** Camera looking at the origin from +z-ish. */
inline Camera
frontCamera(int w = 192, int h = 160)
{
    Camera cam(w, h, 0.9f);
    cam.lookAt(Vec3(0, 0.5f, -4.0f), Vec3(0, 0, 0));
    return cam;
}

/** tinySpec's scene, seen through a @p w x @p h viewport. */
inline SceneSpec
viewportSpec(int w, int h)
{
    SceneSpec spec = tinySpec(41, 1500);
    spec.image_width = w;
    spec.image_height = h;
    return spec;
}

/** @p spec's scene plus three wide Gaussians at and above the
 *  renderers' 0.99 alpha clamp near the scene center, so pixels near
 *  their centers blend a clamped alpha. */
inline GaussianCloud
clampedScene(const SceneSpec &spec)
{
    GaussianCloud cloud = generateScene(spec, 1.0f);
    cloud.add(makeGaussian(Vec3(-0.3f, 0.0f, -0.5f), 0.3f, 0.99f));
    cloud.add(makeGaussian(Vec3(0.0f, 0.1f, -0.6f), 0.3f, 0.995f));
    cloud.add(makeGaussian(Vec3(0.3f, -0.1f, -0.7f), 0.3f, 1.0f));
    return cloud;
}

/** @p cloud as a view of spans of seeded random length (1..2 kWidth+1). */
inline CloudView
splitView(const GaussianCloud &cloud, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> len(1, 2 * simd::kWidth + 1);
    CloudView view;
    const std::span<const Gaussian> all(cloud.gaussians());
    for (std::size_t i = 0; i < all.size();) {
        const std::size_t k = std::min(len(rng), all.size() - i);
        view.append(all.subspan(i, k));
        i += k;
    }
    return view;
}

/** Bitwise image comparison: float-exact, reporting the first diff. */
inline ::testing::AssertionResult
imagesBitIdentical(const Image &a, const Image &b)
{
    if (a.width() != b.width() || a.height() != b.height())
        return ::testing::AssertionFailure() << "shape mismatch";
    const auto &pa = a.pixels();
    const auto &pb = b.pixels();
    if (std::memcmp(pa.data(), pb.data(),
                    pa.size() * sizeof(Vec3)) == 0)
        return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < pa.size(); ++i) {
        if (std::memcmp(&pa[i], &pb[i], sizeof(Vec3)) != 0)
            return ::testing::AssertionFailure()
                   << "first differing pixel " << i << ": " << pa[i]
                   << " vs " << pb[i];
    }
    return ::testing::AssertionFailure() << "memcmp/pixel walk disagree";
}

} // namespace gcc3d::test

#endif // GCC3D_TESTS_TEST_UTIL_H
