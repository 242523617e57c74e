/** @file Tests for camera trajectories. */

#include <gtest/gtest.h>

#include <cmath>

#include "scene/trajectory.h"
#include "test_util.h"

namespace gcc3d {
namespace {

TEST(Trajectory, OrbitKeepsDistanceAndLooksAtCenter)
{
    Camera proto(320, 240, 0.9f);
    Vec3 center(1, 2, 3);
    Trajectory t = Trajectory::orbit(proto, center, 5.0f, 1.5f, 16);
    ASSERT_EQ(t.frameCount(), 16u);
    for (std::size_t i = 0; i < t.frameCount(); ++i) {
        const Camera &cam = t.frame(i);
        Vec3 offset = cam.position() - center;
        float planar =
            std::sqrt(offset.x * offset.x + offset.z * offset.z);
        EXPECT_NEAR(planar, 5.0f, 1e-3f);
        EXPECT_NEAR(offset.y, 1.5f, 1e-4f);
        // The center projects to the image center in every frame.
        Vec2 px = cam.worldToPixel(center);
        EXPECT_NEAR(px.x, 160.0f, 0.1f);
        EXPECT_NEAR(px.y, 120.0f, 0.1f);
    }
}

TEST(Trajectory, OrbitFramesAreDistinct)
{
    Camera proto(64, 64, 0.9f);
    Trajectory t = Trajectory::orbit(proto, Vec3(0, 0, 0), 3.0f, 0.5f, 8);
    for (std::size_t i = 1; i < t.frameCount(); ++i)
        EXPECT_GT((t.frame(i).position() - t.frame(i - 1).position())
                      .norm(),
                  0.1f);
}

TEST(Trajectory, DollyEndpointsAndMonotonicity)
{
    Camera proto(64, 64, 0.9f);
    Vec3 from(0, 1, -5), to(0, 1, 5), look(0, 0, 10);
    Trajectory t = Trajectory::dolly(proto, from, to, look, 11);
    ASSERT_EQ(t.frameCount(), 11u);
    EXPECT_EQ(t.frame(0).position(), from);
    EXPECT_EQ(t.frame(10).position(), to);
    for (std::size_t i = 1; i < t.frameCount(); ++i)
        EXPECT_GT(t.frame(i).position().z,
                  t.frame(i - 1).position().z);
}

TEST(Trajectory, ForSceneProducesValidFrames)
{
    for (SceneId id : {SceneId::Lego, SceneId::Train, SceneId::Playroom}) {
        SceneSpec spec = scenePreset(id);
        Trajectory t = Trajectory::forScene(spec, 6);
        ASSERT_EQ(t.frameCount(), 6u) << spec.name;
        GaussianCloud cloud = generateScene(spec, 0.002f);
        for (std::size_t i = 0; i < t.frameCount(); ++i) {
            const Camera &cam = t.frame(i);
            EXPECT_EQ(cam.width(), spec.image_width);
            int in_front = 0;
            for (std::size_t g = 0; g < cloud.size(); ++g)
                if (cam.worldToView(cloud[g].mean).z > cam.nearPlane())
                    ++in_front;
            EXPECT_GT(in_front, 0) << spec.name << " frame " << i;
        }
    }
}

TEST(Trajectory, ClampsNonPositiveFrameCounts)
{
    // Degenerate frame counts clamp to one frame instead of returning
    // an empty path callers would index out of bounds.
    Camera proto(64, 64, 0.9f);
    for (int frames : {0, -1, -100}) {
        Trajectory orbit =
            Trajectory::orbit(proto, Vec3(0, 0, 0), 3.0f, 0.5f, frames);
        EXPECT_EQ(orbit.frameCount(), 1u) << "orbit frames=" << frames;

        Trajectory dolly =
            Trajectory::dolly(proto, Vec3(0, 0, -2), Vec3(0, 0, 2),
                              Vec3(0, 0, 5), frames);
        EXPECT_EQ(dolly.frameCount(), 1u) << "dolly frames=" << frames;
        EXPECT_EQ(dolly.frame(0).position(), Vec3(0, 0, -2));

        Trajectory scene =
            Trajectory::forScene(scenePreset(SceneId::Lego), frames);
        EXPECT_EQ(scene.frameCount(), 1u) << "forScene frames=" << frames;
    }
}

TEST(Trajectory, SingleFrameDolly)
{
    Camera proto(64, 64, 0.9f);
    Trajectory t =
        Trajectory::dolly(proto, Vec3(0, 0, -2), Vec3(0, 0, 2),
                          Vec3(0, 0, 5), 1);
    ASSERT_EQ(t.frameCount(), 1u);
    EXPECT_EQ(t.frame(0).position(), Vec3(0, 0, -2));
}

TEST(Trajectory, StepDeltaMatchesCameraDelta)
{
    Camera proto(64, 64, 0.9f);
    Trajectory t =
        Trajectory::orbit(proto, Vec3(0, 0, 0), 3.0f, 0.5f, 8);
    for (std::size_t i = 0; i + 1 < t.frameCount(); ++i) {
        CameraDelta d = t.stepDelta(i);
        CameraDelta ref = cameraDelta(t.frame(i), t.frame(i + 1));
        EXPECT_EQ(d.translation, ref.translation);
        EXPECT_EQ(d.rotation_rad, ref.rotation_rad);
        EXPECT_GT(d.translation, 0.0f);
        EXPECT_GT(d.rotation_rad, 0.0f);
    }
}

TEST(Trajectory, CameraDeltaOfIdenticalPosesIsZero)
{
    Camera proto(64, 64, 0.9f);
    Trajectory t =
        Trajectory::orbit(proto, Vec3(1, 2, 3), 4.0f, 1.0f, 4);
    for (std::size_t i = 0; i < t.frameCount(); ++i) {
        CameraDelta d = cameraDelta(t.frame(i), t.frame(i));
        EXPECT_EQ(d.translation, 0.0f);
        EXPECT_NEAR(d.rotation_rad, 0.0f, 1e-3f);
    }
}

TEST(Trajectory, MaxCameraDeltaBoundsEveryStep)
{
    SceneSpec spec = scenePreset(SceneId::Lego);
    Trajectory t = Trajectory::forScene(spec, 10);
    CameraDelta m = t.maxCameraDelta();
    EXPECT_GT(m.translation, 0.0f);
    for (std::size_t i = 0; i + 1 < t.frameCount(); ++i) {
        CameraDelta d = t.stepDelta(i);
        EXPECT_LE(d.translation, m.translation);
        EXPECT_LE(d.rotation_rad, m.rotation_rad);
    }

    // Degenerate paths have no steps and report zero deltas.
    Trajectory single = Trajectory::forScene(spec, 1);
    CameraDelta z = single.maxCameraDelta();
    EXPECT_EQ(z.translation, 0.0f);
    EXPECT_EQ(z.rotation_rad, 0.0f);
}

TEST(Trajectory, ForSceneArcShrinksStepDeltas)
{
    // Covering a quarter of the path in the same frame count shrinks
    // each per-step pose change by about the same factor — the knob
    // the temporal streaming tests use for slow-motion streams.
    for (SceneId id : {SceneId::Lego, SceneId::Train}) {
        SceneSpec spec = scenePreset(id);
        Trajectory full = Trajectory::forSceneArc(spec, 8, 1.0f);
        Trajectory quarter = Trajectory::forSceneArc(spec, 8, 0.25f);
        ASSERT_EQ(full.frameCount(), quarter.frameCount());
        CameraDelta mf = full.maxCameraDelta();
        CameraDelta mq = quarter.maxCameraDelta();
        EXPECT_LT(mq.translation, mf.translation) << spec.name;
        EXPECT_GT(mq.translation, 0.0f) << spec.name;
    }
}

TEST(Trajectory, ForSceneArcFullFractionIsForScene)
{
    for (SceneId id : {SceneId::Lego, SceneId::Playroom}) {
        SceneSpec spec = scenePreset(id);
        Trajectory a = Trajectory::forScene(spec, 6);
        Trajectory b = Trajectory::forSceneArc(spec, 6, 1.0f);
        ASSERT_EQ(a.frameCount(), b.frameCount());
        for (std::size_t i = 0; i < a.frameCount(); ++i)
            EXPECT_TRUE(camerasBitIdentical(a.frame(i), b.frame(i)))
                << spec.name << " frame " << i;
    }
}

} // namespace
} // namespace gcc3d
