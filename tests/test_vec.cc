/** @file Unit tests for the vector types. */

#include <gtest/gtest.h>

#include "gsmath/vec.h"

namespace gcc3d {
namespace {

TEST(Vec2, Arithmetic)
{
    Vec2 a(1.0f, 2.0f), b(3.0f, -1.0f);
    EXPECT_EQ(a + b, Vec2(4.0f, 1.0f));
    EXPECT_EQ(a - b, Vec2(-2.0f, 3.0f));
    EXPECT_EQ(a * 2.0f, Vec2(2.0f, 4.0f));
    EXPECT_EQ(2.0f * a, a * 2.0f);
    EXPECT_EQ(a / 2.0f, Vec2(0.5f, 1.0f));
}

TEST(Vec2, DotAndNorm)
{
    Vec2 a(3.0f, 4.0f);
    EXPECT_FLOAT_EQ(a.dot(a), 25.0f);
    EXPECT_FLOAT_EQ(a.norm(), 5.0f);
    EXPECT_FLOAT_EQ(a.norm2(), 25.0f);
    EXPECT_FLOAT_EQ(Vec2(1, 0).dot(Vec2(0, 1)), 0.0f);
}

TEST(Vec3, Arithmetic)
{
    Vec3 a(1, 2, 3), b(4, 5, 6);
    EXPECT_EQ(a + b, Vec3(5, 7, 9));
    EXPECT_EQ(b - a, Vec3(3, 3, 3));
    EXPECT_EQ(-a, Vec3(-1, -2, -3));
    a += b;
    EXPECT_EQ(a, Vec3(5, 7, 9));
    a *= 2.0f;
    EXPECT_EQ(a, Vec3(10, 14, 18));
}

TEST(Vec3, CrossProduct)
{
    EXPECT_EQ(Vec3(1, 0, 0).cross(Vec3(0, 1, 0)), Vec3(0, 0, 1));
    EXPECT_EQ(Vec3(0, 1, 0).cross(Vec3(1, 0, 0)), Vec3(0, 0, -1));
    // a x a = 0
    Vec3 a(2, -3, 7);
    EXPECT_EQ(a.cross(a), Vec3(0, 0, 0));
    // orthogonality of the result
    Vec3 b(5, 1, -2);
    Vec3 c = a.cross(b);
    EXPECT_NEAR(c.dot(a), 0.0f, 1e-4f);
    EXPECT_NEAR(c.dot(b), 0.0f, 1e-4f);
}

TEST(Vec3, Normalized)
{
    Vec3 v = Vec3(3, 0, 4).normalized();
    EXPECT_NEAR(v.norm(), 1.0f, 1e-6f);
    EXPECT_NEAR(v.x, 0.6f, 1e-6f);
    EXPECT_NEAR(v.z, 0.8f, 1e-6f);
    // zero vector stays zero rather than producing NaN
    Vec3 z = Vec3(0, 0, 0).normalized();
    EXPECT_EQ(z, Vec3(0, 0, 0));
}

TEST(Vec3, CwiseMinMax)
{
    Vec3 a(1, 5, -2), b(3, 2, -4);
    EXPECT_EQ(a.cwiseMin(b), Vec3(1, 2, -4));
    EXPECT_EQ(a.cwiseMax(b), Vec3(3, 5, -2));
}

TEST(Vec3, Indexing)
{
    Vec3 a(7, 8, 9);
    EXPECT_FLOAT_EQ(a[0], 7);
    EXPECT_FLOAT_EQ(a[1], 8);
    EXPECT_FLOAT_EQ(a[2], 9);
}

TEST(Vec4, Xyz)
{
    Vec4 p(2, 4, 6, 2);
    EXPECT_EQ(p.xyz(), Vec3(2, 4, 6));
    EXPECT_EQ(Vec4(Vec3(1, 2, 3), 1.0f), Vec4(1, 2, 3, 1));
}

TEST(Vec4, DotNorm)
{
    Vec4 a(1, 1, 1, 1);
    EXPECT_FLOAT_EQ(a.dot(a), 4.0f);
    EXPECT_FLOAT_EQ(a.norm(), 2.0f);
}

} // namespace
} // namespace gcc3d
