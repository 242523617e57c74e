/**
 * @file
 * Small fixed-size vector types used throughout the 3DGS pipeline.
 *
 * The rendering pipeline operates on 2-, 3- and 4-component float
 * vectors (screen positions, world positions, quaternions, colors).
 * These are deliberately simple aggregate types: no SIMD, no
 * expression templates — the hardware simulators count operations
 * explicitly, so the math layer stays transparent.
 */

#ifndef GCC3D_GSMATH_VEC_H
#define GCC3D_GSMATH_VEC_H

#include <cmath>
#include <cstddef>
#include <ostream>

namespace gcc3d {

/** A 2-component vector (screen-space positions, offsets). */
struct Vec2
{
    float x = 0.0f;
    float y = 0.0f;

    constexpr Vec2() = default;
    constexpr Vec2(float x_, float y_) : x(x_), y(y_) {}

    constexpr Vec2 operator+(const Vec2 &o) const { return {x + o.x, y + o.y}; }
    constexpr Vec2 operator-(const Vec2 &o) const { return {x - o.x, y - o.y}; }
    constexpr Vec2 operator*(float s) const { return {x * s, y * s}; }
    constexpr Vec2 operator/(float s) const { return {x / s, y / s}; }
    constexpr Vec2 &operator+=(const Vec2 &o) { x += o.x; y += o.y; return *this; }
    constexpr Vec2 &operator-=(const Vec2 &o) { x -= o.x; y -= o.y; return *this; }
    constexpr bool operator==(const Vec2 &o) const = default;

    /** Dot product. */
    constexpr float dot(const Vec2 &o) const { return x * o.x + y * o.y; }
    /** Squared Euclidean norm. */
    constexpr float norm2() const { return dot(*this); }
    /** Euclidean norm. */
    float norm() const { return std::sqrt(norm2()); }
};

/** A 3-component vector (world positions, scales, RGB colors). */
struct Vec3
{
    float x = 0.0f;
    float y = 0.0f;
    float z = 0.0f;

    constexpr Vec3() = default;
    constexpr Vec3(float x_, float y_, float z_) : x(x_), y(y_), z(z_) {}

    constexpr Vec3 operator+(const Vec3 &o) const
    { return {x + o.x, y + o.y, z + o.z}; }
    constexpr Vec3 operator-(const Vec3 &o) const
    { return {x - o.x, y - o.y, z - o.z}; }
    constexpr Vec3 operator*(float s) const { return {x * s, y * s, z * s}; }
    constexpr Vec3 operator/(float s) const { return {x / s, y / s, z / s}; }
    constexpr Vec3 operator-() const { return {-x, -y, -z}; }
    constexpr Vec3 &operator+=(const Vec3 &o)
    { x += o.x; y += o.y; z += o.z; return *this; }
    constexpr Vec3 &operator-=(const Vec3 &o)
    { x -= o.x; y -= o.y; z -= o.z; return *this; }
    constexpr Vec3 &operator*=(float s) { x *= s; y *= s; z *= s; return *this; }
    constexpr bool operator==(const Vec3 &o) const = default;

    constexpr float dot(const Vec3 &o) const
    { return x * o.x + y * o.y + z * o.z; }
    constexpr Vec3 cross(const Vec3 &o) const
    {
        return {y * o.z - z * o.y,
                z * o.x - x * o.z,
                x * o.y - y * o.x};
    }
    constexpr float norm2() const { return dot(*this); }
    float norm() const { return std::sqrt(norm2()); }

    /** Returns this vector scaled to unit length (zero vector unchanged). */
    Vec3
    normalized() const
    {
        float n = norm();
        return n > 0.0f ? *this / n : *this;
    }

    /** Component-wise min against another vector. */
    constexpr Vec3 cwiseMin(const Vec3 &o) const
    {
        return {x < o.x ? x : o.x, y < o.y ? y : o.y, z < o.z ? z : o.z};
    }
    /** Component-wise max against another vector. */
    constexpr Vec3 cwiseMax(const Vec3 &o) const
    {
        return {x > o.x ? x : o.x, y > o.y ? y : o.y, z > o.z ? z : o.z};
    }

    constexpr float operator[](size_t i) const
    { return i == 0 ? x : (i == 1 ? y : z); }
};

/** A 4-component vector (homogeneous positions, quaternion storage). */
struct Vec4
{
    float x = 0.0f;
    float y = 0.0f;
    float z = 0.0f;
    float w = 0.0f;

    constexpr Vec4() = default;
    constexpr Vec4(float x_, float y_, float z_, float w_)
        : x(x_), y(y_), z(z_), w(w_) {}
    constexpr Vec4(const Vec3 &v, float w_) : x(v.x), y(v.y), z(v.z), w(w_) {}

    constexpr Vec4 operator+(const Vec4 &o) const
    { return {x + o.x, y + o.y, z + o.z, w + o.w}; }
    constexpr Vec4 operator-(const Vec4 &o) const
    { return {x - o.x, y - o.y, z - o.z, w - o.w}; }
    constexpr Vec4 operator*(float s) const
    { return {x * s, y * s, z * s, w * s}; }
    constexpr Vec4 operator/(float s) const
    { return {x / s, y / s, z / s, w / s}; }
    constexpr bool operator==(const Vec4 &o) const = default;

    constexpr float dot(const Vec4 &o) const
    { return x * o.x + y * o.y + z * o.z + w * o.w; }
    constexpr float norm2() const { return dot(*this); }
    float norm() const { return std::sqrt(norm2()); }

    /** Drop the homogeneous coordinate. */
    constexpr Vec3 xyz() const { return {x, y, z}; }
};

inline constexpr Vec2 operator*(float s, const Vec2 &v) { return v * s; }
inline constexpr Vec3 operator*(float s, const Vec3 &v) { return v * s; }
inline constexpr Vec4 operator*(float s, const Vec4 &v) { return v * s; }

inline std::ostream &
operator<<(std::ostream &os, const Vec2 &v)
{
    return os << "(" << v.x << ", " << v.y << ")";
}

inline std::ostream &
operator<<(std::ostream &os, const Vec3 &v)
{
    return os << "(" << v.x << ", " << v.y << ", " << v.z << ")";
}

inline std::ostream &
operator<<(std::ostream &os, const Vec4 &v)
{
    return os << "(" << v.x << ", " << v.y << ", " << v.z << ", "
              << v.w << ")";
}

} // namespace gcc3d

#endif // GCC3D_GSMATH_VEC_H
