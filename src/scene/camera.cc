#include "scene/camera.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>

namespace gcc3d {

namespace {

/**
 * Growth of a box before the frustum test.  Relative to the largest
 * coordinate in play (box corners and eye): float worldToView and the
 * guard-band limits round by a few ulp of that (~1e-7 relative), four
 * orders of magnitude below this.  Absolute: covers the 1e-6 floor
 * on a degenerate axis of a quantized chunk's frame, which can put a
 * decoded mean up to 1e-6 outside the chunk's AABB.
 */
constexpr double kBoxMarginRelative = 1e-3;
constexpr double kBoxMarginAbsolute = 1e-4;

} // namespace

Camera::Camera(int width, int height, float fov_x)
    : width_(width), height_(height)
{
    focal_x_ = 0.5f * static_cast<float>(width) / std::tan(0.5f * fov_x);
    // Square pixels: same focal length in both axes.
    focal_y_ = focal_x_;
}

void
Camera::lookAt(const Vec3 &eye, const Vec3 &target, const Vec3 &up)
{
    position_ = eye;
    Vec3 fwd = (target - eye).normalized();      // +z in view space
    Vec3 right = fwd.cross(up).normalized();     // +x
    Vec3 cam_up = fwd.cross(right);              // +y (image-down consistent)

    // Rows of the rotation block are the camera basis vectors; the
    // translation column brings the eye to the origin.
    Mat3 rot(right.x, right.y, right.z,
             cam_up.x, cam_up.y, cam_up.z,
             fwd.x, fwd.y, fwd.z);
    Vec3 t = rot * (-eye);
    view_ = Mat4::fromRotationTranslation(rot, t);
}

Mat3
Camera::projectionJacobian(const Vec3 &v) const
{
    float inv_z = 1.0f / v.z;
    float inv_z2 = inv_z * inv_z;
    // d(pixel)/d(view): standard EWA Jacobian; third row unused.
    return Mat3(focal_x_ * inv_z, 0.0f, -focal_x_ * v.x * inv_z2,
                0.0f, focal_y_ * inv_z, -focal_y_ * v.y * inv_z2,
                0.0f, 0.0f, 0.0f);
}

bool
Camera::boxOutsideFrustum(const Vec3 &lo, const Vec3 &hi) const
{
    double scale = 0.0;
    for (float c : {lo.x, lo.y, lo.z, hi.x, hi.y, hi.z, position_.x,
                    position_.y, position_.z})
        scale = std::max(scale, std::fabs(static_cast<double>(c)));
    const double margin = kBoxMarginAbsolute + kBoxMarginRelative * scale;
    const double box[2][3] = {
        {lo.x - margin, lo.y - margin, lo.z - margin},
        {hi.x + margin, hi.y + margin, hi.z + margin}};

    // A point fails inFrustum's side test when x >= lim_x = k_x z
    // (or x <= -k_x z; likewise y); for z <= 0 every point fails, so
    // each half-space below lies wholly inside the failing set, and a
    // convex box whose corners all lie in one of them fails entirely.
    // Double precision makes the corner tests exact next to the margin.
    const double half_band = 0.5 * static_cast<double>(kFrustumGuardBand);
    const double kx = half_band * width_ / focal_x_;
    const double ky = half_band * height_ / focal_y_;
    bool behind = true, right = true, left = true, below = true,
         above = true;
    for (int corner = 0; corner < 8; ++corner) {
        const double p[3] = {box[corner & 1][0], box[(corner >> 1) & 1][1],
                             box[(corner >> 2) & 1][2]};
        double v[3];
        for (std::size_t r = 0; r < 3; ++r)
            v[r] = view_(r, 0) * p[0] + view_(r, 1) * p[1] +
                   view_(r, 2) * p[2] + view_(r, 3);
        behind = behind && v[2] < near_;
        right = right && v[0] >= kx * v[2];
        left = left && v[0] <= -kx * v[2];
        below = below && v[1] >= ky * v[2];
        above = above && v[1] <= -ky * v[2];
    }
    return behind || right || left || below || above;
}

} // namespace gcc3d
