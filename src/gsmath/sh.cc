#include "gsmath/sh.h"

#include <algorithm>
#include <cmath>

namespace gcc3d {

ShBasis
shBasis(const Vec3 &dir)
{
    using namespace sh_constants;
    Vec3 d = dir.normalized();
    float x = d.x, y = d.y, z = d.z;
    float xx = x * x, yy = y * y, zz = z * z;
    float xy = x * y, yz = y * z, xz = x * z;

    ShBasis b{};
    b[0] = kC0;
    // degree 1
    b[1] = -kC1 * y;
    b[2] = kC1 * z;
    b[3] = -kC1 * x;
    // degree 2
    b[4] = kC2[0] * xy;
    b[5] = kC2[1] * yz;
    b[6] = kC2[2] * (2.0f * zz - xx - yy);
    b[7] = kC2[3] * xz;
    b[8] = kC2[4] * (xx - yy);
    // degree 3
    b[9] = kC3[0] * y * (3.0f * xx - yy);
    b[10] = kC3[1] * xy * z;
    b[11] = kC3[2] * y * (4.0f * zz - xx - yy);
    b[12] = kC3[3] * z * (2.0f * zz - 3.0f * xx - 3.0f * yy);
    b[13] = kC3[4] * x * (4.0f * zz - xx - yy);
    b[14] = kC3[5] * z * (xx - yy);
    b[15] = kC3[6] * x * (xx - 3.0f * yy);
    return b;
}

Vec3
evalShColorDegree(const std::array<float, kShCoeffsTotal> &sh,
                  const Vec3 &dir, int degree)
{
    ShBasis b = shBasis(dir);
    int n = (degree + 1) * (degree + 1);
    n = std::clamp(n, 1, kShCoeffsPerChannel);

    Vec3 c;
    for (int i = 0; i < n; ++i) {
        c.x += sh[0 * kShCoeffsPerChannel + i] * b[i];
        c.y += sh[1 * kShCoeffsPerChannel + i] * b[i];
        c.z += sh[2 * kShCoeffsPerChannel + i] * b[i];
    }
    // Reference rasterizer adds 0.5 and clamps negatives to zero.
    c += Vec3(0.5f, 0.5f, 0.5f);
    c.x = std::max(0.0f, c.x);
    c.y = std::max(0.0f, c.y);
    c.z = std::max(0.0f, c.z);
    return c;
}

Vec3
evalShColor(const std::array<float, kShCoeffsTotal> &sh, const Vec3 &dir)
{
    return evalShColorDegree(sh, dir, kShDegree);
}

} // namespace gcc3d
