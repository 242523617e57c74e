/**
 * @file
 * A trained 3DGS model: a cloud of Gaussians plus scene metadata.
 */

#ifndef GCC3D_SCENE_GAUSSIAN_CLOUD_H
#define GCC3D_SCENE_GAUSSIAN_CLOUD_H

#include <cstddef>
#include <string>
#include <vector>

#include "scene/gaussian.h"

namespace gcc3d {

/**
 * A complete 3DGS scene model.  Owns the Gaussian array and records
 * the scene name and the bounding volume of the Gaussian means (used
 * by camera placement helpers and by the scene generators).
 */
class GaussianCloud
{
  public:
    GaussianCloud() = default;
    explicit GaussianCloud(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    std::size_t size() const { return gaussians_.size(); }
    bool empty() const { return gaussians_.empty(); }

    const Gaussian &operator[](std::size_t i) const { return gaussians_[i]; }
    Gaussian &operator[](std::size_t i) { return gaussians_[i]; }

    const std::vector<Gaussian> &gaussians() const { return gaussians_; }
    std::vector<Gaussian> &gaussians() { return gaussians_; }

    void reserve(std::size_t n) { gaussians_.reserve(n); }
    void add(const Gaussian &g) { gaussians_.push_back(g); }
    void
    append(const std::vector<Gaussian> &gs)
    {
        gaussians_.insert(gaussians_.end(), gs.begin(), gs.end());
    }
    void clear() { gaussians_.clear(); }

    /** Total model size in bytes at fp32 (59 floats per Gaussian). */
    std::size_t
    sizeBytes() const
    {
        return gaussians_.size() * Gaussian::kTotalBytes;
    }

    /** Axis-aligned bounds of the Gaussian means. */
    void
    bounds(Vec3 &lo, Vec3 &hi) const
    {
        lo = Vec3(0, 0, 0);
        hi = Vec3(0, 0, 0);
        if (gaussians_.empty())
            return;
        lo = hi = gaussians_.front().mean;
        for (const Gaussian &g : gaussians_) {
            lo = lo.cwiseMin(g.mean);
            hi = hi.cwiseMax(g.mean);
        }
    }

    /** Centroid of the Gaussian means. */
    Vec3
    centroid() const
    {
        Vec3 c;
        if (gaussians_.empty())
            return c;
        for (const Gaussian &g : gaussians_)
            c += g.mean;
        return c / static_cast<float>(gaussians_.size());
    }

  private:
    std::string name_;
    std::vector<Gaussian> gaussians_;
};

} // namespace gcc3d

#endif // GCC3D_SCENE_GAUSSIAN_CLOUD_H
