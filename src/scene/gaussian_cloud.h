/**
 * @file
 * A trained 3DGS model: a cloud of Gaussians plus scene metadata.
 */

#ifndef GCC3D_SCENE_GAUSSIAN_CLOUD_H
#define GCC3D_SCENE_GAUSSIAN_CLOUD_H

#include <algorithm>
#include <cstddef>
#include <span>
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

/**
 * A read-only cloud assembled from borrowed spans of Gaussians:
 * Gaussian i of the view is the i-th across the spans, in span order.
 * The tile renderer's fast paths read a frame through it, so a LOD
 * cut can point into resident chunks instead of being copied into a
 * GaussianCloud.  Whoever owns the spans keeps them alive while the
 * view is in use.
 */
class CloudView
{
  public:
    CloudView() = default;

    /** One span over all of @p cloud (implicit, so a cloud can be
     *  passed wherever a view is read). */
    CloudView(const GaussianCloud &cloud)
    {
        append(cloud.gaussians());
    }

    /** Add @p span after the current last Gaussian (empty: no-op). */
    void
    append(std::span<const Gaussian> span)
    {
        if (span.empty())
            return;
        spans_.push_back(span);
        size_ += span.size();
    }

    std::size_t size() const { return size_; }

    /**
     * Call @p fn(index, gaussian) for the Gaussians [@p begin, @p end)
     * of the view, in order.
     */
    template <typename Fn>
    void
    forRange(std::size_t begin, std::size_t end, Fn &&fn) const
    {
        std::size_t base = 0;
        for (const std::span<const Gaussian> &span : spans_) {
            const std::size_t lo = std::max(begin, base);
            const std::size_t hi = std::min(end, base + span.size());
            for (std::size_t i = lo; i < hi; ++i)
                fn(i, span[i - base]);
            base += span.size();
            if (base >= end)
                return;
        }
    }

    /** Concatenate the spans into an owning cloud named @p name. */
    GaussianCloud
    copy(std::string name) const
    {
        GaussianCloud cloud(std::move(name));
        cloud.reserve(size_);
        for (const std::span<const Gaussian> &span : spans_)
            cloud.gaussians().insert(cloud.gaussians().end(), span.begin(),
                                     span.end());
        return cloud;
    }

  private:
    std::vector<std::span<const Gaussian>> spans_;
    std::size_t size_ = 0;
};

} // namespace gcc3d

#endif // GCC3D_SCENE_GAUSSIAN_CLOUD_H
