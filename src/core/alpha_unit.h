/**
 * @file
 * Stage IV hardware model: the Alpha Unit (Sec. 4.4).
 *
 * An n x n PE array (n = 8) evaluates one pixel block of alphas per
 * cycle: each PE computes the quadratic form through FMAs and feeds
 * the fixed-point LUT-based EXP (16 linear segments over [-5.54, 0)).
 * The Runtime Identifier walks blocks breadth-first from the block
 * containing the projected center, pruning directions whose boundary
 * alphas all fall below 1/255 and skipping blocks masked by the
 * transmittance mask.  Per-Gaussian latency is 14 cycles; 16 status
 * maps/queues are preloaded so back-to-back Gaussians keep the array
 * busy.
 */

#ifndef GCC3D_CORE_ALPHA_UNIT_H
#define GCC3D_CORE_ALPHA_UNIT_H

#include <cstdint>

#include "core/gcc_config.h"

namespace gcc3d {

/** Cycle/op cost of the alpha stage for a batch of Gaussians. */
struct AlphaCost
{
    std::uint64_t cycles = 0;
    std::uint64_t latency = 0;
    std::uint64_t exp_ops = 0;   ///< LUT EXP evaluations
    std::uint64_t fma_ops = 0;   ///< quadratic-form FMAs
};

/** Stage IV alpha cycle model. */
class AlphaUnit
{
  public:
    explicit AlphaUnit(const GccConfig &config) : config_(&config) {}

    /** FMAs per pixel for the quadratic form d^T conic d. */
    static constexpr std::uint64_t kFmaPerPixel = 5;

    /**
     * Cost of processing @p gaussians Gaussians whose traversal
     * dispatched @p blocks pixel blocks in total.  One block per
     * cycle through the array; per-Gaussian pipeline restart cost is
     * hidden by the 16-deep preload except for very small footprints.
     */
    AlphaCost batch(std::uint64_t gaussians, std::uint64_t blocks) const;

  private:
    const GccConfig *config_;
};

} // namespace gcc3d

#endif // GCC3D_CORE_ALPHA_UNIT_H
