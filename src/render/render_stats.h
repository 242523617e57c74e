/**
 * @file
 * Dataflow counters reported by the functional renderers.
 *
 * These are the quantities the paper profiles to motivate and evaluate
 * GCC: population counts per pipeline phase (Fig. 2a), duplicated
 * Gaussian loads (Fig. 2b), pixel workloads per bounding method
 * (Table 1) and computation/traffic reductions (Fig. 11).
 */

#ifndef GCC3D_RENDER_RENDER_STATS_H
#define GCC3D_RENDER_RENDER_STATS_H

#include <cstdint>
#include <vector>

#include "render/preprocess.h"

namespace gcc3d {

/**
 * Wall-clock breakdown of one rendered frame by pipeline stage,
 * filled by the renderers (both fast and reference paths) so a
 * caller can see where the cycles went; Session turns it into the
 * per-frame stage costs perfbench reports.  Pure measurement — no
 * test compares these, and they accumulate across frames when one
 * stats object is reused.
 */
struct StageTimes
{
    double preprocess_ms = 0.0; ///< projection / SH / depth passes
    double binning_ms = 0.0;    ///< tile CSR build or Cmode bin merge
    double raster_ms = 0.0;     ///< sort + alpha + blend (and merges)
    double warp_ms = 0.0;       ///< temporal reprojection synthesis
};

/** Counters for the standard (preprocess-then-render) dataflow. */
struct StandardFlowStats
{
    PreprocessStats pre;            ///< projection-stage counters
    StageTimes stage;               ///< per-stage wall clock

    std::int64_t kv_pairs = 0;      ///< Gaussian-tile pairs built
    std::int64_t tile_fetches = 0;  ///< splat loads summed over tiles
    std::int64_t fetched_gaussians = 0; ///< unique splats fetched >=1 time
    std::int64_t sorted_keys = 0;   ///< keys passing through sorting
    std::int64_t rendered_gaussians = 0; ///< contributed >=1 pixel
    std::int64_t alpha_evals = 0;   ///< per-pixel alpha evaluations
    std::int64_t blend_ops = 0;     ///< blended (passing, live) pixels

    /**
     * (Gaussian, subtile) array passes: the VRU rasterizes an 8x8
     * subtile per cycle in lockstep, so a subtile with any live pixel
     * costs a full pass even when most lanes are dead.  This is the
     * quantity GSCore's rendering throughput is bound by.
     */
    std::int64_t subtile_passes = 0;

    /**
     * Sum over tiles of list_length x merge_passes: the work a
     * 16-wide bitonic merge sorter does to depth-sort each tile's
     * Gaussian list (longer lists need more merge passes).
     */
    std::int64_t sort_pass_keys = 0;

    /** Average times each fetched Gaussian was loaded (Fig. 2b). */
    double
    loadsPerRenderedGaussian() const
    {
        if (fetched_gaussians == 0)
            return 0.0;
        return static_cast<double>(tile_fetches) /
               static_cast<double>(fetched_gaussians);
    }
};

/**
 * Activity of one depth group as it flowed through Stages II-IV.
 * The cycle-level GCC simulator consumes this trace: per-group unit
 * occupancies compose into pipeline time, byte counts into DRAM
 * traffic.  Skipped groups (cross-stage conditional termination)
 * record only their population.  All fields count per-invocation
 * work: in Compatibility Mode one Gaussian contributes to the trace
 * once per sub-view it is binned into.
 */
struct GroupActivity
{
    std::int32_t members = 0;        ///< Gaussians in the group
    std::int32_t projected = 0;      ///< entered Stage II
    std::int32_t survivors = 0;      ///< survived omega-sigma culling
    std::int32_t sh_evals = 0;       ///< Stage III color evaluations
    std::int32_t sh_skipped = 0;     ///< SH loads skipped (per-Gaussian CC)
    /**
     * Survivors dropped when the frame (sub-view) terminated while
     * this group was mid-flight: their geometry was projected and
     * sorted, but the SH fetch and Alpha Unit dispatch never happened.
     * Flow balance: survivors == sh_evals + sh_skipped + terminated.
     */
    std::int32_t terminated = 0;
    std::int32_t rendered = 0;       ///< contributed >=1 pixel
    std::int64_t visited_blocks = 0; ///< Alpha Unit block dispatches
    std::int64_t active_blocks = 0;  ///< blocks with blended pixels
    std::int64_t alpha_evals = 0;    ///< pixel alpha evaluations
    std::int64_t blend_ops = 0;      ///< blended pixels
    bool skipped = false;            ///< never preprocessed (CC)
};

/**
 * Counters for the GCC (Gaussian-wise + conditional) dataflow.
 *
 * Two families, which coincide in full-view rendering and differ in
 * Compatibility Mode (sub-view partitioning duplicates processing):
 *
 *  - *Population* counters (total .. skipped_by_termination) have
 *    unique-Gaussian semantics: each Gaussian of the model counts at
 *    most once per counter, no matter how many sub-views re-process
 *    it, so every one of them is bounded by @c total (Fig. 2a-style
 *    accounting, and what `GccSim` derives its Stage I survivor
 *    population from).
 *  - *Work* counters (groups .. influence_pixels) count invocations:
 *    a Gaussian binned into three sub-views that projects in each
 *    adds three to stage2_invocations.  These are the quantities
 *    hardware time/energy/traffic scale with, and the Fig. 6
 *    duplication overhead is stage2_invocations over the unique
 *    rendered population.
 *
 * Unique classification of the skip counters: a Gaussian is
 * @c sh_evaluated if any sub-view evaluated its color; otherwise
 * @c sh_skipped if the per-Gaussian conditional-loading mask skipped
 * it somewhere; otherwise @c skipped_by_termination if cross-stage
 * termination dropped it (group never processed, or mid-group
 * in-flight drop) everywhere it was binned.
 */
struct GaussianWiseStats
{
    StageTimes stage;                  ///< per-stage wall clock

    // ---- Population counters (unique-Gaussian, each <= total). ----
    std::int64_t total = 0;            ///< Gaussians in the model
    std::int64_t depth_culled = 0;     ///< Stage I z-pivot culls
    std::int64_t projected = 0;        ///< entered Stage II >= once
    std::int64_t survived_cull = 0;    ///< survived omega-sigma culling
    std::int64_t sh_evaluated = 0;     ///< SH color evaluated >= once
    std::int64_t sh_skipped = 0;       ///< CC-masked, never evaluated
    std::int64_t rendered_gaussians = 0; ///< contributed >=1 pixel
    std::int64_t skipped_by_termination = 0; ///< termination-dropped everywhere

    // ---- Work counters (per (Gaussian, sub-view) invocation). ----
    std::int64_t groups = 0;           ///< depth groups formed
    std::int64_t groups_processed = 0; ///< groups entering Stage II
    std::int64_t stage2_invocations = 0; ///< Stage II projections
    std::int64_t survivor_invocations = 0; ///< cull survivors (sort keys)
    std::int64_t sh_eval_invocations = 0;  ///< SH evaluations (192 B loads)
    std::int64_t sh_skip_invocations = 0;  ///< per-Gaussian CC skips
    /** Group-skip members plus mid-group in-flight drops. */
    std::int64_t termination_skip_invocations = 0;
    /** Cmode (Gaussian, sub-view) bin records spilled by Stage I. */
    std::int64_t bin_records = 0;
    std::int64_t alpha_evals = 0;      ///< Stage IV alpha evaluations
    std::int64_t blend_ops = 0;        ///< blended pixels
    std::int64_t visited_blocks = 0;   ///< Alpha Unit block dispatches
    std::int64_t influence_pixels = 0; ///< pixels meeting alpha >= 1/255

    /** Per-group activity trace in processing order. */
    std::vector<GroupActivity> group_trace;
};

} // namespace gcc3d

#endif // GCC3D_RENDER_RENDER_STATS_H
