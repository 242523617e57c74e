/**
 * @file
 * Cross-frame state for temporally coherent tile rendering.
 *
 * The tile renderer is frame-stateless by design: every frame
 * re-projects, re-bins, re-sorts and re-composites every splat and
 * every tile.  Along a Trajectory, consecutive cameras are nearly
 * identical, so most of that work recomputes last frame's answers.
 * A TemporalCache threads a cross-frame lifetime through the
 * streaming path — TileRenderer::renderTemporal() reads and updates
 * it — in three independently-gated tiers:
 *
 *  1. Incremental CSR binning: the SoA splat store, per-splat
 *     coverage CSR and per-tile sorted key-value lists persist
 *     across frames.  A new camera re-runs render()'s prepare and
 *     cover stages (cheap, ~4% of a frame); instead of the bin
 *     stage, per-splat diffs of the blend record, depth key and tile
 *     coverage patch only the changed per-tile lists and re-sort
 *     only tiles whose key order actually changed.  A full rebuild
 *     runs render()'s whole stage sequence and keeps the lists it
 *     sorted.
 *  2. Dirty-tile output reuse: a tile whose member list, depth order
 *     and members' blend inputs are all bit-unchanged keeps last
 *     frame's composited pixels; only dirty tiles go through the
 *     shared raster stage.
 *     Exact-mode guarantee: the output image is bit-identical to a
 *     cold render of the same (cloud, camera, config) — the existing
 *     renderReference/equivalence machinery is the oracle
 *     (tests/test_renderer_equivalence.cc locks this in).
 *  3. Opt-in reprojection (options.every = k > 1): every k-th frame
 *     renders exactly; in-between frames are synthesized by a
 *     per-pixel depth backward warp from the last exact frame.
 *     NOT bit-exact — the contract is perceptual, >= 40 dB PSNR vs
 *     exact rendering on every preset scene at headset step sizes
 *     (enforced by the TemporalEquivalence cases
 *     PresetStreamsHoldTheStreamingContracts and
 *     ForcedWarpTierHolds40DbOnPreset in
 *     tests/test_renderer_equivalence.cc).
 *
 * Ownership and threading: a cache belongs to exactly one frame
 * stream (one serving session, one bench replay loop).  Frames of
 * one stream must be rendered in trajectory order with external
 * happens-before between consecutive frames — the FrameScheduler's
 * one-frame-in-flight-per-session invariant provides exactly that;
 * concurrent renderTemporal() calls on one cache are not allowed.
 * Distinct caches are fully independent.
 */

#ifndef GCC3D_RENDER_TEMPORAL_CACHE_H
#define GCC3D_RENDER_TEMPORAL_CACHE_H

#include <cstdint>
#include <limits>
#include <vector>

#include "render/image.h"
#include "render/splat_soa.h"
#include "scene/camera.h"

namespace gcc3d {

/** Knobs of the temporal-coherence engine. */
struct TemporalOptions
{
    /**
     * Exact-render cadence: 1 renders every frame exactly (tiers 1+2
     * only, bit-identical output), k > 1 renders every k-th frame
     * exactly and warps the in-between frames from it (tier 3).
     */
    int every = 1;

    /**
     * Warp trust region: an in-between frame whose camera moved
     * farther than this from the last exact frame (translation in
     * world units, rotation in radians) is rendered exactly instead
     * of warped, resetting the cadence.  Infinite by default (the
     * bench trajectories control their own step sizes).
     */
    float max_warp_translation = std::numeric_limits<float>::infinity();
    float max_warp_rotation = std::numeric_limits<float>::infinity();

    /**
     * Maintain the tier-3 warp source (exact image snapshot + depth
     * buffer) even at every == 1.  Costs the per-pixel depth capture
     * on exact frames, but lets a caller request an on-demand
     * synthesized frame via renderTemporal(..., force_warp = true) —
     * the serving degradation ladder's warp tier.  Off by default so
     * the every == 1 bit-exactness fast path stays untouched.
     */
    bool keep_exact = false;
};

/**
 * Work-attribution counters of one frame stream, accumulated across
 * renderTemporal() calls until reset().  These complement
 * StandardFlowStats: in temporal mode the flow counters report the
 * work actually performed (fewer sorts and blends than a cold
 * frame), and these counters attribute the savings.
 */
struct TemporalCounters
{
    std::int64_t frames = 0;          ///< frames served through the cache
    std::int64_t exact_frames = 0;    ///< rendered exactly (cold or incremental)
    std::int64_t copied_frames = 0;   ///< bit-equal camera: output copied
    std::int64_t warped_frames = 0;   ///< synthesized by reprojection
    std::int64_t full_rebuilds = 0;   ///< cold path (first frame, invalidation)
    std::int64_t incremental_frames = 0; ///< diff-and-patch exact frames

    // Per-tile attribution over incremental frames.
    std::int64_t tiles_total = 0;     ///< tiles examined
    std::int64_t tiles_reused = 0;    ///< clean: composited pixels copied
    std::int64_t tiles_rastered = 0;  ///< dirty: re-sorted/re-blended
    std::int64_t tiles_patched = 0;   ///< membership edits applied
    std::int64_t tiles_resorted = 0;  ///< depth order changed: re-sorted

    /** Splats whose blend record changed vs the previous frame. */
    std::int64_t splats_changed = 0;
};

/**
 * All persistent state of one temporally-coherent frame stream.
 * TileRenderer::renderTemporal() owns the invariants of the private
 * state; callers only configure options, read counters and reset()
 * between independent replays.
 */
class TemporalCache
{
  public:
    TemporalOptions options;

    const TemporalCounters &counters() const { return counters_; }

    /**
     * Drop all cross-frame state and counters.  The next frame
     * renders cold; exact-mode output is unaffected by when (or
     * whether) this is called — that is the cache-state-independence
     * guarantee the equivalence tests pin down.
     */
    void
    reset()
    {
        valid_ = false;
        exact_valid_ = false;
        counters_ = TemporalCounters{};
        soa_ = SplatSoA{};
        ids_.clear();
        cov_offsets_.clear();
        cov_tiles_.clear();
        tile_entries_.clear();
        image_ = Image{};
        exact_image_ = Image{};
        depth_.clear();
        depth_valid_ = false;
        warp_phase_ = 0;
        warp_cached_ = false;
        warp_image_ = Image{};
    }

  private:
    friend class TileRenderer;

    TemporalCounters counters_;

    // ---- Geometry/config snapshot the cached state is valid for. ----
    bool valid_ = false;       ///< incremental state usable
    int width_ = 0, height_ = 0, tile_size_ = 0;
    BoundingMode bounding_ = BoundingMode::Obb3Sigma;
    float termination_t_ = 0.0f, alpha_cutoff_ = 0.0f;
    bool fast_alpha_ = false;
    std::size_t cloud_size_ = 0;
    Camera camera_;            ///< camera of the cached exact state

    // ---- Tier 1: persisted binning state (previous exact frame). ----
    SplatSoA soa_;                            ///< previous SoA store
    std::vector<std::uint32_t> ids_;          ///< per-si source splat ids
    std::vector<std::uint32_t> cov_offsets_;  ///< per-splat coverage CSR
    std::vector<std::uint32_t> cov_tiles_;    ///< emitted tiles, ascending
    /** Per-tile packed (key, si) lists, ascending uint64 == cold order. */
    std::vector<std::vector<std::uint64_t>> tile_entries_;

    // ---- Tier 2: previous composited output. ----
    Image image_;

    // ---- Tier 3: warp source (last exact frame when every > 1). ----
    bool exact_valid_ = false;
    Camera exact_camera_;
    Image exact_image_;
    /** Per-pixel median-surface view depth of the exact frame (0 where
     *  nothing contributed).  Captured during exact rasterization when
     *  every > 1; the warp lifts each pixel at this depth. */
    std::vector<float> depth_;
    bool depth_valid_ = false;
    int warp_phase_ = 0;             ///< frames left before next exact

    // Last synthesized frame, so a held camera during a warp run
    // copies instead of re-warping (trajectory presets hold each
    // camera for a few frames to model camera-update rates below the
    // render rate).
    bool warp_cached_ = false;
    Camera warp_camera_;
    Image warp_image_;
};

} // namespace gcc3d

#endif // GCC3D_RENDER_TEMPORAL_CACHE_H
