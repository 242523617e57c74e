/**
 * @file
 * One client's render session.
 *
 * A Session binds a client id to shared immutable scene state (from
 * the SceneRegistry), a Trajectory-driven camera stream, and a
 * renderer configuration — either the standard tile-wise renderer or
 * the Gaussian-wise (GCC-dataflow) renderer, with Compatibility Mode
 * and conditional processing as per-session knobs.  Frames are pure
 * functions of (scene, trajectory frame, config): rendering frame i
 * of a session yields the same pixels whether it runs serially, on a
 * scheduler worker, or interleaved with other sessions — the property
 * the serving benchmark cross-checks by checksum.
 */

#ifndef GCC3D_SERVE_SESSION_H
#define GCC3D_SERVE_SESSION_H

#include <memory>
#include <string>

#include "render/gaussian_wise_renderer.h"
#include "render/temporal_cache.h"
#include "render/tile_renderer.h"
#include "serve/scene_registry.h"

namespace gcc3d {

/** Which functional renderer a session streams through. */
enum class SessionRenderer
{
    Tile,         ///< standard dataflow (tile-wise)
    GaussianWise, ///< GCC dataflow (Gaussian-wise)
};

/** Lower-case renderer name ("tile", "gw"). */
std::string sessionRendererName(SessionRenderer renderer);

/** Parse a renderer name ("tile", "gw", "gaussian-wise"); throws. */
SessionRenderer sessionRendererFromName(const std::string &name);

/**
 * The graceful-degradation ladder, cheapest-acceptable-first.  Under
 * overload the scheduler's feedback controller walks down the ladder
 * until the predicted frame cost fits the remaining deadline slack:
 *
 *   Full      exact full-resolution render (the only tier that exists
 *             with degradation disabled),
 *   Warp      temporal reprojection from the session's last exact
 *             frame (resident-cloud Tile sessions with a temporal
 *             cache; >= 40 dB PSNR contract, bench-enforced),
 *   HalfRes   exact render at a reduced resolution
 *             (SessionConfig::degrade_render_scale),
 *   CoarseLod LOD sessions only: cut built with tau scaled by
 *             degrade_tau_factor (coarser proxies, fewer leaves),
 *   Drop      nothing delivered — the ladder's floor, equivalent to
 *             an admission shed.
 */
enum class DegradeTier
{
    Full = 0,
    Warp,
    HalfRes,
    CoarseLod,
    Drop,
};

constexpr int kDegradeTierCount = 5;

/** Stable lower-case tier name ("full", "warp", "half_res", ...). */
const char *degradeTierName(DegradeTier tier);

/** Why the scheduler shed (or served) a frame. */
enum class ShedReason
{
    None = 0,    ///< frame was rendered
    Late,        ///< past deadline at dispatch (--drop-late)
    Admission,   ///< token bucket / predicted-late admission control
    Fairness,    ///< hot session yielded under scarcity
    Degrade,     ///< ladder walked to Drop: no tier fit the slack
    Disconnect,  ///< session left before this frame (chaos)
};

constexpr int kShedReasonCount = 6;

/** Stable lower-case reason name ("late", "admission", ...). */
const char *shedReasonName(ShedReason reason);

/** Full description of one client's stream. */
struct SessionConfig
{
    int id = 0;                 ///< client id, unique within a fleet
    SceneSpec spec;             ///< scene viewed (resolved preset)
    float scale = 1.0f;         ///< population scale in (0, 1]
    int frames = 8;             ///< frames requested along the path

    SessionRenderer renderer = SessionRenderer::Tile;
    TileRendererConfig tile;    ///< used when renderer == Tile
    GaussianWiseConfig gw;      ///< used when renderer == GaussianWise

    /** LOD cut selection, used when the scene handle is a LodScene. */
    LodCutParams lod_cut;

    /**
     * Per-session FPS target; frame i's deadline is (i+1)/fps_target
     * after serving starts.  0 = best effort (no deadlines, never
     * counted as missed).  Must be finite and >= 0 (the constructor
     * validates, so degenerate targets can never reach the EDF
     * deadline math).
     */
    double fps_target = 0.0;

    /**
     * Open-loop arrival offset: the session joins start_ms after
     * serving starts, so frame i releases at start_ms + i/fps_target
     * and carries deadline start_ms + (i+1)/fps_target.  0 (the
     * closed-loop default) preserves the historical timeline.
     */
    double start_ms = 0.0;

    /**
     * Opt into the graceful-degradation ladder: the scheduler may
     * serve this session Warp/HalfRes/CoarseLod frames when the
     * deadline slack cannot fit a Full render.  Off by default —
     * every existing checksum guarantee assumes exact frames.
     */
    bool degrade = false;

    /** Resolution multiplier of the HalfRes tier, in (0, 1). */
    float degrade_render_scale = 0.5f;

    /** Tau multiplier of the CoarseLod tier (> 1 = coarser cut). */
    float degrade_tau_factor = 4.0f;

    /**
     * Temporal-coherence mode for Tile resident-cloud sessions:
     * 0 disables it (the stateless render() path); k >= 1 streams
     * frames through a per-session TemporalCache with
     * options.every = k — 1 is exact incremental mode (bit-identical
     * to stateless rendering), k > 1 synthesizes the in-between
     * frames by reprojection under the >= 40 dB PSNR contract.
     * Ignored by GaussianWise sessions and by LOD sessions, whose
     * per-frame cut rebuild would invalidate the cache every frame.
     */
    int temporal = 0;
};

/**
 * Per-stage cost breakdown of one rendered frame, the evidence SLO
 * miss attribution (serve/slo_attribution.h) argmaxes over.  Filled
 * by Session::renderFrame from the renderer's StageTimes plus the
 * session-level LOD cut build; all zeros when the frame was dropped
 * or the observability hooks are compiled out (GCC3D_OBS=OFF), in
 * which case misses attribute to queue wait or "unknown".
 */
struct FrameStageCost
{
    double pre_ms = 0.0;     ///< projection/SH/culling
    double bin_ms = 0.0;     ///< tile / sub-view binning
    double raster_ms = 0.0;  ///< rasterization
    double warp_ms = 0.0;    ///< temporal reprojection
    double decode_ms = 0.0;  ///< LOD cut build (chunk decodes inside)
};

/** The outcome of rendering (or dropping) one session frame. */
struct FrameRecord
{
    int frame = 0;               ///< trajectory frame index
    bool rendered = false;       ///< false = dropped under overload
    bool deadline_missed = false;
    double queue_wait_ms = 0.0;  ///< admissible -> dispatched
    double render_ms = 0.0;      ///< render call wall time
    double latency_ms = 0.0;     ///< released -> completed (SLO metric)
    double checksum = 0.0;       ///< pixel fingerprint (0 when dropped)
    DegradeTier tier = DegradeTier::Full;  ///< ladder tier served
    ShedReason shed_reason = ShedReason::None;  ///< set when !rendered
    FrameStageCost cost;         ///< where render_ms went
};

/**
 * A live session: config + shared scene handle + renderer instances.
 *
 * Thread safety: renderFrame() is const, and its frame scratch is
 * private to the call: a tile frame keeps it on the stack, and a
 * Gaussian-wise frame leases its view scratch from a process-wide
 * pool.  So any worker may render any session's frame.  The scheduler
 * still serves each session's frames in order, one in flight, as a
 * client consuming a stream would.  A temporal session additionally
 * carries a mutable TemporalCache: the in-order, one-in-flight
 * invariant (whose mutex hand-off provides the happens-before between
 * consecutive frames) is then a requirement, not just a fidelity
 * choice — exactly what FrameScheduler and renderSerial() guarantee.
 *
 * Lifetime: the cache's frame state lives from the stream's first
 * frame to its end (last frame served, shed or cut by a disconnect),
 * when FrameScheduler and renderSerial() call releaseFrameState().
 * Its counters outlive it, for the report.
 */
class Session
{
  public:
    /**
     * @param config  the stream description
     * @param scene   shared handle; its trajectory must cover
     *                config.frames frames
     */
    Session(SessionConfig config, SceneHandle scene);

    const SessionConfig &config() const { return config_; }
    int id() const { return config_.id; }
    int frameCount() const { return config_.frames; }
    const SceneHandle &scene() const { return scene_; }

    /** Frame period implied by the FPS target (0 when best-effort). */
    double periodMs() const;

    /**
     * Render trajectory frame @p frame through the configured
     * renderer and return the image checksum.  Pure: identical
     * arguments give bit-identical pixels on any thread.  LOD
     * sessions first build the frame's cut (a pure function of the
     * camera — residency cache state never changes it), so the
     * purity guarantee survives budget pressure.
     */
    double renderFrame(int frame) const;

    /**
     * As above, additionally reporting the frame's per-stage cost
     * breakdown into @p cost (may be null).  Rendering runs under an
     * obs::FrameTag, so recorder samples from inside the renderers
     * carry this session/frame.
     */
    double renderFrame(int frame, FrameStageCost *cost) const;

    /**
     * True iff this session can serve @p tier at all: Full always,
     * Warp needs a temporal cache (Tile, resident cloud), HalfRes
     * needs a valid degrade_render_scale, CoarseLod needs an LOD
     * scene.  Drop is never "available" — it is the absence of a
     * frame.
     */
    bool tierAvailable(DegradeTier tier) const;

    /**
     * Render frame @p frame at the requested ladder tier.  Best
     * effort: a Warp request without a valid warp source (first
     * frame, trust region exceeded) renders Full instead, and an
     * unavailable tier falls back to Full; @p served (may be null)
     * reports the tier actually delivered.  Degraded tiers are
     * stateless — they never advance the temporal cache, so the
     * next Full frame is unaffected.  Deterministic in (session
     * state, frame, tier) like renderFrame.
     */
    double renderFrameDegraded(int frame, DegradeTier tier,
                               FrameStageCost *cost,
                               DegradeTier *served) const;

    /**
     * The session's temporal cache, or null when config.temporal is
     * 0 or the session type doesn't support one.  Counters feed the
     * serve report; options are owned by the session.
     */
    const TemporalCache *temporalCache() const { return temporal_.get(); }

    /**
     * Drop the temporal cache's cross-frame state (no-op without a
     * cache).  Called before every independent replay of the
     * trajectory — the serial baseline and each scheduler policy run
     * — so every replay sees the same frame sequence and reproduces
     * the same checksums.
     */
    void
    resetTemporal() const
    {
        if (temporal_)
            temporal_->reset();
    }

    /**
     * End of the stream: free the temporal cache's frame state and
     * keep its counters (no-op without a cache).  Returns the bytes
     * freed.  Same threading rule as renderFrame(): never while a
     * frame of this session is in flight.
     */
    std::size_t
    releaseFrameState() const
    {
        const std::size_t bytes = retainedBytes();
        if (temporal_)
            temporal_->releaseFrameState();
        return bytes;
    }

    /** Heap bytes of cross-frame state held now (0 without a cache). */
    std::size_t
    retainedBytes() const
    {
        return temporal_ ? temporal_->retainedBytes() : 0;
    }

  private:
    /** Render @p render_cam's LOD cut under @p cut_params (or the
     *  resident cloud) at @p render_cam, through the temporal cache
     *  when @p temporal (forwarding @p force_warp); fills @p cost (may
     *  be null). */
    double renderCut(const LodCutParams &cut_params,
                     const Camera &render_cam, bool temporal,
                     bool force_warp, FrameStageCost *cost) const;

    SessionConfig config_;
    SceneHandle scene_;
    TileRenderer tile_;
    GaussianWiseRenderer gw_;
    /** Cross-frame temporal state; mutated by const renderFrame()
     *  under the caller's in-order one-in-flight guarantee. */
    mutable std::unique_ptr<TemporalCache> temporal_;
};

} // namespace gcc3d

#endif // GCC3D_SERVE_SESSION_H
