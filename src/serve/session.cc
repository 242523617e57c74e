#include "serve/session.h"

#include <cmath>
#include <stdexcept>

#include "obs/perf_recorder.h"
#include "runtime/sweep_runner.h"

namespace gcc3d {

std::string
sessionRendererName(SessionRenderer renderer)
{
    switch (renderer) {
    case SessionRenderer::Tile:
        return "tile";
    case SessionRenderer::GaussianWise:
        return "gw";
    }
    return "unknown";
}

SessionRenderer
sessionRendererFromName(const std::string &name)
{
    if (name == "tile")
        return SessionRenderer::Tile;
    if (name == "gw" || name == "gaussian-wise")
        return SessionRenderer::GaussianWise;
    throw std::invalid_argument("unknown session renderer: " + name);
}

const char *
degradeTierName(DegradeTier tier)
{
    switch (tier) {
    case DegradeTier::Full: return "full";
    case DegradeTier::Warp: return "warp";
    case DegradeTier::HalfRes: return "half_res";
    case DegradeTier::CoarseLod: return "coarse_lod";
    case DegradeTier::Drop: return "drop";
    }
    return "unknown";
}

const char *
shedReasonName(ShedReason reason)
{
    switch (reason) {
    case ShedReason::None: return "none";
    case ShedReason::Late: return "late";
    case ShedReason::Admission: return "admission";
    case ShedReason::Fairness: return "fairness";
    case ShedReason::Degrade: return "degrade";
    case ShedReason::Disconnect: return "disconnect";
    }
    return "unknown";
}

Session::Session(SessionConfig config, SceneHandle scene)
    : config_(std::move(config)), scene_(std::move(scene)),
      tile_(config_.tile), gw_(config_.gw)
{
    if ((!scene_.cloud && !scene_.lod) || !scene_.trajectory)
        throw std::invalid_argument("session needs a complete scene handle");
    if (config_.frames < 1)
        throw std::invalid_argument("session needs at least one frame");
    if (static_cast<std::size_t>(config_.frames) >
        scene_.trajectory->frameCount())
        throw std::invalid_argument(
            "session trajectory shorter than requested frames");
    if (!(config_.fps_target >= 0.0) || !std::isfinite(config_.fps_target))
        throw std::invalid_argument("fps target must be finite and >= 0");
    if (!std::isfinite(config_.start_ms) || config_.start_ms < 0.0)
        throw std::invalid_argument("start_ms must be finite and >= 0");
    if (config_.degrade &&
        (!(config_.degrade_render_scale > 0.0f) ||
         config_.degrade_render_scale >= 1.0f ||
         !(config_.degrade_tau_factor >= 1.0f)))
        throw std::invalid_argument("degrade knobs out of range");
    if (!lodCutParamsValid(config_.lod_cut, config_.degrade
                                                ? config_.degrade_tau_factor
                                                : 1.0f))
        throw std::invalid_argument("LOD cut tau/bias out of range");
    // A temporal cache exists when temporal streaming is requested,
    // or when the degradation ladder needs a warp source (keep_exact
    // captures the retained exact frame's depth at every == 1).
    const bool wants_cache =
        (config_.temporal >= 1 || config_.degrade) &&
        config_.renderer == SessionRenderer::Tile && !scene_.lod;
    if (wants_cache) {
        temporal_ = std::make_unique<TemporalCache>();
        temporal_->options.every = std::max(1, config_.temporal);
        temporal_->options.keep_exact = config_.degrade;
    }
}

double
Session::periodMs() const
{
    return config_.fps_target > 0.0 ? 1000.0 / config_.fps_target : 0.0;
}

double
Session::renderFrame(int frame) const
{
    return renderFrame(frame, nullptr);
}

double
Session::renderFrame(int frame, FrameStageCost *cost) const
{
    return renderFrameDegraded(frame, DegradeTier::Full, cost, nullptr);
}

double
Session::renderCut(const LodCutParams &cut_params, const Camera &render_cam,
                   bool temporal, bool force_warp,
                   FrameStageCost *cost) const
{
    // LOD sessions render the camera's cut, culled against the
    // frustum that renders, straight from its resident spans (the
    // cut's pins keep them alive until this frame returns); both
    // renderers read it in place.  Resident-cloud sessions render the
    // shared cloud.  All are pure in (scene, camera).
    const bool tile = config_.renderer == SessionRenderer::Tile;
    LodCut cut;
    double decode_ms = 0.0;
    if (scene_.lod) {
        obs::PerfScope decode_scope(obs::Stage::Decode, &decode_ms);
        cut = scene_.lod->cut(render_cam, cut_params);
    }
    const CloudView view = scene_.lod ? cut.view : CloudView(*scene_.cloud);
    // A temporal frame is checksummed where its cache holds it.
    double checksum = 0.0;
    StageTimes stage;
    if (tile) {
        StandardFlowStats stats;
        checksum = temporal
                       ? imageChecksum(tile_.renderTemporal(
                             view, render_cam, stats, *temporal_, nullptr,
                             force_warp))
                       : imageChecksum(tile_.render(view, render_cam, stats));
        stage = stats.stage;
    } else {
        GaussianWiseStats stats;
        checksum = imageChecksum(gw_.render(view, render_cam, stats));
        stage = stats.stage;
    }
    if (cost != nullptr) {
        cost->pre_ms = stage.preprocess_ms;
        cost->bin_ms = stage.binning_ms;
        cost->raster_ms = stage.raster_ms;
        cost->warp_ms = stage.warp_ms;
        cost->decode_ms = decode_ms;
    }
    return checksum;
}

bool
Session::tierAvailable(DegradeTier tier) const
{
    switch (tier) {
    case DegradeTier::Full:
        return true;
    case DegradeTier::Warp:
        return temporal_ != nullptr;
    case DegradeTier::HalfRes:
        return config_.degrade_render_scale > 0.0f &&
               config_.degrade_render_scale < 1.0f;
    case DegradeTier::CoarseLod:
        return scene_.lod != nullptr;
    case DegradeTier::Drop:
        return false;
    }
    return false;
}

double
Session::renderFrameDegraded(int frame, DegradeTier tier,
                             FrameStageCost *cost,
                             DegradeTier *served) const
{
    if (frame < 0 || frame >= config_.frames)
        throw std::out_of_range("session frame index out of range");
    if (tier == DegradeTier::Drop || !tierAvailable(tier))
        tier = DegradeTier::Full;
    // Recorder samples emitted below (renderer laps, LOD decode,
    // chunk decodes) carry this session/frame in the trace.
    obs::FrameTag tag(config_.id, frame);
    const Camera &cam =
        scene_.trajectory->frame(static_cast<std::size_t>(frame));

    // Full frames stream through the temporal cache when the session
    // has one.  Warp forces a reprojection from the last exact frame
    // and falls back to an exact render when no warp source is valid
    // yet (the fallback also primes the source for the next request).
    // HalfRes / CoarseLod are stateless exact renders with a cheaper
    // camera or cut: the temporal cache is never touched.
    LodCutParams cut_params = config_.lod_cut;
    if (tier == DegradeTier::CoarseLod)
        cut_params.tau *= config_.degrade_tau_factor;
    const Camera render_cam =
        tier == DegradeTier::HalfRes
            ? cam.scaledResolution(config_.degrade_render_scale)
            : cam;
    const bool temporal = temporal_ != nullptr &&
                          (tier == DegradeTier::Full ||
                           tier == DegradeTier::Warp);
    const TemporalCounters before =
        temporal ? temporal_->counters() : TemporalCounters{};
    const double checksum =
        renderCut(cut_params, render_cam, temporal,
                  tier == DegradeTier::Warp, cost);
    if (served != nullptr) {
        const bool warp_served =
            temporal &&
            (temporal_->counters().warped_frames > before.warped_frames ||
             temporal_->counters().copied_frames > before.copied_frames);
        *served = tier == DegradeTier::Warp && !warp_served
                      ? DegradeTier::Full
                      : tier;
    }
    return checksum;
}

} // namespace gcc3d
