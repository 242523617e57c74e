#include "lod/lod_scene.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "obs/fault_hooks.h"
#include "obs/metrics_registry.h"

namespace gcc3d {

namespace {

/** Euclidean distance from @p p to the AABB [@p lo, @p hi]. */
float
aabbDistance(const Vec3 &p, const Vec3 &lo, const Vec3 &hi)
{
    float dx = std::max({lo.x - p.x, 0.0f, p.x - hi.x});
    float dy = std::max({lo.y - p.y, 0.0f, p.y - hi.y});
    float dz = std::max({lo.z - p.z, 0.0f, p.z - hi.z});
    return std::sqrt(dx * dx + dy * dy + dz * dz);
}

/**
 * Level the cut renders a chunk at: 0 (leaves) when the chunk's
 * diagonal subtends >= tau from the camera, one proxy level deeper
 * per halving of the subtended angle below tau.
 */
int
selectLevel(const Vec3 &cam, const Vec3 &lo, const Vec3 &hi,
            const LodCutParams &params, int max_level)
{
    if (params.force_level >= 0)
        return std::min(params.force_level, max_level);
    if (max_level == 0)
        return 0;
    Vec3 diag = hi - lo;
    float diameter = diag.norm();
    float d = aabbDistance(cam, lo, hi);
    // Inside or touching the chunk: always full detail.
    if (d <= 1e-6f)
        return 0;
    float angular = params.bias * diameter / d;
    if (angular >= params.tau || !(angular > 0.0f))
        return 0;
    // Clamped in float: a huge or infinite tau (or a NaN) must not
    // reach the int conversion, where it would be undefined.
    const float halvings = std::floor(std::log2(params.tau / angular));
    if (!(halvings < static_cast<float>(max_level - 1)))
        return max_level;
    return 1 + static_cast<int>(halvings);
}

} // namespace

bool
lodCutParamsValid(const LodCutParams &params, float tau_factor)
{
    auto positive = [](float v) { return v > 0.0f && std::isfinite(v); };
    return positive(params.tau) && positive(params.bias) &&
           positive(params.tau * tau_factor);
}

float
lodPsnrFloorDb(int level)
{
    // Floors = the per-level minimum measured across the
    // Palace/Lego/Train presets at paper scale minus ~2 dB margin;
    // the contract is declared at GCC3D_SCALE=1, which is what CI
    // enforces (bench/contracts, lod_psnr_floors).  The forced-level
    // render is a stress view — every chunk at the coarse level from
    // the evaluation camera — not the far-field configuration the
    // distance cut actually produces, so these are regression
    // tripwires, not perceptual-quality promises.  Level 0 carries
    // quantization noise only.
    if (level <= 0)
        return 45.0f;
    switch (level) {
      case 1: return 16.0f;
      case 2: return 13.5f;
      default: return 12.0f;
    }
}

LodScene::LodScene(const std::string &path, std::size_t budget_bytes)
    : stream_(path, std::ios::binary), residency_(budget_bytes),
      obs_culled_chunks_(obs::MetricsRegistry::global().counter(
          "lod.cut.culled_chunks")),
      obs_culled_gaussians_(obs::MetricsRegistry::global().counter(
          "lod.cut.culled_gaussians")),
      obs_copied_bytes_(obs::MetricsRegistry::global().counter(
          "lod.cut.copied_bytes"))
{
    if (!stream_)
        throw std::runtime_error("cannot open scene file: " + path);
    reader_ = std::make_unique<GscV2Reader>(stream_);
    for (std::size_t i = 0; i < reader_->chunkCount(); ++i)
        for (const auto &level : reader_->chunk(i).proxies)
            proxy_bytes_ += level.size() * Gaussian::kTotalBytes;
}

std::shared_ptr<const ResidentChunk>
LodScene::loadLeaf(std::size_t index)
{
    // Bounded retry with exponential backoff: decode failures (real
    // IO errors or injected ChunkDecode faults) are retried a fixed
    // number of times, then the exception propagates to buildCut's
    // proxy fallback.  The attempt number is folded into the fault
    // key so a transient injected fault clears deterministically.
    const obs::RetryPolicy retry;
    for (int attempt = 0;; ++attempt) {
        try {
            return residency_.acquire(
                index, [this, index, attempt](ResidentChunk &chunk) {
                    const obs::FaultAction fault = obs::faultAt(
                        obs::FaultSite::ChunkDecode,
                        (static_cast<std::uint64_t>(index) << 8) +
                            static_cast<std::uint64_t>(attempt));
                    if (fault.inject)
                        throw std::runtime_error(
                            "lod: chunk decode failed (injected)");
                    decodeLeaf(index, chunk.gaussians, chunk.indices);
                });
        } catch (const std::exception &) {
            if (attempt + 1 >= retry.max_attempts)
                throw;
            obs::MetricsRegistry::global()
                .counter("lod.chunk.retries")
                .add();
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    retry.delayMs(attempt + 1)));
        }
    }
}

void
LodScene::decodeLeaf(std::size_t index, std::vector<Gaussian> &gaussians,
                     std::vector<std::uint32_t> &indices)
{
    std::vector<unsigned char> payload;
    {
        MutexLock lock(stream_mutex_);
        reader_->readChunk(stream_, index, payload);
    }
    reader_->decodeChunk(index, payload, gaussians, indices);
}

LodCut
LodScene::cut(const Camera &camera, const LodCutParams &params,
              LodCutStats *stats)
{
    // Levels first: the directory gives every chunk's size at its
    // level.  A chunk outside the frustum is counted at its level and
    // marked culled: no splat of it could survive projection, so it
    // is never fetched or decoded.  Cached leaves are fetched in
    // the same pass, before any miss is decoded: a cut's leaves can
    // outnumber the budget, and fetched in index order LRU would
    // evict each cached leaf just before the scan reaches it.  The
    // cut's order is fixed below, whatever the order of fetching.
    constexpr int kCulled = -1;
    const Vec3 &cam = camera.position();
    std::vector<int> levels(reader_->chunkCount());
    std::vector<std::shared_ptr<const ResidentChunk>> leaves(levels.size());
    LodCutStats local;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const GscV2ChunkInfo &info = reader_->chunk(i);
        const int level = selectLevel(cam, info.lo, info.hi, params,
                                      reader_->proxyLevels());
        const std::size_t count =
            level == 0
                ? static_cast<std::size_t>(info.count)
                : info.proxies[static_cast<std::size_t>(level - 1)].size();
        if (camera.boxOutsideFrustum(info.lo, info.hi)) {
            levels[i] = kCulled;
            if (level == 0) {
                ++local.leaf_chunks;
                local.leaf_gaussians += count;
            } else {
                ++local.proxy_chunks;
            }
            ++local.culled_chunks;
            local.culled_gaussians += count;
            continue;
        }
        levels[i] = level;
        if (level == 0)
            leaves[i] = residency_.lookup(i);
    }
    obs_culled_chunks_.add(static_cast<std::int64_t>(local.culled_chunks));
    obs_culled_gaussians_.add(
        static_cast<std::int64_t>(local.culled_gaussians));

    LodCut cut;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const GscV2ChunkInfo &info = reader_->chunk(i);
        if (levels[i] == kCulled)
            continue;
        if (levels[i] == 0) {
            std::shared_ptr<const ResidentChunk> leaf = std::move(leaves[i]);
            try {
                if (!leaf)
                    leaf = loadLeaf(i);
            } catch (const std::exception &) {
                // Retries exhausted.  Degrade to the finest resident
                // proxy instead of failing the frame — a deliberate,
                // counted pixel deviation that only fault injection
                // (or real persistent IO corruption) can trigger.
                if (reader_->proxyLevels() > 0) {
                    obs::MetricsRegistry::global()
                        .counter("lod.chunk.proxy_fallbacks")
                        .add();
                    ++local.proxy_fallbacks;
                    cut.view.append(info.proxies[0]);
                    ++local.proxy_chunks;
                    continue;
                }
                throw;  // flat file: nothing to degrade to
            }
            cut.view.append(leaf->gaussians);
            ++local.leaf_chunks;
            local.leaf_gaussians += leaf->gaussians.size();
            cut.pins.push_back(std::move(leaf));
        } else {
            cut.view.append(
                info.proxies[static_cast<std::size_t>(levels[i] - 1)]);
            ++local.proxy_chunks;
        }
    }
    local.cut_gaussians = cut.view.size() + local.culled_gaussians;
    if (stats != nullptr)
        *stats = local;
    return cut;
}

GaussianCloud
LodScene::buildCut(const Camera &camera, const LodCutParams &params,
                   LodCutStats *stats)
{
    GaussianCloud cloud =
        cut(camera, params, stats).view.copy(reader_->name());
    obs_copied_bytes_.add(
        static_cast<std::int64_t>(cloud.size() * sizeof(Gaussian)));
    return cloud;
}

GaussianCloud
LodScene::fullCloud()
{
    GaussianCloud cloud(reader_->name());
    cloud.gaussians().resize(
        static_cast<std::size_t>(reader_->totalCount()));

    std::vector<Gaussian> gaussians;
    std::vector<std::uint32_t> indices;
    for (std::size_t i = 0; i < reader_->chunkCount(); ++i) {
        decodeLeaf(i, gaussians, indices);
        for (std::size_t k = 0; k < gaussians.size(); ++k)
            cloud.gaussians()[indices[k]] = gaussians[k];
    }
    return cloud;
}

} // namespace gcc3d
