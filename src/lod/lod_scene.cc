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
    int level =
        1 + static_cast<int>(std::floor(std::log2(params.tau / angular)));
    return std::min(level, max_level);
}

} // namespace

float
lodPsnrFloorDb(int level)
{
    // Floors = the per-level minimum measured across the
    // Palace/Lego/Train presets at paper scale (bench/lod_scale,
    // BENCH_lod.json) minus ~2 dB margin; the contract is declared at
    // GCC3D_SCALE=1, which is what CI enforces.  The forced-level
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
    : stream_(path, std::ios::binary), residency_(budget_bytes)
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

GaussianCloud
LodScene::buildCut(const Camera &camera, const LodCutParams &params,
                   LodCutStats *stats)
{
    // Levels first: the directory gives every chunk's size at its
    // level, so the cut is allocated once and filled chunk by chunk.
    // Cached leaves are fetched in the same pass, before any miss is
    // decoded: a cut's leaves can outnumber the budget, and fetched
    // in index order LRU would evict each cached leaf just before the
    // scan reaches it.  The cut's order is fixed below, whatever the
    // order of fetching.
    const Vec3 &cam = camera.position();
    std::vector<int> levels(reader_->chunkCount());
    std::vector<std::shared_ptr<const ResidentChunk>> leaves(levels.size());
    std::size_t cut_size = 0;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const GscV2ChunkInfo &info = reader_->chunk(i);
        levels[i] = selectLevel(cam, info.lo, info.hi, params,
                                reader_->proxyLevels());
        if (levels[i] == 0) {
            cut_size += static_cast<std::size_t>(info.count);
            leaves[i] = residency_.lookup(i);
        } else {
            cut_size +=
                info.proxies[static_cast<std::size_t>(levels[i] - 1)].size();
        }
    }

    GaussianCloud cut(reader_->name());
    cut.reserve(cut_size);
    LodCutStats local;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const GscV2ChunkInfo &info = reader_->chunk(i);
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
                    cut.append(info.proxies[0]);
                    ++local.proxy_chunks;
                    continue;
                }
                throw;  // flat file: nothing to degrade to
            }
            cut.append(leaf->gaussians);
            ++local.leaf_chunks;
            local.leaf_gaussians += leaf->gaussians.size();
        } else {
            cut.append(info.proxies[static_cast<std::size_t>(levels[i] - 1)]);
            ++local.proxy_chunks;
        }
    }
    local.cut_gaussians = cut.size();
    if (stats != nullptr)
        *stats = local;
    return cut;
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
