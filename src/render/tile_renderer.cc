#include "render/tile_renderer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>

#include "gsmath/simd.h"
#include "gsmath/sort_keys.h"
#include "render/lane_blend.h"
#include "obs/metrics_registry.h"
#include "obs/perf_recorder.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace gcc3d {

namespace {

/**
 * Mirrors the deltas a temporal frame applies to its cache-local
 * TemporalCounters into the global metrics registry, whatever path
 * the frame exits through.  The per-cache counters stay the source
 * of truth for stats/equivalence; the registry copies are for fleet
 * dashboards and --metrics-out.
 */
class TemporalCounterMirror
{
  public:
    explicit TemporalCounterMirror(const TemporalCounters &c)
        : c_(c), before_(c)
    {
    }

    ~TemporalCounterMirror()
    {
        static obs::Counter &frames =
            obs::MetricsRegistry::global().counter("render.temporal.frames");
        static obs::Counter &exact = obs::MetricsRegistry::global().counter(
            "render.temporal.exact_frames");
        static obs::Counter &copied = obs::MetricsRegistry::global().counter(
            "render.temporal.copied_frames");
        static obs::Counter &warped = obs::MetricsRegistry::global().counter(
            "render.temporal.warped_frames");
        static obs::Counter &reused = obs::MetricsRegistry::global().counter(
            "render.temporal.tiles_reused");
        static obs::Counter &rastered =
            obs::MetricsRegistry::global().counter(
                "render.temporal.tiles_rastered");
        frames.add(c_.frames - before_.frames);
        exact.add(c_.exact_frames - before_.exact_frames);
        copied.add(c_.copied_frames - before_.copied_frames);
        warped.add(c_.warped_frames - before_.warped_frames);
        reused.add(c_.tiles_reused - before_.tiles_reused);
        rastered.add(c_.tiles_rastered - before_.tiles_rastered);
    }

    TemporalCounterMirror(const TemporalCounterMirror &) = delete;
    TemporalCounterMirror &operator=(const TemporalCounterMirror &) = delete;

  private:
    const TemporalCounters &c_;
    const TemporalCounters before_;
};

/**
 * Dispatch grain of the per-tile rasterization fan-out: a chunk must
 * cover at least this many pixels of tiles, or pool dispatch costs
 * more than the chunk's work and the frame runs inline on the caller
 * (the parallel_for grain heuristic; small frames previously fanned
 * out one-tile chunks whose submit/future overhead made thread
 * scaling flat to negative).
 */
constexpr std::size_t kMinPixelsPerRasterChunk = 4096;

/**
 * Bitonic-sorter pass accounting shared by both render paths: a
 * 16-wide bitonic merge sort sorts chunks of 16 in one pass and
 * merges ceil(n/16) chunks in log2 more passes.
 */
std::int64_t
bitonicPassKeys(std::size_t list_len)
{
    std::int64_t chunks = static_cast<std::int64_t>((list_len + 15) / 16);
    std::int64_t passes = 1;
    while ((std::int64_t{1} << (passes - 1)) < chunks)
        ++passes;
    return static_cast<std::int64_t>(list_len) * passes;
}

/** Sub-tile granularity of the VRU array-pass accounting. */
constexpr int kSub = 8;

/** Reusable per-worker buffers of the tile raster kernel. */
struct TileScratch
{
    BlendPlanes planes;          ///< the tile's color/T, stride tile_size
    std::vector<float> depth;    ///< the tile's captured depth, same layout
    std::vector<int> sub_live;   ///< live-pixel counts per 8x8 subtile
    std::vector<int> row_live;   ///< live-pixel counts per tile row
};

/**
 * Rasterize one tile from its depth-sorted entry list — the kernel of
 * the raster stage, so a dirty tile re-blended by an incremental
 * frame is bit-identical to the cold render of the same list.
 *
 * Each splat is blended kWidth pixels at a time: q, the cutoff and
 * termination masks, the exponential, the alpha clamp, the color add
 * and the transmittance update all run on a whole lane group, each
 * lane the scalar reference's op sequence at its own pixel (the
 * exponential is simd::expExact, std::exp bit for bit; builds
 * without its vector form call std::exp per live lane).  Color and T
 * accumulate in the scratch planes and are assigned to the whole tile
 * rect of @p image once, after the last splat, so the kernel never
 * reads the image: starting from color 0, the assigned sum is
 * bit-identical to blending into a zeroed image in place, whatever
 * the image held.  Writes stay inside the tile's pixel region, so
 * disjoint tiles rasterize concurrently.
 *
 * When @p depth_out is non-null (with @p splat_depth supplying the
 * per-slot view depths), the kernel also captures a per-pixel surface
 * depth for the reprojection warp: the depth of the splat that first
 * drags the pixel's transmittance below one half — the pixel's median
 * surface — falling back to the first contributor for pixels that
 * never get that opaque (0 where nothing contributed).  The capture
 * runs on the lane group, one select per blended group into a
 * tile-local depth plane laid out like the color planes, which is
 * assigned to the tile rect of @p depth_out with the colors.
 * Blending math and stats are untouched, so bit-identity with the
 * depth-less call is preserved.
 */
void
rasterOneTile(const TileRendererConfig &config, const SplatSoA &soa,
              const std::uint64_t *entries, std::size_t list_len,
              int bx, int by, int width, int height, Image &image,
              StandardFlowStats &st, std::uint64_t *contributed,
              std::uint64_t *fetched, TileScratch &scratch,
              const float *splat_depth = nullptr,
              float *depth_out = nullptr)
{
    const int tile = config.tile_size;
    const int sub_n = (tile + kSub - 1) / kSub;

    int x0 = bx * tile;
    int y0 = by * tile;
    int x1 = std::min(x0 + tile, width);
    int y1 = std::min(y0 + tile, height);
    int live = (x1 - x0) * (y1 - y0);
    BlendPlanes &planes = scratch.planes;
    planes.reset(static_cast<std::size_t>(tile) * tile);
    const bool capture = depth_out != nullptr;
    if (capture)
        scratch.depth.assign(static_cast<std::size_t>(tile) * tile +
                                 simd::kWidth,
                             0.0f);
    float *const depth_plane = scratch.depth.data();

    // Per-subtile live-pixel counts (8x8 granularity): the VRU
    // processes one subtile per array pass in lockstep.  Per-row
    // counts let the blend loop skip rows whose every pixel already
    // terminated.
    scratch.sub_live.assign(static_cast<std::size_t>(sub_n) * sub_n, 0);
    scratch.row_live.assign(static_cast<std::size_t>(tile), 0);
    std::vector<int> &sub_live = scratch.sub_live;
    std::vector<int> &row_live = scratch.row_live;
    for (int y = y0; y < y1; ++y) {
        row_live[y - y0] = x1 - x0;
        for (int x = x0; x < x1; ++x)
            ++sub_live[((y - y0) / kSub) * sub_n + (x - x0) / kSub];
    }

    // Counters tally in locals and flush once per tile: behind the
    // StandardFlowStats reference, a per-lane increment could alias
    // the float plane stores and the bitmap words.  exp_lanes, the
    // host's count of exponentials evaluated, goes to the metrics
    // registry, not to the stats the simulators read.
    static obs::Counter &exp_lanes_counter =
        obs::MetricsRegistry::global().counter("render.tile.exp_lanes");
    std::int64_t tile_fetches = 0, subtile_passes = 0, alpha_evals = 0;
    std::int64_t blend_ops = 0, exp_lanes = 0;
    const simd::FloatV half_v(0.5f), cap_v(0.99f);
    const simd::FloatV term_v(config.termination_t);
    const simd::FloatV cutoff_v(config.alpha_cutoff);

    for (std::size_t e = 0; e < list_len; ++e) {
        if (live == 0)
            break;  // whole tile terminated: skip the rest
        const std::uint32_t si = packedValue(entries[e]);
        ++tile_fetches;
        fetched[si >> 6] |= std::uint64_t{1} << (si & 63);
        const SplatSoA::Blend &b = soa.blend[si];

        // Array passes: live subtiles the splat's bounds reach.
        for (int sy = 0; sy < sub_n; ++sy) {
            for (int sx = 0; sx < sub_n; ++sx) {
                if (sub_live[sy * sub_n + sx] == 0)
                    continue;
                int rx0 = x0 + sx * kSub;
                int ry0 = y0 + sy * kSub;
                if (b.sb_x1 < rx0 || b.sb_x0 > rx0 + kSub - 1 ||
                    b.sb_y1 < ry0 || b.sb_y0 > ry0 + kSub - 1)
                    continue;
                ++subtile_passes;
            }
        }

        // The reference path alpha-tests every live pixel of the
        // tile; pixels outside the cutoff-safe rect are provably
        // below the alpha cutoff, so only the rect is walked and the
        // skipped evaluations are accounted from the live count
        // (identical totals, less work).
        alpha_evals += live;
        const int rx0 = std::max(x0, b.it_x0);
        const int rx1 = std::min(x1 - 1, b.it_x1);
        const int ry0 = std::max(y0, b.it_y0);
        const int ry1 = std::min(y1 - 1, b.it_y1);
        // Splat constants broadcast once.  Every lane below runs the
        // scalar reference's op sequence at its own pixel (same dx/dy
        // derivation, multiply/add order and comparisons, NaN
        // included), so images and stats stay bit-identical.
        const simd::FloatV c00v(b.c00), c01v(b.c01);
        const simd::FloatV c10v(b.c10), c11v(b.c11);
        const simd::FloatV cxv(b.cx);
        const simd::FloatV q_skip_v(b.q_skip);
        const simd::FloatV opacity_v(b.opacity);
        const simd::FloatV rv(b.r), gv(b.g), bv(b.b);
        std::int64_t splat_blends = 0;
        // (An earlier revision solved a per-row quadratic interval
        // in double to trim dead row tails; with rows clipped to the
        // tile and evaluated kWidth lanes per step under the q_skip
        // mask, the sqrt-per-row solve cost more than the tails it
        // saved — the mask makes the same pass/fail decisions
        // bit-identically.)
        for (int y = ry0; y <= ry1; ++y) {
            if (row_live[y - y0] == 0)
                continue;  // every pixel in the row terminated
            const float py = static_cast<float>(y) + 0.5f;
            const simd::FloatV dyv(py - b.cy);
            const std::size_t row = static_cast<std::size_t>(y - y0) * tile;
            for (int x = rx0; x <= rx1; x += simd::kWidth) {
                const int nlane = std::min<int>(simd::kWidth, rx1 - x + 1);
                simd::FloatV dx =
                    (simd::FloatV::iotaFrom(x) + half_v) - cxv;
                simd::FloatV q = dx * (c00v * dx + c01v * dyv) +
                                 dyv * (c10v * dx + c11v * dyv);
                // Scalar `q > q_skip -> skip`.
                unsigned bits = simd::MaskV::firstN(nlane).bits() &
                                ~(q > q_skip_v).bits();
                if (bits == 0)
                    continue;  // all lanes provably sub-cutoff
                const std::size_t off = row + (x - x0);
                const simd::FloatV t = planes.t(off);
                // Scalar `t < termination_t -> skip`.
                bits &= ~(t < term_v).bits();
                if (bits == 0)
                    continue;
                const simd::FloatV e = expFalloff(q, bits);
                exp_lanes += std::popcount(bits);
                // Scalar `if (a > 0.99f) a = 0.99f` (NaN kept), then
                // `a < alpha_cutoff -> skip`.
                const simd::FloatV a = simd::min(cap_v, opacity_v * e);
                bits &= ~(a < cutoff_v).bits();
                if (bits == 0)
                    continue;
                const simd::FloatV t_new =
                    planes.blend(off, bits, t, a, rv, gv, bv);
                splat_blends += std::popcount(bits);
                if (capture) {
                    // Scalar `d == 0 || (t >= 0.5 && t_new < 0.5) ->
                    // d = depth` on the blended lanes.
                    const simd::FloatV d =
                        simd::FloatV::load(depth_plane + off);
                    const simd::MaskV take =
                        simd::MaskV::fromBits(bits) &
                        ((d == simd::FloatV(0.0f)) |
                         ((t >= half_v) & (t_new < half_v)));
                    simd::select(take, simd::FloatV(splat_depth[si]), d)
                        .store(depth_plane + off);
                }
                // Only lanes crossing termination touch the counts.
                for (unsigned d = bits & (t_new < term_v).bits(); d != 0;
                     d &= d - 1) {
                    const int px = x + std::countr_zero(d);
                    --live;
                    --row_live[y - y0];
                    --sub_live[((y - y0) / kSub) * sub_n +
                               (px - x0) / kSub];
                }
            }
        }
        if (splat_blends > 0) {
            blend_ops += splat_blends;
            contributed[si >> 6] |= std::uint64_t{1} << (si & 63);
        }
    }
    st.tile_fetches += tile_fetches;
    st.subtile_passes += subtile_passes;
    st.alpha_evals += alpha_evals;
    st.blend_ops += blend_ops;
    exp_lanes_counter.add(exp_lanes);

    planes.writeBack(image, x0, y0, x1 - x0, y1 - y0, tile);
    if (capture) {
        for (int y = y0; y < y1; ++y)
            std::copy_n(depth_plane + static_cast<std::size_t>(y - y0) * tile,
                        x1 - x0,
                        depth_out + static_cast<std::size_t>(y) * width + x0);
    }
}

// ---- Frame stages (tile_renderer.h names who runs which). ----

/** Tile grid of one frame's viewport. */
struct TileGrid
{
    TileGrid(const Camera &cam, int tile_size)
        : width(cam.width()), height(cam.height()), tile(tile_size),
          tiles_x((width + tile - 1) / tile),
          num_tiles(static_cast<std::size_t>(tiles_x) *
                    static_cast<std::size_t>((height + tile - 1) / tile))
    {
    }

    int width, height, tile, tiles_x;
    std::size_t num_tiles;
};

/** Stage prepare: project every Gaussian of the view (decoupled)
 *  straight into the SoA store, one lane group at a time. */
SplatSoA
prepare(const TileRendererConfig &config, const CloudView &view,
        const Camera &cam, const TileGrid &grid, StandardFlowStats &stats,
        ThreadPool *pool)
{
    static obs::Counter &scanned = obs::MetricsRegistry::global().counter(
        "render.tile.prepare.scanned");
    static obs::Counter &projected = obs::MetricsRegistry::global().counter(
        "render.tile.prepare.projected");
    SplatSoA soa = SplatSoA::project(view, cam, config.bounding, grid.tile,
                                     config.alpha_cutoff, stats.pre, pool);
    scanned.add(static_cast<std::int64_t>(view.size()));
    projected.add(static_cast<std::int64_t>(soa.size()));
    return soa;
}

/** Per-splat tile coverage: splat si binds to the tiles
 *  tiles[offsets[si] .. offsets[si + 1]), ascending in tile index. */
struct Coverage
{
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> tiles;
};

/**
 * Stage cover: walk each splat's tile range once, dropping the tiles
 * the Obb3Sigma refinement rules out.  This is the only coverage
 * walk of the fast paths; the reference renderer keeps its own.
 */
Coverage
cover(const SplatSoA &soa, const TileGrid &grid)
{
    const int tile = grid.tile;
    const std::size_t n = soa.size();
    Coverage cov;
    cov.offsets.assign(n + 1, 0);
    cov.tiles.reserve(n);
    for (std::size_t si = 0; si < n; ++si) {
        const TileRange &r = soa.range[si];
        for (int by = r.by0; by <= r.by1; ++by) {
            for (int bx = r.bx0; bx <= r.bx1; ++bx) {
                if (soa.obb_refine) {
                    float tx0 = static_cast<float>(bx * tile);
                    float ty0 = static_cast<float>(by * tile);
                    if (!obbOverlapsTile(soa.obb[si], tx0, ty0,
                                         tx0 + tile, ty0 + tile))
                        continue;
                }
                cov.tiles.push_back(
                    static_cast<std::uint32_t>(by) * grid.tiles_x + bx);
            }
        }
        cov.offsets[si + 1] = static_cast<std::uint32_t>(cov.tiles.size());
    }
    return cov;
}

/** Per-tile packed (depth key, si) lists: tile t owns
 *  entries[offsets[t] .. offsets[t + 1]). */
struct TileBins
{
    std::vector<std::size_t> offsets;
    std::vector<std::uint64_t> entries;

    std::span<std::uint64_t>
    slice(std::size_t t)
    {
        return {entries.data() + offsets[t], offsets[t + 1] - offsets[t]};
    }
};

/**
 * Stage bin: counting scatter of the coverage CSR into one flat
 * entries array at per-tile offsets.  Splats scatter in slot order,
 * so every tile's list keeps the splat-order tie-break the stable
 * depth sort relies on.
 */
TileBins
bin(const SplatSoA &soa, const Coverage &cov, std::size_t num_tiles)
{
    TileBins bins;
    bins.offsets.assign(num_tiles + 1, 0);
    for (std::uint32_t t : cov.tiles)
        ++bins.offsets[t + 1];
    for (std::size_t t = 0; t < num_tiles; ++t)
        bins.offsets[t + 1] += bins.offsets[t];
    bins.entries.resize(cov.tiles.size());
    std::vector<std::size_t> cursor(bins.offsets.begin(),
                                    bins.offsets.end() - 1);
    for (std::size_t si = 0; si < soa.size(); ++si) {
        const std::uint64_t kv = packKeyValue(
            soa.depth_key[si], static_cast<std::uint32_t>(si));
        for (std::uint32_t c = cov.offsets[si]; c < cov.offsets[si + 1];
             ++c)
            bins.entries[cursor[cov.tiles[c]]++] = kv;
    }
    return bins;
}

/** Every tile index of @p grid in scanline order. */
std::vector<std::uint32_t>
allTiles(const TileGrid &grid)
{
    std::vector<std::uint32_t> tiles(grid.num_tiles);
    std::iota(tiles.begin(), tiles.end(), 0u);
    return tiles;
}

/** What the raster stage may assume about its tiles. */
enum class RasterMode
{
    /** The target image (and depth buffer) is zeroed and every list
     *  is in splat order: each list is depth-sorted in its chunk. */
    Cold,
    /** Every list is already depth-sorted and the target holds last
     *  frame's pixels: a listed tile whose list is now empty has its
     *  pixel and depth block cleared (the others are assigned whole
     *  by rasterOneTile). */
    Incremental,
};

/**
 * Stage raster: render the tiles in @p tiles, whose lists
 * @p entries_of(t) returns as a std::span<std::uint64_t>.  Tiles own
 * disjoint pixel regions and disjoint lists, so contiguous chunks of
 * the tile sequence fan out over the pool; per-chunk counters merge
 * in chunk order and the unique-splat populations (fetched /
 * rendered) come from OR-merged per-chunk maps, making image and
 * stats bit-identical to the serial sweep.  @p splat_depth and
 * @p depth_out enable rasterOneTile's depth capture.
 */
template <typename EntriesOf>
void
raster(const TileRendererConfig &config, const SplatSoA &soa,
       const TileGrid &grid, const std::vector<std::uint32_t> &tiles,
       EntriesOf &&entries_of, RasterMode mode, Image &image,
       StandardFlowStats &stats, ThreadPool *pool,
       const float *splat_depth = nullptr, float *depth_out = nullptr)
{
    const int tile = grid.tile;

    // Unique-splat membership is tracked per chunk in word bitmaps
    // (n/8 bytes instead of n), so per-chunk memory and the OR-merge
    // stay cheap even for paper-scale splat counts at high worker
    // counts.
    const std::size_t map_words = (soa.size() + 63) / 64;
    struct TileChunkOut
    {
        StandardFlowStats stats;  ///< raster counters only
        std::vector<std::uint64_t> contributed;
        std::vector<std::uint64_t> fetched;
    };

    // More chunks than workers smooths the load imbalance between
    // crowded and empty tiles; chunk boundaries stay deterministic.
    // The pixel-derived grain keeps every chunk heavy enough to
    // amortize dispatch — a frame smaller than two grains runs
    // inline on the caller thread.
    const bool fan_out = pool != nullptr && pool->workerCount() >= 2;
    const std::size_t grain_tiles = std::max<std::size_t>(
        1, kMinPixelsPerRasterChunk /
               (static_cast<std::size_t>(tile) * tile));
    auto ranges = chunkRanges(
        tiles.size(), fan_out ? pool->workerCount() * 4 : 1, grain_tiles);
    std::vector<TileChunkOut> chunk_out(ranges.size());

    auto raster_chunk = [&](std::size_t c, std::size_t begin,
                            std::size_t end) {
        TileChunkOut &out = chunk_out[c];
        out.contributed.assign(map_words, 0);
        out.fetched.assign(map_words, 0);
        StandardFlowStats &st = out.stats;
        std::vector<std::uint64_t> sort_scratch;
        TileScratch scratch;

        for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t t_idx = tiles[i];
            const int bx = static_cast<int>(t_idx % grid.tiles_x);
            const int by = static_cast<int>(t_idx / grid.tiles_x);
            const std::span<std::uint64_t> list = entries_of(t_idx);
            if (list.empty()) {
                if (mode == RasterMode::Incremental) {
                    const int x0 = bx * tile;
                    const int y0 = by * tile;
                    const int x1 = std::min(x0 + tile, grid.width);
                    const int y1 = std::min(y0 + tile, grid.height);
                    for (int y = y0; y < y1; ++y) {
                        const std::size_t row =
                            static_cast<std::size_t>(y) * grid.width + x0;
                        std::fill_n(image.pixels().data() + row, x1 - x0,
                                    Vec3(0, 0, 0));
                        if (depth_out != nullptr)
                            std::fill_n(depth_out + row, x1 - x0, 0.0f);
                    }
                }
                continue;
            }

            if (mode == RasterMode::Cold) {
                // Per-tile depth sort (radix sort on the GPU, bitonic
                // network in GSCore): stable LSD radix on the monotone
                // depth keys reproduces stable_sort's order exactly.
                radixSortByKey(list.data(), list.size(), sort_scratch);
                st.sorted_keys += static_cast<std::int64_t>(list.size());
                st.sort_pass_keys += bitonicPassKeys(list.size());
            }

            rasterOneTile(config, soa, list.data(), list.size(), bx, by,
                          grid.width, grid.height, image, st,
                          out.contributed.data(), out.fetched.data(),
                          scratch, splat_depth, depth_out);
        }
    };

    runChunks(fan_out ? pool : nullptr, ranges, raster_chunk);

    // Chunk-ordered merge; fetched/rendered are unique populations
    // over the rastered tiles, so they are counted from the OR of the
    // per-chunk maps (a splat fetched by tiles in two chunks is still
    // one fetched Gaussian, exactly as the serial first-touch count).
    std::vector<std::uint64_t> contributed_any(map_words, 0);
    std::vector<std::uint64_t> fetched_any(map_words, 0);
    for (const TileChunkOut &out : chunk_out) {
        stats.tile_fetches += out.stats.tile_fetches;
        stats.sorted_keys += out.stats.sorted_keys;
        stats.sort_pass_keys += out.stats.sort_pass_keys;
        stats.subtile_passes += out.stats.subtile_passes;
        stats.alpha_evals += out.stats.alpha_evals;
        stats.blend_ops += out.stats.blend_ops;
        for (std::size_t w = 0; w < map_words; ++w) {
            contributed_any[w] |= out.contributed[w];
            fetched_any[w] |= out.fetched[w];
        }
    }
    for (std::size_t w = 0; w < map_words; ++w) {
        stats.fetched_gaussians += std::popcount(fetched_any[w]);
        stats.rendered_gaussians += std::popcount(contributed_any[w]);
    }
}

/**
 * Synthesize a frame at @p dst_cam by backward-warping the exact
 * frame rendered at @p src_cam (tier 3 of the temporal engine).
 *
 * Each destination pixel is lifted to view space at the exact frame's
 * per-pixel median-surface depth (captured by rasterOneTile), carried
 * to world space, re-projected into the exact camera and bilinearly
 * sampled.  Pixels nothing contributed to (depth sentinel 0) and
 * points that land behind the exact camera's near plane fall back to
 * a straight same-pixel copy — trajectory steps between exact frames
 * are small, so the copy is a close approximation there too.
 */
Image
warpFromExact(const Camera &src_cam, const Image &src,
              const std::vector<float> &depth, const Camera &dst_cam)
{
    const int width = dst_cam.width();
    const int height = dst_cam.height();
    Image out(width, height);
    const float fx = dst_cam.focalX();
    const float fy = dst_cam.focalY();
    const float hw = 0.5f * static_cast<float>(width);
    const float hh = 0.5f * static_cast<float>(height);
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            // The source depth at the same pixel coordinate stands in
            // for the (unknown) destination depth — the cameras are a
            // sub-degree step apart, where the depth field is close
            // to coordinate-invariant away from occlusion edges.
            const float d =
                depth[static_cast<std::size_t>(y) * width + x];
            if (d <= 0.0f) {
                out.at(x, y) = src.at(x, y);
                continue;
            }
            const Vec3 v((static_cast<float>(x) + 0.5f - hw) * d / fx,
                         (static_cast<float>(y) + 0.5f - hh) * d / fy,
                         d);
            const Vec3 pe = src_cam.worldToView(dst_cam.viewToWorld(v));
            if (pe.z <= src_cam.nearPlane()) {
                out.at(x, y) = src.at(x, y);
                continue;
            }
            const Vec2 pp = src_cam.viewToPixel(pe);
            // Pixel centers sit at i + 0.5, so the continuous sample
            // coordinate is the projected position minus half a pixel.
            const float sx = std::clamp(pp.x - 0.5f, 0.0f,
                                        static_cast<float>(width - 1));
            const float sy = std::clamp(pp.y - 0.5f, 0.0f,
                                        static_cast<float>(height - 1));
            const int ix = static_cast<int>(sx);
            const int iy = static_cast<int>(sy);
            const int jx = std::min(ix + 1, width - 1);
            const int jy = std::min(iy + 1, height - 1);
            const float ax = sx - static_cast<float>(ix);
            const float ay = sy - static_cast<float>(iy);
            out.at(x, y) =
                src.at(ix, iy) * ((1.0f - ax) * (1.0f - ay)) +
                src.at(jx, iy) * (ax * (1.0f - ay)) +
                src.at(ix, jy) * ((1.0f - ax) * ay) +
                src.at(jx, jy) * (ax * ay);
        }
    }
    return out;
}

} // namespace

std::vector<int>
TileRenderer::tilesPerSplat(const std::vector<Splat> &splats,
                            const Camera &cam) const
{
    const TileGrid grid(cam, config_.tile_size);
    const Coverage cov =
        cover(SplatSoA::build(splats, config_.bounding, grid.tile,
                              config_.alpha_cutoff, grid.width,
                              grid.height),
              grid);
    std::vector<int> counts(splats.size());
    for (std::size_t si = 0; si < counts.size(); ++si)
        counts[si] = static_cast<int>(cov.offsets[si + 1] - cov.offsets[si]);
    return counts;
}

Image
TileRenderer::render(const CloudView &view, const Camera &cam,
                     StandardFlowStats &stats, ThreadPool *pool) const
{
    const TileGrid grid(cam, config_.tile_size);
    obs::StageTimer stage_timer;
    const SplatSoA soa = prepare(config_, view, cam, grid, stats, pool);
    stage_timer.lap(obs::Stage::Preprocess, &stats.stage.preprocess_ms);

    TileBins bins = bin(soa, cover(soa, grid), grid.num_tiles);
    stats.kv_pairs += static_cast<std::int64_t>(bins.entries.size());
    stage_timer.lap(obs::Stage::Binning, &stats.stage.binning_ms);

    Image image(grid.width, grid.height);
    raster(config_, soa, grid, allTiles(grid),
           [&](std::uint32_t t) { return bins.slice(t); },
           RasterMode::Cold, image, stats, pool);
    stage_timer.lap(obs::Stage::Raster, &stats.stage.raster_ms);
    return image;
}

const Image &
TileRenderer::renderTemporal(const CloudView &view,
                             const Camera &cam,
                             StandardFlowStats &stats,
                             TemporalCache &cache,
                             ThreadPool *pool,
                             bool force_warp) const
{
    const TileGrid grid(cam, config_.tile_size);
    const std::size_t num_tiles = grid.num_tiles;
    TemporalCounters &tc = cache.counters_;
    TemporalCounterMirror tc_mirror(tc);
    ++tc.frames;

    // ---- Snapshot check: any change of viewport, renderer config or
    // scene population invalidates every cached tier. ----
    if (cache.valid_ &&
        (cache.width_ != grid.width || cache.height_ != grid.height ||
         cache.tile_size_ != grid.tile ||
         cache.bounding_ != config_.bounding ||
         cache.termination_t_ != config_.termination_t ||
         cache.alpha_cutoff_ != config_.alpha_cutoff ||
         cache.cloud_size_ != view.size())) {
        cache.valid_ = false;
        cache.exact_valid_ = false;
        cache.warp_cached_ = false;
    }
    if (cache.options.every <= 1 && !cache.options.keep_exact) {
        cache.exact_valid_ = false;
        cache.warp_cached_ = false;
    }

    // ---- Held camera: the previous exact output is this frame's
    // exact output, bit for bit. ----
    if (cache.valid_ && camerasBitIdentical(cache.camera_, cam)) {
        ++tc.copied_frames;
        return cache.image_;
    }

    // ---- Tier 3: synthesize by reprojection unless the cadence or
    // the trust region demands an exact frame.  force_warp asks for
    // a synthesized frame outside the cadence (degradation ladder);
    // it still honors the trust region and falls through to exact
    // rendering when no valid warp source exists. ----
    if (cache.exact_valid_ &&
        (force_warp ||
         (cache.options.every > 1 && cache.warp_phase_ > 0))) {
        const CameraDelta d = cameraDelta(cache.camera_, cam);
        if (d.translation <= cache.options.max_warp_translation &&
            d.rotation_rad <= cache.options.max_warp_rotation) {
            if (cache.warp_cached_ &&
                camerasBitIdentical(cache.warp_camera_, cam)) {
                ++tc.copied_frames;
                return cache.warp_image_;
            }
            {
                obs::PerfScope warp_scope(obs::Stage::Warp,
                                          &stats.stage.warp_ms);
                cache.warp_image_ = warpFromExact(cache.camera_, cache.image_,
                                                  cache.depth_, cam);
            }
            ++tc.warped_frames;
            if (cache.warp_phase_ > 0)
                --cache.warp_phase_;
            cache.warp_cached_ = true;
            cache.warp_camera_ = cam;
            return cache.warp_image_;
        }
        // Camera moved past the trust region: render exactly below,
        // which also resets the warp cadence.
    }

    // ---- Exact frame: the same prepare and cover stages as
    // render(); the coverage CSR is kept per splat so next frame can
    // diff row by row. ----
    obs::StageTimer stage_timer;
    SplatSoA soa = prepare(config_, view, cam, grid, stats, pool);
    const std::size_t n = soa.size();
    stage_timer.lap(obs::Stage::Preprocess, &stats.stage.preprocess_ms);

    Coverage cov = cover(soa, grid);
    stats.kv_pairs += static_cast<std::int64_t>(cov.tiles.size());

    ++tc.exact_frames;

    // Warp mode additionally maintains the per-pixel depth buffer the
    // reprojection samples; clean tiles keep last frame's depths, so
    // the incremental path also requires a valid buffer to inherit.
    // The retained frame (image_, camera_, depth_) is the warp source.
    const bool want_depth =
        cache.options.every > 1 || cache.options.keep_exact;

    // The incremental diff assumes frame-to-frame identity of the
    // splat population (same source Gaussians surviving culling, in
    // the same SoA slots); any mismatch falls back to a full rebuild
    // inside the temporal path.
    const bool incremental = cache.valid_ && cache.soa_.id == soa.id &&
                             (!want_depth || cache.depth_valid_);
    // The retained state is rewritten from here on; it is marked
    // valid again only once this frame completes, so a frame that
    // throws leaves a cache whose next frame renders cold.
    cache.valid_ = false;
    cache.exact_valid_ = false;
    TileBins bins;
    std::vector<std::uint32_t> dirty_tiles;
    if (!incremental) {
        // ---- Full rebuild: render()'s bin stage, into a zeroed
        // image. ----
        ++tc.full_rebuilds;
        bins = bin(soa, cov, num_tiles);
        cache.image_ = Image(grid.width, grid.height);
        if (want_depth)
            cache.depth_.assign(
                static_cast<std::size_t>(grid.width) * grid.height, 0.0f);
    } else {
        // ---- Incremental path: diff each splat against last frame
        // and patch only what changed. ----
        ++tc.incremental_frames;
        tc.tiles_total += static_cast<std::int64_t>(num_tiles);
        std::vector<std::uint8_t> dirty(num_tiles, 0);
        std::vector<std::uint8_t> patched(num_tiles, 0);
        std::vector<std::uint8_t> fullsort(num_tiles, 0);
        std::vector<std::uint8_t> keyfix(num_tiles, 0);
        std::vector<std::uint32_t> appended(num_tiles, 0);

        for (std::size_t si = 0; si < n; ++si) {
            const bool blend_changed =
                std::memcmp(&soa.blend[si], &cache.soa_.blend[si],
                            sizeof(SplatSoA::Blend)) != 0;
            const bool key_changed =
                soa.depth_key[si] != cache.soa_.depth_key[si];
            const std::uint32_t *ob =
                cache.cov_tiles_.data() + cache.cov_offsets_[si];
            const std::uint32_t *oe =
                cache.cov_tiles_.data() + cache.cov_offsets_[si + 1];
            const std::uint32_t *nb =
                cov.tiles.data() + cov.offsets[si];
            const std::uint32_t *ne =
                cov.tiles.data() + cov.offsets[si + 1];
            if (!blend_changed && !key_changed && oe - ob == ne - nb &&
                std::memcmp(ob, nb,
                            static_cast<std::size_t>(oe - ob) *
                                sizeof(std::uint32_t)) == 0)
                continue;  // splat fully unchanged
            if (blend_changed)
                ++tc.splats_changed;
            const std::uint64_t kv_old = packKeyValue(
                cache.soa_.depth_key[si], static_cast<std::uint32_t>(si));
            const std::uint64_t kv_new = packKeyValue(
                soa.depth_key[si], static_cast<std::uint32_t>(si));
            // Both coverage lists ascend in tile index (the (by, bx)
            // emission walk), so a merge walk yields the exact set
            // difference.
            while (ob != oe || nb != ne) {
                if (nb == ne || (ob != oe && *ob < *nb)) {
                    // Left this tile: erase its old entry.  The
                    // sorted prefix excludes entries appended this
                    // frame (they sit past end - appended).
                    auto &v = cache.tile_entries_[*ob];
                    auto it = std::lower_bound(
                        v.begin(), v.end() - appended[*ob], kv_old);
                    v.erase(it);
                    dirty[*ob] = 1;
                    patched[*ob] = 1;
                    ++ob;
                } else if (ob == oe || *nb < *ob) {
                    // Entered this tile: append; the tile re-sorts.
                    auto &v = cache.tile_entries_[*nb];
                    v.push_back(kv_new);
                    ++appended[*nb];
                    fullsort[*nb] = 1;
                    dirty[*nb] = 1;
                    patched[*nb] = 1;
                    ++nb;
                } else {
                    if (blend_changed)
                        dirty[*ob] = 1;
                    if (key_changed)
                        keyfix[*ob] = 1;
                    ++ob;
                    ++nb;
                }
            }
        }

        // Per-tile fix-up: rewrite stale depth keys from the current
        // frame (stored entries must always carry current keys — the
        // next frame's erase lookups depend on it), then restore the
        // ascending invariant where it broke.
        auto rewrite_keys = [&](std::vector<std::uint64_t> &v) {
            for (std::uint64_t &kv : v) {
                const std::uint32_t si = packedValue(kv);
                kv = packKeyValue(soa.depth_key[si], si);
            }
        };
        for (std::size_t t = 0; t < num_tiles; ++t) {
            auto &v = cache.tile_entries_[t];
            if (fullsort[t]) {
                rewrite_keys(v);
                std::sort(v.begin(), v.end());
                stats.sorted_keys +=
                    static_cast<std::int64_t>(v.size());
                stats.sort_pass_keys += bitonicPassKeys(v.size());
                ++tc.tiles_resorted;
            } else if (keyfix[t]) {
                rewrite_keys(v);
                // Still ascending after the rewrite: the old position
                // order is the unique sorted order of the new keys,
                // so the blend order — and the tile's pixels, if
                // nothing else changed — are untouched.
                if (!std::is_sorted(v.begin(), v.end())) {
                    std::sort(v.begin(), v.end());
                    stats.sorted_keys +=
                        static_cast<std::int64_t>(v.size());
                    stats.sort_pass_keys += bitonicPassKeys(v.size());
                    dirty[t] = 1;
                    ++tc.tiles_resorted;
                }
            }
        }
        for (std::size_t t = 0; t < num_tiles; ++t) {
            if (patched[t])
                ++tc.tiles_patched;
            if (dirty[t])
                dirty_tiles.push_back(static_cast<std::uint32_t>(t));
        }
        tc.tiles_reused += static_cast<std::int64_t>(num_tiles) -
                           static_cast<std::int64_t>(dirty_tiles.size());
    }
    stage_timer.lap(obs::Stage::Binning, &stats.stage.binning_ms);

    // ---- Raster stage, straight into the retained composited image.
    // A full rebuild rasters every tile exactly as render() does and
    // keeps the depth-sorted lists for next frame's patches.  An
    // incremental frame re-rasterizes only the dirty tiles (clean
    // tiles keep their pixels), so its unique-population counters
    // cover the rastered tiles only. ----
    const float *splat_depth = want_depth ? soa.depth.data() : nullptr;
    float *depth_buf = want_depth ? cache.depth_.data() : nullptr;
    if (!incremental) {
        raster(config_, soa, grid, allTiles(grid),
               [&](std::uint32_t t) { return bins.slice(t); },
               RasterMode::Cold, cache.image_, stats, pool, splat_depth,
               depth_buf);
        // Ascending packed (key, si) order is exactly the stable
        // radix order (monotone key in the high half, unique
        // ascending-emitted si in the low half), which the
        // incremental patches maintain with plain sorts.
        cache.tile_entries_.assign(num_tiles, {});
        for (std::size_t t = 0; t < num_tiles; ++t) {
            const std::span<std::uint64_t> list = bins.slice(t);
            if (list.empty())
                continue;
            cache.tile_entries_[t].assign(list.begin(), list.end());
            ++tc.tiles_rastered;
        }
    } else {
        raster(config_, soa, grid, dirty_tiles,
               [&](std::uint32_t t) {
                   return std::span<std::uint64_t>(cache.tile_entries_[t]);
               },
               RasterMode::Incremental, cache.image_, stats, pool,
               splat_depth, depth_buf);
        tc.tiles_rastered += static_cast<std::int64_t>(dirty_tiles.size());
    }
    stage_timer.lap(obs::Stage::Raster, &stats.stage.raster_ms);

    // ---- Retain this frame's state for the next one. ----
    cache.valid_ = true;
    cache.width_ = grid.width;
    cache.height_ = grid.height;
    cache.tile_size_ = grid.tile;
    cache.bounding_ = config_.bounding;
    cache.termination_t_ = config_.termination_t;
    cache.alpha_cutoff_ = config_.alpha_cutoff;
    cache.cloud_size_ = view.size();
    cache.camera_ = cam;
    cache.soa_ = std::move(soa);
    cache.cov_offsets_ = std::move(cov.offsets);
    cache.cov_tiles_ = std::move(cov.tiles);
    cache.depth_valid_ = want_depth;

    if (want_depth) {
        // This exact frame, retained in place, anchors the next
        // every-1 synthesized frames (or on-demand force_warp ones).
        cache.exact_valid_ = true;
        cache.warp_phase_ = std::max(0, cache.options.every - 1);
        cache.warp_cached_ = false;
    }
    return cache.image_;
}

Image
TileRenderer::renderReference(const GaussianCloud &cloud,
                              const Camera &cam, StandardFlowStats &stats,
                              std::vector<float> *depth) const
{
    const int width = cam.width();
    const int height = cam.height();
    const int tile = config_.tile_size;
    const int tiles_x = (width + tile - 1) / tile;
    const int tiles_y = (height + tile - 1) / tile;

    // ---- Stage 1: preprocess every Gaussian (decoupled). ----
    obs::StageTimer stage_timer;
    std::vector<Splat> splats = preprocessAll(cloud, cam, stats.pre);
    stage_timer.lap(obs::Stage::Preprocess, &stats.stage.preprocess_ms);

    // ---- Tile binning: build Gaussian-tile KV pairs. ----
    std::vector<std::vector<std::uint32_t>> tile_lists(
        static_cast<std::size_t>(tiles_x) * tiles_y);
    for (std::uint32_t si = 0; si < splats.size(); ++si) {
        const Splat &s = splats[si];
        TileRange r =
            tileRangeFor(s, config_.bounding, tile, width, height);
        ObbParams o;
        if (config_.bounding == BoundingMode::Obb3Sigma)
            o = obbParamsFor(s);
        for (int by = r.by0; by <= r.by1; ++by) {
            for (int bx = r.bx0; bx <= r.bx1; ++bx) {
                if (config_.bounding == BoundingMode::Obb3Sigma) {
                    float tx0 = static_cast<float>(bx * tile);
                    float ty0 = static_cast<float>(by * tile);
                    if (!obbOverlapsTile(o, tx0, ty0, tx0 + tile,
                                         ty0 + tile))
                        continue;
                }
                tile_lists[static_cast<std::size_t>(by) * tiles_x + bx]
                    .push_back(si);
                ++stats.kv_pairs;
            }
        }
    }

    stage_timer.lap(obs::Stage::Binning, &stats.stage.binning_ms);

    // ---- Stage 2: render tile by tile in scanline order. ----
    Image image(width, height);
    if (depth != nullptr)
        depth->assign(static_cast<std::size_t>(width) * height, 0.0f);
    std::vector<float> tile_t(static_cast<std::size_t>(tile) * tile);
    std::vector<std::uint8_t> contributed(splats.size(), 0);
    std::vector<std::uint8_t> fetched(splats.size(), 0);
    constexpr int kSub = 8;
    const int sub_n = (tile + kSub - 1) / kSub;
    std::vector<int> sub_live(static_cast<std::size_t>(sub_n) * sub_n);

    for (int by = 0; by < tiles_y; ++by) {
        for (int bx = 0; bx < tiles_x; ++bx) {
            auto &list =
                tile_lists[static_cast<std::size_t>(by) * tiles_x + bx];
            if (list.empty())
                continue;

            // Per-tile depth sort (radix sort on the GPU, bitonic
            // network in GSCore; functionally a stable sort by depth).
            std::stable_sort(list.begin(), list.end(),
                             [&](std::uint32_t a, std::uint32_t b) {
                                 return splats[a].depth < splats[b].depth;
                             });
            stats.sorted_keys += static_cast<std::int64_t>(list.size());
            stats.sort_pass_keys += bitonicPassKeys(list.size());

            int x0 = bx * tile;
            int y0 = by * tile;
            int x1 = std::min(x0 + tile, width);
            int y1 = std::min(y0 + tile, height);
            int live = (x1 - x0) * (y1 - y0);
            std::fill(tile_t.begin(), tile_t.end(), 1.0f);

            // Per-subtile live-pixel counts (8x8 granularity): the
            // VRU processes one subtile per array pass in lockstep.
            std::fill(sub_live.begin(), sub_live.end(), 0);
            for (int y = y0; y < y1; ++y)
                for (int x = x0; x < x1; ++x)
                    ++sub_live[((y - y0) / kSub) * sub_n +
                               (x - x0) / kSub];

            for (std::uint32_t si : list) {
                if (live == 0)
                    break;  // whole tile terminated: skip the rest
                ++stats.tile_fetches;
                if (!fetched[si]) {
                    fetched[si] = 1;
                    ++stats.fetched_gaussians;
                }
                const Splat &s = splats[si];

                // Array passes: live subtiles the splat's bounds reach.
                PixelRect sb =
                    aabbFromRadius(s.ellipse.center,
                                   std::max(s.radius_3sigma,
                                            s.radius_omega))
                        .clipped(width, height);
                for (int sy = 0; sy < sub_n; ++sy) {
                    for (int sx = 0; sx < sub_n; ++sx) {
                        if (sub_live[sy * sub_n + sx] == 0)
                            continue;
                        int rx0 = x0 + sx * kSub;
                        int ry0 = y0 + sy * kSub;
                        if (sb.x1 < rx0 || sb.x0 > rx0 + kSub - 1 ||
                            sb.y1 < ry0 || sb.y0 > ry0 + kSub - 1)
                            continue;
                        ++stats.subtile_passes;
                    }
                }

                for (int y = y0; y < y1; ++y) {
                    for (int x = x0; x < x1; ++x) {
                        float &t =
                            tile_t[static_cast<std::size_t>(y - y0) *
                                       tile + (x - x0)];
                        if (t < config_.termination_t)
                            continue;
                        ++stats.alpha_evals;
                        Vec2 p(static_cast<float>(x) + 0.5f,
                               static_cast<float>(y) + 0.5f);
                        float a = s.ellipse.alphaAt(p, s.opacity);
                        if (a < config_.alpha_cutoff)
                            continue;
                        ++stats.blend_ops;
                        if (!contributed[si]) {
                            contributed[si] = 1;
                            ++stats.rendered_gaussians;
                        }
                        image.at(x, y) += s.color * (a * t);
                        const float t_prev = t;
                        t *= 1.0f - a;
                        if (depth != nullptr) {
                            // Median surface, else first contributor.
                            float &d = (*depth)[static_cast<std::size_t>(y) *
                                                    width + x];
                            if (d == 0.0f || (t_prev >= 0.5f && t < 0.5f))
                                d = s.depth;
                        }
                        if (t < config_.termination_t) {
                            --live;
                            --sub_live[((y - y0) / kSub) * sub_n +
                                       (x - x0) / kSub];
                        }
                    }
                }
            }
        }
    }
    stage_timer.lap(obs::Stage::Raster, &stats.stage.raster_ms);
    return image;
}

} // namespace gcc3d
