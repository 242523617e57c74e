#include "render/gaussian_wise_renderer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <memory>
#include <numeric>
#include <utility>

#include "gsmath/simd.h"
#include "obs/metrics_registry.h"
#include "obs/perf_recorder.h"
#include "render/lane_blend.h"
#include "runtime/mutex.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace gcc3d {

namespace {

/**
 * Per-candidate milestone flags collected while a (sub-)view renders.
 * In Compatibility Mode one Gaussian can reach different milestones
 * in different sub-views; the frame-level merge ORs the flags by
 * Gaussian id and classifies once, which is what gives the population
 * counters their unique-Gaussian semantics.
 */
enum : std::uint8_t
{
    kFlagProjected = 1u << 0,  ///< entered Stage II
    kFlagSurvived = 1u << 1,   ///< survived omega-sigma culling
    kFlagShEval = 1u << 2,     ///< SH color evaluated
    kFlagShSkip = 1u << 3,     ///< per-Gaussian conditional-load skip
    kFlagRendered = 1u << 4,   ///< contributed >= 1 pixel
    kFlagTermSkip = 1u << 5,   ///< dropped by cross-stage termination
};

/** Fold OR-merged milestone flags into the unique population counters. */
void
classifyFlags(const std::vector<std::uint8_t> &flags,
              GaussianWiseStats &stats)
{
    for (std::uint8_t f : flags) {
        if (f == 0)
            continue;
        if (f & kFlagProjected)
            ++stats.projected;
        if (f & kFlagSurvived)
            ++stats.survived_cull;
        if (f & kFlagRendered)
            ++stats.rendered_gaussians;
        if (f & kFlagShEval)
            ++stats.sh_evaluated;
        else if (f & kFlagShSkip)
            ++stats.sh_skipped;
        else if (f & kFlagTermSkip)
            ++stats.skipped_by_termination;
    }
}

/** Sum @p o's work counters into @p stats and append its trace. */
void
mergeWork(GaussianWiseStats &stats, GaussianWiseStats &&o)
{
    stats.groups += o.groups;
    stats.groups_processed += o.groups_processed;
    stats.stage2_invocations += o.stage2_invocations;
    stats.survivor_invocations += o.survivor_invocations;
    stats.sh_eval_invocations += o.sh_eval_invocations;
    stats.sh_skip_invocations += o.sh_skip_invocations;
    stats.termination_skip_invocations += o.termination_skip_invocations;
    stats.alpha_evals += o.alpha_evals;
    stats.blend_ops += o.blend_ops;
    stats.visited_blocks += o.visited_blocks;
    stats.influence_pixels += o.influence_pixels;
    if (stats.group_trace.empty())
        stats.group_trace = std::move(o.group_trace);
    else
        stats.group_trace.insert(stats.group_trace.end(),
                                 o.group_trace.begin(),
                                 o.group_trace.end());
}

/** Floor division (round toward negative infinity) for b > 0. */
inline int
floorDiv(int a, int b)
{
    int q = a / b;
    return (a % b != 0 && a < 0) ? q - 1 : q;
}

/**
 * The block window of per-Gaussian conditional loading (the CC half
 * of the dataflow, Fig. 1): the blocks within radius_omega of the
 * center, floor-divided so footprints centered left/above the view
 * (negative local coordinates) still cover exactly the blocks the
 * traversal could reach, and clipped to the grid.  The Gaussian
 * skips — its 48 SH floats are never fetched and it never enters the
 * Alpha Unit — when the window is not empty and holds no unmasked
 * block the footprint reaches (BlockTraversal::anyUnmaskedReach over
 * the reach bits its traversal then walks).
 */
BlockRect
loadWindow(const Ellipse &local, int radius, int block_size, int bx_n,
           int by_n)
{
    const int cx = static_cast<int>(std::floor(local.center.x));
    const int cy = static_cast<int>(std::floor(local.center.y));
    return {std::max(0, floorDiv(cx - radius, block_size)),
            std::max(0, floorDiv(cy - radius, block_size)),
            std::min(bx_n - 1, floorDiv(cx + radius, block_size)),
            std::min(by_n - 1, floorDiv(cy + radius, block_size))};
}

} // namespace

std::vector<DepthGroup>
groupByDepth(const std::vector<float> &depths,
             const std::vector<std::uint32_t> &ids, int group_capacity)
{
    std::vector<std::uint32_t> order(ids.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (depths[a] != depths[b])
                      return depths[a] < depths[b];
                  return ids[a] < ids[b];
              });

    std::vector<DepthGroup> groups;
    std::size_t n = order.size();
    // A degenerate capacity (0 or negative) would never advance the
    // chunking loop; clamp to the smallest legal group size.
    std::size_t cap =
        group_capacity < 1 ? 1 : static_cast<std::size_t>(group_capacity);
    groups.reserve((n + cap - 1) / cap);
    for (std::size_t start = 0; start < n; start += cap) {
        DepthGroup g;
        std::size_t end = std::min(start + cap, n);
        g.members.reserve(end - start);
        for (std::size_t k = start; k < end; ++k)
            g.members.push_back(ids[order[k]]);
        g.depth_lo = depths[order[start]];
        g.depth_hi = depths[order[end - 1]];
        groups.push_back(std::move(g));
    }
    return groups;
}

/**
 * Stage I's output: the Gaussians that pass the depth-pivot cull, in
 * view order, with their view depths.  A candidate's position stands
 * in for its Gaussian id: positions keep the view order, so every
 * tie-break by position orders as the reference's tie-break by id.
 */
struct GaussianWiseRenderer::Candidates
{
    std::vector<const Gaussian *> gaussians;
    std::vector<float> depths;

    std::size_t size() const { return gaussians.size(); }
};

/** Pre-projected splats shared between Cmode binning and Stage II. */
struct GaussianWiseRenderer::SplatCache
{
    static constexpr std::uint32_t kNone = 0xffffffffu;

    std::vector<Splat> splats;           ///< compacted cull survivors
    std::vector<std::uint32_t> index_of; ///< candidate -> splats index / kNone
};

/**
 * Reusable per-view working set: the per-pixel planes, T-mask,
 * per-block live and touched flags, the splat reach window and the
 * group splat list are assigned (not reallocated) per sub-view and
 * per splat, so Cmode frames touching dozens of sub-views stop
 * churning the allocator.  The planes stay
 * clean between views (renderView drains every block a lane group
 * reached), so a view pays only for the blocks it touches.  Scratches
 * are leased from ScratchPool for one (sub-)view at a time.
 */
struct GaussianWiseRenderer::ViewScratch
{
    struct GroupSplat
    {
        Splat splat;        ///< splat.id is the candidate position
        std::uint32_t pos;  ///< position in the view (flag slot, tie-break)
    };

    BlendPlanes planes;  ///< the view's color/T, stride view_w; clean
    ReachWindow reach;   ///< the current splat's block footprint
    std::vector<std::uint8_t> t_mask;
    std::vector<std::uint8_t> touched;  ///< per block: a lane group reached it
    std::vector<int> block_live;
    std::vector<std::uint32_t> positions;
    std::vector<float> depths;
    std::vector<GroupSplat> gsplats;

    /** Bytes held allocated. */
    std::size_t
    bytes() const
    {
        return planes.bytes() + reach.bytes() + t_mask.capacity() +
               touched.capacity() +
               block_live.capacity() * sizeof(int) +
               positions.capacity() * sizeof(std::uint32_t) +
               depths.capacity() * sizeof(float) +
               gsplats.capacity() * sizeof(GroupSplat);
    }
};

/**
 * Process-wide free list of view scratches.  Renders lease one per
 * (sub-)view and return it, so no thread keeps a scratch (its planes
 * alone are 16 B/px) once its render returns.  The pool keeps as many
 * scratches as were ever leased at once: a steady load of N
 * concurrent renders allocates none after its first N leases, and
 * what the pool retains never exceeds the scratch footprint the
 * process already reached at its peak concurrency.  A scratch whose
 * view exited by an exception may hold undrained planes and is freed
 * instead.  The retained bytes feed the render.gw.scratch_bytes
 * gauge.
 */
class GaussianWiseRenderer::ScratchPool
{
  public:
    static ScratchPool &
    global()
    {
        static ScratchPool pool;
        return pool;
    }

    std::unique_ptr<ViewScratch>
    acquire()
    {
        {
            MutexLock lock(mu_);
            // Room for every scratch in existence (at most peak_), so
            // release() never allocates.
            const std::size_t peak = std::max(peak_, leased_ + 1);
            idle_.reserve(peak);
            peak_ = peak;
            ++leased_;
            if (!idle_.empty()) {
                std::unique_ptr<ViewScratch> s = std::move(idle_.back());
                idle_.pop_back();
                idle_bytes_ -= s->bytes();
                return s;
            }
        }
        try {
            return std::make_unique<ViewScratch>();
        } catch (...) {
            MutexLock lock(mu_);
            --leased_;
            throw;
        }
    }

    /** Return a leased scratch; @p clean false frees it instead. */
    void
    release(std::unique_ptr<ViewScratch> s, bool clean)
    {
        static obs::Gauge &retained = obs::MetricsRegistry::global().gauge(
            "render.gw.scratch_bytes");
        std::size_t bytes;
        {
            MutexLock lock(mu_);
            --leased_;
            if (clean) {
                idle_bytes_ += s->bytes();
                idle_.push_back(std::move(s));
            }
            bytes = idle_bytes_;
        }
        s.reset();  // a dirty scratch is freed outside the lock
        retained.set(static_cast<double>(bytes));
    }

    std::size_t
    retainedBytes()
    {
        MutexLock lock(mu_);
        return idle_bytes_;
    }

    std::size_t
    peakLeases()
    {
        MutexLock lock(mu_);
        return peak_;
    }

  private:
    Mutex mu_;
    std::vector<std::unique_ptr<ViewScratch>> idle_ GUARDED_BY(mu_);
    std::size_t idle_bytes_ GUARDED_BY(mu_) = 0;
    std::size_t leased_ GUARDED_BY(mu_) = 0;
    std::size_t peak_ GUARDED_BY(mu_) = 0;  ///< most leases at once
};

/**
 * A scratch leased from the pool for one (sub-)view.  It goes back to
 * the pool only if the lease ends without an exception in flight.
 */
class GaussianWiseRenderer::ScratchLease
{
  public:
    ScratchLease()
        : scratch_(ScratchPool::global().acquire()),
          exceptions_(std::uncaught_exceptions())
    {
    }
    ~ScratchLease()
    {
        ScratchPool::global().release(
            std::move(scratch_), std::uncaught_exceptions() == exceptions_);
    }
    ScratchLease(const ScratchLease &) = delete;
    ScratchLease &operator=(const ScratchLease &) = delete;

    ViewScratch &operator*() const { return *scratch_; }

  private:
    std::unique_ptr<ViewScratch> scratch_;
    int exceptions_;
};

std::size_t
GaussianWiseRenderer::retainedScratchBytes()
{
    return ScratchPool::global().retainedBytes();
}

std::size_t
GaussianWiseRenderer::peakScratchLeases()
{
    return ScratchPool::global().peakLeases();
}

GaussianWiseRenderer::Candidates
GaussianWiseRenderer::cullByDepth(const CloudView &view, const Camera &cam,
                                  ThreadPool *pool) const
{
    // Chunks gather their Gaussians' pointers, run the SIMD z pass
    // over them (bit-identical per element to the scalar
    // worldToView) and compact the pivot survivors in place.
    std::vector<Candidates> chunks;
    forEachChunk(
        pool, view.size(), 4096,
        [&](std::size_t c, std::size_t begin, std::size_t end) {
            Candidates &out = chunks[c];
            out.gaussians.reserve(end - begin);
            view.forRange(begin, end, [&](std::size_t, const Gaussian &g) {
                out.gaussians.push_back(&g);
            });
            out.depths.resize(end - begin);
            viewDepthsZ(out.gaussians.data(), end - begin, cam,
                        out.depths.data());
            std::size_t kept = 0;
            for (std::size_t i = 0; i < end - begin; ++i) {
                if (out.depths[i] < config_.depth_pivot)
                    continue;
                out.gaussians[kept] = out.gaussians[i];
                out.depths[kept++] = out.depths[i];
            }
            out.gaussians.resize(kept);
            out.depths.resize(kept);
        },
        [&](std::size_t chunk_count) { chunks.resize(chunk_count); });

    if (chunks.size() == 1)
        return std::move(chunks.front());
    Candidates cand;
    for (const Candidates &c : chunks) {
        cand.gaussians.insert(cand.gaussians.end(), c.gaussians.begin(),
                              c.gaussians.end());
        cand.depths.insert(cand.depths.end(), c.depths.begin(),
                           c.depths.end());
    }
    return cand;
}

std::vector<std::vector<std::uint32_t>>
GaussianWiseRenderer::projectAndBin(const Candidates &cand,
                                    const Camera &cam, int sub, int sx,
                                    int sy, ThreadPool *pool,
                                    SplatCache &cache,
                                    GaussianWiseStats &stats,
                                    obs::StageTimer &stage_timer)
{
    const std::size_t num_subviews = static_cast<std::size_t>(sx) * sy;
    struct BinChunk
    {
        std::vector<Splat> splats;
        std::vector<std::vector<std::uint32_t>> bins;
    };
    std::vector<BinChunk> chunks;
    forEachChunk(
        pool, cand.size(), 1024,
        [&](std::size_t c, std::size_t begin, std::size_t end) {
            BinChunk &out = chunks[c];
            out.bins.resize(num_subviews);
            for (std::size_t i = begin; i < end; ++i) {
                const std::uint32_t pos = static_cast<std::uint32_t>(i);
                const Gaussian &g = *cand.gaussians[pos];
                auto s = projectGaussian(g, pos, cam, nullptr);
                if (!s)
                    continue;
                PixelRect box =
                    aabbFromRadius(s->ellipse.center, s->radius_omega)
                        .clipped(cam.width(), cam.height());
                if (box.empty())
                    continue;
                // SH evaluated once here, shared by every sub-view
                // the Gaussian is binned into (identical value to a
                // per-invocation shColorFor call).
                s->color = shColorFor(g, cam);
                out.splats.push_back(*s);
                for (int by = box.y0 / sub; by <= box.y1 / sub; ++by)
                    for (int bx = box.x0 / sub; bx <= box.x1 / sub; ++bx)
                        out.bins[static_cast<std::size_t>(by) * sx + bx]
                            .push_back(pos);
            }
        },
        [&](std::size_t chunk_count) { chunks.resize(chunk_count); });
    stage_timer.lap(obs::Stage::Preprocess, &stats.stage.preprocess_ms);

    // Chunk-ordered merge: bins stay sorted by position, exactly as a
    // serial pass would build them.
    cache.index_of.assign(cand.size(), SplatCache::kNone);
    std::vector<std::vector<std::uint32_t>> bins(num_subviews);
    for (BinChunk &c : chunks) {
        for (Splat &s : c.splats) {
            cache.index_of[s.id] =
                static_cast<std::uint32_t>(cache.splats.size());
            cache.splats.push_back(s);
        }
        for (std::size_t b = 0; b < num_subviews; ++b)
            bins[b].insert(bins[b].end(), c.bins[b].begin(),
                           c.bins[b].end());
    }
    chunks.clear();
    chunks.shrink_to_fit();
    for (const auto &bin : bins)
        stats.bin_records += static_cast<std::int64_t>(bin.size());
    stage_timer.lap(obs::Stage::Binning, &stats.stage.binning_ms);
    return bins;
}

void
GaussianWiseRenderer::renderView(const Candidates &cand,
                                 const std::vector<std::uint32_t> &members,
                                 const SplatCache *cache, const Camera &cam,
                                 int view_x0, int view_y0, int view_w,
                                 int view_h, Image &image,
                                 GaussianWiseStats &stats,
                                 std::vector<std::uint8_t> &flags,
                                 ViewScratch &scratch) const
{
    // ---- Stage I: grouping over the view's members (the depth
    // stage has already applied the pivot cull). ----
    scratch.depths.resize(members.size());
    for (std::size_t i = 0; i < members.size(); ++i)
        scratch.depths[i] = cand.depths[members[i]];
    scratch.positions.resize(members.size());
    std::iota(scratch.positions.begin(), scratch.positions.end(), 0u);
    std::vector<DepthGroup> groups = groupByDepth(
        scratch.depths, scratch.positions, config_.group_capacity);
    stats.groups += static_cast<std::int64_t>(groups.size());

    // ---- Per-(sub)view pixel and block state. ----
    BlockTraversal traversal(config_.block_size, view_w, view_h);
    const int bx_n = traversal.blocksX();
    const int by_n = traversal.blocksY();
    BlendPlanes &planes = scratch.planes;
    planes.growClean(static_cast<std::size_t>(view_w) * view_h);
    scratch.t_mask.assign(static_cast<std::size_t>(bx_n) * by_n, 0);
    scratch.touched.assign(scratch.t_mask.size(), 0);
    scratch.block_live.assign(scratch.t_mask.size(), 0);
    for (int by = 0; by < by_n; ++by) {
        for (int bx = 0; bx < bx_n; ++bx) {
            int w = std::min(config_.block_size,
                             view_w - bx * config_.block_size);
            int h = std::min(config_.block_size,
                             view_h - by * config_.block_size);
            scratch.block_live[static_cast<std::size_t>(by) * bx_n + bx] =
                w * h;
        }
    }
    int *block_live = scratch.block_live.data();
    std::uint8_t *t_mask = scratch.t_mask.data();
    std::uint8_t *touched = scratch.touched.data();
    // Hoisted out of the lane visitor: float plane stores could alias
    // float members under type-based aliasing, forcing reloads.
    const int block_size = config_.block_size;
    const simd::FloatV term_v(config_.termination_t), cap_v(0.99f);
    std::int64_t live = static_cast<std::int64_t>(view_w) * view_h;
    // Exponentials the host evaluated: every lane reaching Stage IV's
    // exp blends (no cutoff test follows it), so this is the view's
    // blend count.  Flushed once per view to the metrics registry,
    // never to the stats the simulators read.
    static obs::Counter &exp_lanes_counter =
        obs::MetricsRegistry::global().counter("render.gw.exp_lanes");
    std::int64_t exp_lanes = 0;
    // Blocks whose reach bit the host evaluated (window growth
    // included): the boundary test's work, flushed the same way.
    static obs::Counter &reach_blocks_counter =
        obs::MetricsRegistry::global().counter("render.gw.reach_blocks");
    std::int64_t reach_blocks = 0;

    // ---- Stages II-IV, group by group, near to far. ----
    auto &gsplats = scratch.gsplats;
    bool terminated = false;
    for (const DepthGroup &group : groups) {
        GroupActivity activity;
        activity.members = static_cast<std::int32_t>(group.members.size());
        if (terminated && config_.conditional) {
            // Cross-stage conditional processing: this group (and all
            // deeper ones) is never loaded from DRAM, projected or
            // shaded.
            stats.termination_skip_invocations +=
                static_cast<std::int64_t>(group.members.size());
            for (std::uint32_t pos : group.members)
                flags[pos] |= kFlagTermSkip;
            activity.skipped = true;
            stats.group_trace.push_back(activity);
            continue;
        }
        ++stats.groups_processed;

        // Stage II: position/shape projection and omega-sigma culling.
        // With a splat cache (Cmode) the shared projection pass already
        // did the arithmetic; the invocation is a lookup but still
        // counts as Stage II work (hardware re-projects per sub-view).
        gsplats.clear();
        for (std::uint32_t pos : group.members) {
            const std::uint32_t c = members[pos];
            ++stats.stage2_invocations;
            ++activity.projected;
            flags[pos] |= kFlagProjected;
            if (cache != nullptr) {
                const Splat &s = cache->splats[cache->index_of[c]];
                ++stats.survivor_invocations;
                ++activity.survivors;
                flags[pos] |= kFlagSurvived;
                gsplats.push_back({s, pos});
            } else {
                auto s = projectGaussian(*cand.gaussians[c], c, cam,
                                         nullptr);
                if (!s)
                    continue;
                ++stats.survivor_invocations;
                ++activity.survivors;
                flags[pos] |= kFlagSurvived;
                gsplats.push_back({*s, pos});
            }
        }

        // Stage III: intra-group front-to-back sort (bitonic network
        // in hardware) and SH color for survivors only.
        std::sort(gsplats.begin(), gsplats.end(),
                  [](const ViewScratch::GroupSplat &a,
                     const ViewScratch::GroupSplat &b) {
                      if (a.splat.depth != b.splat.depth)
                          return a.splat.depth < b.splat.depth;
                      return a.pos < b.pos;
                  });

        // Stage IV: alpha-based boundary identification + blending.
        for (std::size_t k = 0; k < gsplats.size(); ++k) {
            ViewScratch::GroupSplat &gs = gsplats[k];
            if (config_.conditional && live == 0) {
                // Frame termination mid-group: the remaining sorted
                // survivors never load SH or enter the Alpha Unit.
                terminated = true;
                std::int32_t tail =
                    static_cast<std::int32_t>(gsplats.size() - k);
                activity.terminated += tail;
                stats.termination_skip_invocations += tail;
                for (std::size_t j = k; j < gsplats.size(); ++j)
                    flags[gsplats[j].pos] |= kFlagTermSkip;
                break;
            }

            // Work in sub-view-local coordinates.
            Ellipse local = gs.splat.ellipse;
            local.center = local.center -
                           Vec2(static_cast<float>(view_x0),
                                static_cast<float>(view_y0));

            // The footprint's reach bits, evaluated once: the
            // conditional-loading decision reads them, and the
            // traversal floods them.
            const BlockRect load =
                config_.conditional
                    ? loadWindow(local, gs.splat.radius_omega,
                                 block_size, bx_n, by_n)
                    : BlockRect{};
            traversal.reach(local, gs.splat.opacity, scratch.reach, load);
            const bool skip =
                config_.conditional && !load.empty() &&
                !traversal.anyUnmaskedReach(scratch.reach, load, t_mask);
            if (skip) {
                reach_blocks += scratch.reach.evaluatedBlocks();
                ++stats.sh_skip_invocations;
                ++activity.sh_skipped;
                flags[gs.pos] |= kFlagShSkip;
                continue;
            }

            ++stats.sh_eval_invocations;
            ++activity.sh_evals;
            flags[gs.pos] |= kFlagShEval;
            // The shared Cmode pass evaluated SH once per Gaussian;
            // a Gaussian spanning several sub-views reuses it instead
            // of re-deriving the identical color per invocation.
            const Vec3 color =
                cache != nullptr
                    ? gs.splat.color
                    : shColorFor(*cand.gaussians[gs.splat.id], cam);

            // Blends are tallied in a register-resident local and
            // flushed once per splat: the counters live behind
            // references, so per-lane increments would be memory
            // read-modify-writes in the hottest loop.
            std::int64_t splat_blends = 0;
            const simd::FloatV omega_v(gs.splat.opacity);
            const simd::FloatV rv(color.x), gv(color.y), bv(color.z);
            // Stage IV on whole lane groups, each lane the scalar
            // reference's op sequence at its own pixel, std::exp
            // included (simd::expExact via expFalloff).
            auto blend_lanes = [&](int x, int y, const simd::FloatV &q,
                                   unsigned bits) {
                const std::size_t off =
                    static_cast<std::size_t>(y) * view_w + x;
                const simd::FloatV t = planes.t(off);
                // Scalar `t < termination_t -> skip`.
                bits &= ~(t < term_v).bits();
                if (bits == 0)
                    return;
                // Scalar std::min(0.99f, a): 0.99 on NaN.
                const simd::FloatV a =
                    simd::min(omega_v * expFalloff(q, bits), cap_v);
                const simd::FloatV t_new =
                    planes.blend(off, bits, t, a, rv, gv, bv);
                splat_blends += std::popcount(bits);
                // Only lanes crossing termination touch the counts.
                for (unsigned d = bits & (t_new < term_v).bits(); d != 0;
                     d &= d - 1) {
                    const int px = x + std::countr_zero(d);
                    --live;
                    std::size_t bi =
                        static_cast<std::size_t>(y / block_size) * bx_n +
                        (px / block_size);
                    if (--block_live[bi] == 0)
                        t_mask[bi] = 1;
                }
            };
            // Every block a lane group of this splat reached is marked
            // touched; one nothing blended drains clean planes onto
            // zero pixels.
            const BoundaryStats bs = traversal.traverseLanes(
                scratch.reach, &scratch.t_mask, blend_lanes, touched);
            reach_blocks += scratch.reach.evaluatedBlocks();
            stats.alpha_evals += bs.alpha_evals;
            stats.visited_blocks += bs.visited_blocks;
            stats.influence_pixels += bs.influence_pixels;
            stats.blend_ops += splat_blends;
            exp_lanes += splat_blends;
            activity.visited_blocks += bs.visited_blocks;
            activity.active_blocks += bs.active_blocks;
            activity.alpha_evals += bs.alpha_evals;
            activity.blend_ops += splat_blends;
            if (splat_blends > 0) {
                flags[gs.pos] |= kFlagRendered;
                ++activity.rendered;
            }
        }
        if (live == 0)
            terminated = true;
        stats.group_trace.push_back(activity);
    }
    exp_lanes_counter.add(exp_lanes);
    reach_blocks_counter.add(reach_blocks);

    // The view's region is zero on entry (a fresh frame; Cmode
    // sub-views are disjoint), so the planes are the blended pixels,
    // and a block nothing blended is already right in the image.
    // Draining the touched blocks, a run of adjacent ones per call,
    // leaves the planes clean again.
    for (int by = 0; by < by_n; ++by) {
        const std::uint8_t *row = touched + static_cast<std::size_t>(by) * bx_n;
        for (int bx = 0; bx < bx_n;) {
            if (!row[bx]) {
                ++bx;
                continue;
            }
            const int run = bx;
            while (bx < bx_n && row[bx])
                ++bx;
            const int x = run * block_size, y = by * block_size;
            planes.drain(image, view_x0, view_y0, x, y,
                         std::min(bx * block_size, view_w) - x,
                         std::min(block_size, view_h - y), view_w);
        }
    }
}

void
GaussianWiseRenderer::renderViewReference(
    const GaussianCloud &cloud, const Camera &cam,
    const std::vector<std::uint32_t> &candidates,
    const std::vector<float> &depths, int view_x0, int view_y0,
    int view_w, int view_h, Image &image, GaussianWiseStats &stats,
    std::vector<std::uint8_t> &flags) const
{
    // ---- Stage I: grouping over candidate positions. ----
    std::vector<std::uint32_t> positions(candidates.size());
    std::iota(positions.begin(), positions.end(), 0u);
    std::vector<DepthGroup> groups =
        groupByDepth(depths, positions, config_.group_capacity);
    stats.groups += static_cast<std::int64_t>(groups.size());

    // ---- Per-(sub)view pixel and block state. ----
    BlockTraversal traversal(config_.block_size, view_w, view_h);
    const int bx_n = traversal.blocksX();
    const int by_n = traversal.blocksY();
    std::vector<float> transmittance(
        static_cast<std::size_t>(view_w) * view_h, 1.0f);
    std::vector<std::uint8_t> t_mask(
        static_cast<std::size_t>(bx_n) * by_n, 0);
    std::vector<int> block_live(t_mask.size(), 0);
    for (int by = 0; by < by_n; ++by) {
        for (int bx = 0; bx < bx_n; ++bx) {
            int w = std::min(config_.block_size,
                             view_w - bx * config_.block_size);
            int h = std::min(config_.block_size,
                             view_h - by * config_.block_size);
            block_live[static_cast<std::size_t>(by) * bx_n + bx] = w * h;
        }
    }
    std::int64_t live = static_cast<std::int64_t>(view_w) * view_h;

    // ---- Stages II-IV, group by group, near to far. ----
    struct GroupSplat
    {
        Splat splat;
        std::uint32_t id;
        std::uint32_t pos;
    };
    std::vector<GroupSplat> gsplats;

    bool terminated = false;
    for (const DepthGroup &group : groups) {
        GroupActivity activity;
        activity.members = static_cast<std::int32_t>(group.members.size());
        if (terminated && config_.conditional) {
            stats.termination_skip_invocations +=
                static_cast<std::int64_t>(group.members.size());
            for (std::uint32_t pos : group.members)
                flags[pos] |= kFlagTermSkip;
            activity.skipped = true;
            stats.group_trace.push_back(activity);
            continue;
        }
        ++stats.groups_processed;

        // Stage II: the scalar path re-projects every group member
        // (in Cmode: once per overlapping sub-view) — exactly the
        // duplicated arithmetic the fast path's shared projection
        // pass eliminates.
        gsplats.clear();
        for (std::uint32_t pos : group.members) {
            const std::uint32_t id = candidates[pos];
            ++stats.stage2_invocations;
            ++activity.projected;
            flags[pos] |= kFlagProjected;
            auto s = projectGaussian(cloud[id], id, cam, nullptr);
            if (!s)
                continue;
            ++stats.survivor_invocations;
            ++activity.survivors;
            flags[pos] |= kFlagSurvived;
            gsplats.push_back({*s, id, pos});
        }

        // Stage III: intra-group front-to-back sort and SH color.
        std::sort(gsplats.begin(), gsplats.end(),
                  [](const GroupSplat &a, const GroupSplat &b) {
                      if (a.splat.depth != b.splat.depth)
                          return a.splat.depth < b.splat.depth;
                      return a.id < b.id;
                  });

        // Stage IV: alpha-based boundary identification + blending.
        for (std::size_t k = 0; k < gsplats.size(); ++k) {
            GroupSplat &gs = gsplats[k];
            if (config_.conditional && live == 0) {
                terminated = true;
                std::int32_t tail =
                    static_cast<std::int32_t>(gsplats.size() - k);
                activity.terminated += tail;
                stats.termination_skip_invocations += tail;
                for (std::size_t j = k; j < gsplats.size(); ++j)
                    flags[gsplats[j].pos] |= kFlagTermSkip;
                break;
            }

            Ellipse local = gs.splat.ellipse;
            local.center = local.center -
                           Vec2(static_cast<float>(view_x0),
                                static_cast<float>(view_y0));

            // Per-Gaussian conditional loading, scalar transcription:
            // same floor-division block window and the same decisions
            // as the fast path's loadWindow/anyUnmaskedReach,
            // expressed as the direct loop over blockReachable.
            if (config_.conditional) {
                const int r = gs.splat.radius_omega;
                const int cxi =
                    static_cast<int>(std::floor(local.center.x));
                const int cyi =
                    static_cast<int>(std::floor(local.center.y));
                const int bs = config_.block_size;
                const int bx0 = std::max(0, floorDiv(cxi - r, bs));
                const int by0 = std::max(0, floorDiv(cyi - r, bs));
                const int bx1 =
                    std::min(bx_n - 1, floorDiv(cxi + r, bs));
                const int by1 =
                    std::min(by_n - 1, floorDiv(cyi + r, bs));
                bool all_masked = bx0 <= bx1 && by0 <= by1;
                for (int by = by0; by <= by1 && all_masked; ++by) {
                    for (int bx = bx0; bx <= bx1; ++bx) {
                        if (t_mask[static_cast<std::size_t>(by) * bx_n +
                                   bx])
                            continue;
                        // Unmasked corner blocks the elliptical
                        // footprint cannot reach don't block the
                        // skip: the traversal would never evaluate
                        // them.
                        if (!traversal.blockReachable(
                                local, gs.splat.opacity, bx, by))
                            continue;
                        all_masked = false;
                        break;
                    }
                }
                if (all_masked) {
                    ++stats.sh_skip_invocations;
                    ++activity.sh_skipped;
                    flags[gs.pos] |= kFlagShSkip;
                    continue;
                }
            }

            ++stats.sh_eval_invocations;
            ++activity.sh_evals;
            flags[gs.pos] |= kFlagShEval;
            gs.splat.color = shColorFor(cloud[gs.id], cam);

            bool contributed = false;
            BoundaryStats bs = traversal.traverse(
                local, gs.splat.opacity, &t_mask,
                [&](int x, int y, float a) {
                    float &t =
                        transmittance[static_cast<std::size_t>(y) *
                                          view_w + x];
                    if (t < config_.termination_t)
                        return;
                    ++stats.blend_ops;
                    ++activity.blend_ops;
                    contributed = true;
                    image.at(view_x0 + x, view_y0 + y) +=
                        gs.splat.color * (a * t);
                    t *= 1.0f - a;
                    if (t < config_.termination_t) {
                        --live;
                        std::size_t bi =
                            static_cast<std::size_t>(
                                y / config_.block_size) * bx_n +
                            (x / config_.block_size);
                        if (--block_live[bi] == 0)
                            t_mask[bi] = 1;
                    }
                });
            stats.alpha_evals += bs.alpha_evals;
            stats.visited_blocks += bs.visited_blocks;
            stats.influence_pixels += bs.influence_pixels;
            activity.visited_blocks += bs.visited_blocks;
            activity.active_blocks += bs.active_blocks;
            activity.alpha_evals += bs.alpha_evals;
            if (contributed) {
                flags[gs.pos] |= kFlagRendered;
                ++activity.rendered;
            }
        }
        if (live == 0)
            terminated = true;
        stats.group_trace.push_back(activity);
    }
}

Image
GaussianWiseRenderer::render(const CloudView &view, const Camera &cam,
                             GaussianWiseStats &stats,
                             ThreadPool *pool) const
{
    stats.total = static_cast<std::int64_t>(view.size());
    Image image(cam.width(), cam.height());
    obs::StageTimer stage_timer;

    // ---- Stage I: depth pass and pivot cull. ----
    const Candidates cand = cullByDepth(view, cam, pool);
    stats.depth_culled +=
        static_cast<std::int64_t>(view.size() - cand.size());

    // ---- The views.  The full view is one view over every
    // candidate with no splat cache, so its Stage II stays lazy.
    // Compatibility Mode is a grid of sub-views over the candidates
    // one shared projection pass projected, shaded and binned. ----
    const int sub_cfg = config_.subview_size;
    const bool cmode = sub_cfg > 0 &&
                       (sub_cfg < cam.width() || sub_cfg < cam.height());
    const int sub =
        cmode ? sub_cfg : std::max({cam.width(), cam.height(), 1});
    const int sx = (cam.width() + sub - 1) / sub;
    const int sy = (cam.height() + sub - 1) / sub;
    SplatCache cache;
    std::vector<std::vector<std::uint32_t>> members;
    if (cmode) {
        members = projectAndBin(cand, cam, sub, sx, sy, pool, cache, stats,
                                stage_timer);
    } else {
        members.emplace_back(cand.size());
        std::iota(members[0].begin(), members[0].end(), 0u);
        stage_timer.lap(obs::Stage::Preprocess, &stats.stage.preprocess_ms);
    }

    // ---- Stages II-IV per view.  Views are disjoint pixel regions,
    // so they run concurrently (one single-element range per
    // non-empty view: the pool's FIFO queue load-balances crowded
    // center sub-views against empty borders, and runChunks provides
    // the drain-before-unwind safety; a lone view runs inline). ----
    struct ViewOut
    {
        GaussianWiseStats stats;
        std::vector<std::uint8_t> flags;
    };
    std::vector<ViewOut> outs(members.size());
    std::vector<std::pair<std::size_t, std::size_t>> jobs;
    jobs.reserve(members.size());
    for (std::size_t v = 0; v < members.size(); ++v)
        if (!members[v].empty())
            jobs.emplace_back(v, v + 1);
    runChunks(pool, jobs, [&](std::size_t, std::size_t v, std::size_t) {
        const int x0 = static_cast<int>(v) % sx * sub;
        const int y0 = static_cast<int>(v) / sx * sub;
        outs[v].flags.assign(members[v].size(), 0);
        renderView(cand, members[v], cmode ? &cache : nullptr, cam, x0, y0,
                   std::min(sub, cam.width() - x0),
                   std::min(sub, cam.height() - y0), image, outs[v].stats,
                   outs[v].flags, *ScratchLease());
    });

    // ---- One view-ordered merge, then the unique-population
    // classification: image, counters and group trace are
    // bit-identical to a serial pass regardless of scheduling. ----
    std::vector<std::uint8_t> flags(cand.size(), 0);
    for (std::size_t v = 0; v < members.size(); ++v) {
        mergeWork(stats, std::move(outs[v].stats));
        for (std::size_t i = 0; i < members[v].size(); ++i)
            flags[members[v][i]] |= outs[v].flags[i];
    }
    classifyFlags(flags, stats);
    stage_timer.lap(obs::Stage::Raster, &stats.stage.raster_ms);
    return image;
}

Image
GaussianWiseRenderer::renderReference(const GaussianCloud &cloud,
                                      const Camera &cam,
                                      GaussianWiseStats &stats) const
{
    stats.total = static_cast<std::int64_t>(cloud.size());
    Image image(cam.width(), cam.height());

    if (config_.subview_size <= 0 ||
        (config_.subview_size >= cam.width() &&
         config_.subview_size >= cam.height())) {
        obs::StageTimer stage_timer;
        std::vector<std::uint32_t> candidates;
        std::vector<float> depths;
        for (std::uint32_t id = 0; id < cloud.size(); ++id) {
            float d = cam.worldToView(cloud[id].mean).z;
            if (d < config_.depth_pivot) {
                ++stats.depth_culled;
                continue;
            }
            candidates.push_back(id);
            depths.push_back(d);
        }
        stage_timer.lap(obs::Stage::Preprocess,
                        &stats.stage.preprocess_ms);
        std::vector<std::uint8_t> flags(candidates.size(), 0);
        renderViewReference(cloud, cam, candidates, depths, 0, 0,
                            cam.width(), cam.height(), image, stats,
                            flags);
        classifyFlags(flags, stats);
        stage_timer.lap(obs::Stage::Raster, &stats.stage.raster_ms);
        return image;
    }

    // ---- Compatibility Mode: scalar 2D spatial binning. ----
    obs::StageTimer stage_timer;
    const int sub = config_.subview_size;
    const int sx = (cam.width() + sub - 1) / sub;
    const int sy = (cam.height() + sub - 1) / sub;
    std::vector<std::vector<std::uint32_t>> bins(
        static_cast<std::size_t>(sx) * sy);

    for (std::uint32_t id = 0; id < cloud.size(); ++id) {
        float d = cam.worldToView(cloud[id].mean).z;
        if (d < config_.depth_pivot) {
            ++stats.depth_culled;
            continue;
        }
        auto s = projectGaussian(cloud[id], id, cam, nullptr);
        if (!s)
            continue;
        PixelRect box = aabbFromRadius(s->ellipse.center, s->radius_omega)
                            .clipped(cam.width(), cam.height());
        if (box.empty())
            continue;
        for (int by = box.y0 / sub; by <= box.y1 / sub; ++by)
            for (int bx = box.x0 / sub; bx <= box.x1 / sub; ++bx) {
                bins[static_cast<std::size_t>(by) * sx + bx].push_back(id);
                ++stats.bin_records;
            }
    }
    // Projection and binning are one interleaved loop here; attribute
    // it to preprocess (the breakdown of interest is the fast path's).
    stage_timer.lap(obs::Stage::Preprocess, &stats.stage.preprocess_ms);

    std::vector<std::uint8_t> flags_by_id(cloud.size(), 0);
    for (int by = 0; by < sy; ++by) {
        for (int bx = 0; bx < sx; ++bx) {
            const auto &bin =
                bins[static_cast<std::size_t>(by) * sx + bx];
            if (bin.empty())
                continue;
            int x0 = bx * sub;
            int y0 = by * sub;
            int w = std::min(sub, cam.width() - x0);
            int h = std::min(sub, cam.height() - y0);
            std::vector<float> depths(bin.size());
            for (std::size_t i = 0; i < bin.size(); ++i)
                depths[i] = cam.worldToView(cloud[bin[i]].mean).z;
            std::vector<std::uint8_t> flags(bin.size(), 0);
            renderViewReference(cloud, cam, bin, depths, x0, y0, w, h,
                                image, stats, flags);
            for (std::size_t i = 0; i < bin.size(); ++i)
                flags_by_id[bin[i]] |= flags[i];
        }
    }
    classifyFlags(flags_by_id, stats);
    stage_timer.lap(obs::Stage::Raster, &stats.stage.raster_ms);
    return image;
}

} // namespace gcc3d
