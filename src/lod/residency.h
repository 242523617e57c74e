/**
 * @file
 * Budgeted leaf-chunk residency for .gsc v2 LOD scenes.
 *
 * The proxy pyramid of a v2 file is small and always resident; the
 * leaf chunks — the bulk of a large scene — stay on disk until a
 * frame's LOD cut needs them.  ResidencyManager faults leaf chunks in
 * on demand, keeps them in a strict-LRU cache, and evicts oldest-first
 * so that cached decoded bytes never exceed an explicit budget.
 *
 * Two properties matter beyond plain caching:
 *
 *  - Handouts are shared_ptr: eviction only drops the cache's
 *    reference, so a chunk a frame is still rendering from is never
 *    pulled out from under it (its memory is freed when the last
 *    frame releases it — the budget bounds *cached* bytes).
 *  - A chunk larger than the whole budget is decoded as a *transient*
 *    load: returned to the caller but never cached.  Which chunks a
 *    cut renders therefore depends only on the camera, never on cache
 *    state — the serving layer's "scheduling never changes pixels"
 *    checksum guarantee survives budget pressure.
 */

#ifndef GCC3D_LOD_RESIDENCY_H
#define GCC3D_LOD_RESIDENCY_H

#include <algorithm>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/fault_hooks.h"
#include "obs/metrics_registry.h"
#include "obs/perf_recorder.h"
#include "runtime/mutex.h"
#include "runtime/thread_annotations.h"
#include "scene/gaussian.h"

namespace gcc3d {

/** A decoded leaf chunk held by the residency cache. */
struct ResidentChunk
{
    std::vector<Gaussian> gaussians;
    std::vector<std::uint32_t> indices;  ///< original scene indices

    /** Decoded size accounted against the budget (fp32 records). */
    std::size_t
    bytes() const
    {
        return gaussians.size() * Gaussian::kTotalBytes;
    }
};

/**
 * LRU cache of decoded leaf chunks under a hard byte budget.
 *
 * Thread-safe: concurrent acquire() calls from serving sessions share
 * one lock for the cache bookkeeping; decodes run outside it, and
 * concurrent misses on one chunk share a single decode.  Eviction
 * order is deterministic for a fixed access sequence (strict LRU,
 * ties impossible by construction).
 */
class ResidencyManager
{
  public:
    /** Counters for benches and tests (monotonic except resident_*). */
    struct Stats
    {
        /** Completed chunk decodes: one per miss, whatever the number
         *  of threads that asked for the chunk meanwhile. */
        std::uint64_t faults = 0;
        /** Cache hits, plus acquires that joined another thread's
         *  decode of the same chunk. */
        std::uint64_t hits = 0;
        std::uint64_t evictions = 0;        ///< chunks dropped by LRU
        std::uint64_t transient_loads = 0;  ///< over-budget, never cached
        std::uint64_t pressure_events = 0;  ///< injected budget squeezes
        std::size_t resident_bytes = 0;     ///< currently cached bytes
        std::size_t peak_resident_bytes = 0;
    };

    /**
     * @param budget_bytes hard ceiling on cached decoded bytes; 0
     *        disables caching entirely (every load is transient).
     */
    explicit ResidencyManager(std::size_t budget_bytes)
        : budget_(budget_bytes),
          obs_hits_(obs::MetricsRegistry::global().counter(
              "lod.residency.hits")),
          obs_faults_(obs::MetricsRegistry::global().counter(
              "lod.residency.faults")),
          obs_evictions_(obs::MetricsRegistry::global().counter(
              "lod.residency.evictions")),
          obs_transient_(obs::MetricsRegistry::global().counter(
              "lod.residency.transient_loads")),
          obs_pressure_(obs::MetricsRegistry::global().counter(
              "lod.residency.pressure_events"))
    {
    }

    /**
     * Return chunk @p index, decoding it via @p loader on a miss.
     * The loader must fill the ResidentChunk it is given; it runs
     * outside the manager's lock.  Each chunk is decoded once: an
     * acquire that finds the chunk being decoded by another thread
     * waits for that decode and returns its chunk, or rethrows its
     * exception (the next acquire after a failure decodes afresh).
     */
    template <typename Loader>
    std::shared_ptr<const ResidentChunk>
    acquire(std::size_t index, Loader &&loader)
    {
        std::optional<std::promise<ChunkPtr>> decoded;  // set on a miss
        std::shared_future<ChunkPtr> joined;
        {
            MutexLock lock(mutex_);
            auto it = map_.find(index);
            if (it != map_.end())
                return hitLocked(it->second);
            auto pending = pending_.find(index);
            if (pending != pending_.end()) {
                ++stats_.hits;
                obs_hits_.add();
                joined = pending->second;
            } else {
                decoded.emplace();
                pending_.emplace(index, decoded->get_future().share());
            }
        }
        if (!decoded)
            return joined.get();

        ChunkPtr chunk;
        try {
            chunk = decodeAndInsert(index, loader);
        } catch (...) {
            {
                MutexLock lock(mutex_);
                pending_.erase(index);
            }
            decoded->set_exception(std::current_exception());
            throw;
        }
        decoded->set_value(chunk);
        return chunk;
    }

    /**
     * Return chunk @p index if it is cached (a hit, which refreshes
     * its recency), else nullptr.  Never decodes, never waits.
     */
    std::shared_ptr<const ResidentChunk>
    lookup(std::size_t index)
    {
        MutexLock lock(mutex_);
        auto it = map_.find(index);
        return it == map_.end() ? nullptr : hitLocked(it->second);
    }

    /** Drop every cached chunk (outstanding handouts stay valid). */
    void
    clear()
    {
        MutexLock lock(mutex_);
        while (!lru_.empty())
            evictOldestLocked();
    }

    std::size_t budgetBytes() const { return budget_; }

    Stats
    stats() const
    {
        MutexLock lock(mutex_);
        return stats_;
    }

  private:
    struct Entry
    {
        std::shared_ptr<const ResidentChunk> chunk;
        std::list<std::size_t>::iterator lru_it;
    };

    void
    evictOldestLocked() REQUIRES(mutex_)
    {
        auto it = map_.find(lru_.front());
        stats_.resident_bytes -= it->second.chunk->bytes();
        ++stats_.evictions;
        obs_evictions_.add();
        map_.erase(it);
        lru_.pop_front();
    }

    using ChunkPtr = std::shared_ptr<const ResidentChunk>;

    /** Count a hit on @p entry and make it the most recent. */
    ChunkPtr
    hitLocked(Entry &entry) REQUIRES(mutex_)
    {
        ++stats_.hits;
        obs_hits_.add();
        lru_.splice(lru_.end(), lru_, entry.lru_it);
        return entry.chunk;
    }

    /** The miss path of acquire(): decode, then cache (or hand out
     *  transiently) and retire the pending entry in one step. */
    template <typename Loader>
    ChunkPtr
    decodeAndInsert(std::size_t index, Loader &loader)
    {
        auto chunk = std::make_shared<ResidentChunk>();
        {
            obs::PerfScope decode_scope(obs::Stage::ChunkDecode);
            loader(*chunk);
        }

        // Chaos hook: an injected budget squeeze shrinks the budget
        // this load caches under — extra evictions, possibly a
        // transient load, but the hard budget_ ceiling (and which
        // chunks a cut renders) is never exceeded or changed.
        // Probed outside the lock; pure in (seed, index).
        std::size_t effective_budget = budget_;
        const obs::FaultAction pressure = obs::faultAt(
            obs::FaultSite::BudgetPressure,
            static_cast<std::uint64_t>(index));
        if (pressure.inject)
            effective_budget = static_cast<std::size_t>(
                static_cast<double>(budget_) *
                std::clamp(pressure.magnitude, 0.0, 1.0));

        MutexLock lock(mutex_);
        pending_.erase(index);
        ++stats_.faults;
        obs_faults_.add();
        if (pressure.inject) {
            ++stats_.pressure_events;
            obs_pressure_.add();
        }
        if (chunk->bytes() > effective_budget) {
            ++stats_.transient_loads;
            obs_transient_.add();
            return chunk;
        }
        while (!lru_.empty() &&
               stats_.resident_bytes + chunk->bytes() > effective_budget)
            evictOldestLocked();
        lru_.push_back(index);
        map_[index] = Entry{chunk, std::prev(lru_.end())};
        stats_.resident_bytes += chunk->bytes();
        stats_.peak_resident_bytes =
            std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
        return chunk;
    }

    std::size_t budget_;  ///< immutable after construction

    /** Registry mirrors of stats_, cached at construction (lock-free
     *  updates; no-ops when observability is compiled out). */
    obs::Counter &obs_hits_;
    obs::Counter &obs_faults_;
    obs::Counter &obs_evictions_;
    obs::Counter &obs_transient_;
    obs::Counter &obs_pressure_;

    mutable Mutex mutex_;
    /** front = oldest, back = most recent. */
    std::list<std::size_t> lru_ GUARDED_BY(mutex_);
    std::unordered_map<std::size_t, Entry> map_ GUARDED_BY(mutex_);
    /** Chunks being decoded, keyed by index; later acquires join. */
    std::unordered_map<std::size_t, std::shared_future<ChunkPtr>>
        pending_ GUARDED_BY(mutex_);
    Stats stats_ GUARDED_BY(mutex_);
};

} // namespace gcc3d

#endif // GCC3D_LOD_RESIDENCY_H
