/**
 * @file
 * Always-on per-stage perf recorder: the single timing path of the
 * whole stack.
 *
 * Every stage duration in the library — renderer preprocess/binning/
 * raster/warp laps, LOD cut builds, chunk decodes, scene IO, scheduler
 * queue waits, sweep jobs — is recorded here through one of three
 * hooks:
 *
 *  - PerfScope    RAII span around a block.
 *  - StageTimer   lap-based chaining for the renderers' sequential
 *                 stage pipelines: lap(stage) attributes the time
 *                 since the previous lap (or construction), exactly
 *                 the semantics of the old hand-rolled
 *                 monotonicNow()/msBetween() chains it replaces.
 *  - addSample()  direct injection of an already-measured duration
 *                 (scheduler queue waits, tests); the sample is
 *                 back-dated to end now.
 *
 * Storage is a fixed-capacity ring buffer per recording thread, so
 * recording is lock-free after a thread's first sample and the
 * memory bound is explicit.  Samples carry (stage, start, duration,
 * session/frame tags); the tags come from the thread's ambient
 * FrameTag so renderer internals need no plumbing.  That FrameTag
 * also sums each recorded duration per stage, which is how a served
 * frame learns its stage costs (Session's FrameStageCost): one clock
 * read per boundary feeds both the trace and the frame's totals.
 *
 * Determinism: summary() merges the per-thread rings by sorting the
 * retained samples on their value key (stage, session, frame, seq,
 * duration) and tree-summing in that order — the summary of a fixed
 * tagged sample set is bit-identical however the samples were
 * distributed across threads (tests/test_obs.cc locks 1/2/8-worker
 * distributions to equality).
 *
 * Thread safety: record() is safe from any thread.  summary(),
 * samples() and reset() require recording threads to be quiescent
 * (no scope currently open) — every caller in the tree reads after
 * joining its workers, and the future/join that establishes
 * quiescence also publishes the ring contents.
 *
 * With GCC3D_OBS=OFF every type below is an empty stub with the same
 * signatures; see obs_config.h.  tickNow() stays real in both builds:
 * it is the sanctioned pass-through clock read for *behavioral*
 * timing (scheduler pacing, pool queue-wait stamps) — the gsc_lint
 * `recorder` rule bans raw monotonicNow()/msSince() calls outside
 * src/obs/ so all timing funnels through here.
 */

#ifndef GCC3D_OBS_PERF_RECORDER_H
#define GCC3D_OBS_PERF_RECORDER_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs_config.h"
#include "obs/stage.h"
#include "runtime/mutex.h"
#include "runtime/thread_annotations.h"
#include "runtime/wallclock.h"

namespace gcc3d::obs {

/** Behavioral clock read (pacing, SLO stamps): real in every build. */
inline MonoTime
tickNow()
{
    return monotonicNow();
}

/** Session/frame/sequence tags attached to a sample. */
struct SampleTag
{
    std::int32_t session = -1;  ///< serving session id; -1 = none
    std::int32_t frame = -1;    ///< trajectory frame; -1 = none
    std::uint32_t seq = 0;      ///< caller sequence (tests, ordering)
};

/** One recorded duration. */
struct PerfSample
{
    double start_us = 0.0;      ///< start, µs since recorder epoch
    double dur_ms = 0.0;
    std::int32_t session = -1;
    std::int32_t frame = -1;
    std::uint32_t seq = 0;
    std::int32_t thread = -1;   ///< recording-thread index (set on collect)
    Stage stage = Stage::Queue;
};

/** Merged per-stage aggregate. */
struct StageSummary
{
    std::int64_t count = 0;
    double total_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
    /** Rolling history: the most recent retained durations, oldest
     *  first (at most PerfRecorder::kHistory). */
    std::vector<double> recent;
};

/** Deterministic merge of every thread's retained samples. */
struct PerfSummary
{
    std::array<StageSummary, kStageCount> stages{};
    std::uint64_t recorded = 0;  ///< samples ever recorded
    std::uint64_t retained = 0;  ///< samples still in the rings
};

/** {"stages": {...}, "recorded": N, "retained": N} */
std::string perfSummaryJson(const PerfSummary &summary);

#if GCC3D_OBS_ENABLED

class PerfRecorder
{
  public:
    static constexpr std::size_t kDefaultRingCapacity = 16384;
    static constexpr std::size_t kHistory = 32;

    explicit PerfRecorder(std::size_t ring_capacity = kDefaultRingCapacity);
    ~PerfRecorder();

    PerfRecorder(const PerfRecorder &) = delete;
    PerfRecorder &operator=(const PerfRecorder &) = delete;

    /** The process-wide recorder every hook feeds. */
    static PerfRecorder &global();

    /** Runtime kill switch (also the baseline of bench/contracts'
     *  obs_overhead): when off, record()/addSample() keep no sample.
     *  record() still feeds the live FrameTag's stage totals. */
    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Record a span that started at @p start and ran @p dur_ms,
     *  tagged with the calling thread's ambient FrameTag, and add
     *  @p dur_ms to that tag's total for @p stage. */
    void record(Stage stage, MonoTime start, double dur_ms);

    /** Inject an already-measured duration with an explicit tag; the
     *  sample is back-dated to end now.  Feeds no FrameTag total. */
    void addSample(Stage stage, double dur_ms, SampleTag tag = {});

    /** Deterministic merged per-stage aggregates (see file comment
     *  for the quiescence requirement). */
    PerfSummary summary() const;

    /** Every retained sample, chronological (start, thread); thread
     *  indices filled in.  Trace-export input. */
    std::vector<PerfSample> samples() const;

    /** Drop every retained sample and reset counts; thread
     *  registrations and the epoch survive. */
    void reset();

    std::size_t ringCapacity() const { return capacity_; }

  private:
    struct ThreadLog
    {
        explicit ThreadLog(std::size_t capacity) : ring(capacity) {}
        std::vector<PerfSample> ring;
        std::size_t head = 0;        ///< next write slot
        std::uint64_t recorded = 0;  ///< samples ever written
    };

    /** The calling thread's log, registering it on first use. */
    ThreadLog &threadLog();

    const std::uint64_t id_;       ///< process-unique (cache validity)
    const std::size_t capacity_;
    const MonoTime epoch_;
    std::atomic<bool> enabled_{true};

    mutable Mutex mutex_;
    std::vector<std::unique_ptr<ThreadLog>> logs_ GUARDED_BY(mutex_);
    std::map<std::thread::id, std::size_t> index_ GUARDED_BY(mutex_);
};

/**
 * Ambient (thread-local) session/frame tag: samples recorded on this
 * thread while a FrameTag is alive carry its ids, and their durations
 * add up per stage in the tag (ms()).  Nests: only the innermost live
 * tag tags samples and sums them; the enclosing one resumes when it
 * ends.
 */
class FrameTag
{
  public:
    FrameTag(std::int32_t session, std::int32_t frame);
    ~FrameTag();

    FrameTag(const FrameTag &) = delete;
    FrameTag &operator=(const FrameTag &) = delete;

    /** Total of the durations record() saw for @p stage on this
     *  thread while this tag was the innermost one. */
    double
    ms(Stage stage) const
    {
        return ms_[static_cast<std::size_t>(stage)];
    }

  private:
    friend class PerfRecorder;

    std::int32_t session_;
    std::int32_t frame_;
    FrameTag *outer_;  ///< the tag this one shadows, or null
    std::array<double, kStageCount> ms_{};
};

/** RAII span: records [construction, destruction) against @p stage. */
class PerfScope
{
  public:
    explicit PerfScope(Stage stage) : t0_(monotonicNow()), stage_(stage) {}

    ~PerfScope()
    {
        PerfRecorder::global().record(stage_, t0_,
                                      msBetween(t0_, monotonicNow()));
    }

    PerfScope(const PerfScope &) = delete;
    PerfScope &operator=(const PerfScope &) = delete;

  private:
    MonoTime t0_;
    Stage stage_;
};

/** Lap-based timer for sequential stage pipelines: lap() attributes
 *  the time since the previous lap (or construction) to @p stage and
 *  restarts the clock — one clock read per boundary, exactly the old
 *  hand-rolled msBetween() chains. */
class StageTimer
{
  public:
    StageTimer() : mark_(monotonicNow()) {}

    void
    lap(Stage stage)
    {
        const MonoTime now = monotonicNow();
        PerfRecorder::global().record(stage, mark_, msBetween(mark_, now));
        mark_ = now;
    }

  private:
    MonoTime mark_;
};

#else // !GCC3D_OBS_ENABLED — no-op stubs, identical signatures.

class PerfRecorder
{
  public:
    static constexpr std::size_t kDefaultRingCapacity = 16384;
    static constexpr std::size_t kHistory = 32;

    explicit PerfRecorder(std::size_t = kDefaultRingCapacity) {}

    static PerfRecorder &global();

    void setEnabled(bool) {}
    bool enabled() const { return false; }
    void record(Stage, MonoTime, double) {}
    void addSample(Stage, double, SampleTag = {}) {}
    PerfSummary summary() const { return {}; }
    std::vector<PerfSample> samples() const { return {}; }
    void reset() {}
    std::size_t ringCapacity() const { return 0; }
};

class FrameTag
{
  public:
    FrameTag(std::int32_t, std::int32_t) {}
    double ms(Stage) const { return 0.0; }
};

class PerfScope
{
  public:
    explicit PerfScope(Stage) {}
};

class StageTimer
{
  public:
    StageTimer() {}  // user-provided: a no-op timer is not "unused"
    void lap(Stage) {}
};

#endif // GCC3D_OBS_ENABLED

} // namespace gcc3d::obs

#endif // GCC3D_OBS_PERF_RECORDER_H
