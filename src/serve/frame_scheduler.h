/**
 * @file
 * SLO-aware multi-session frame scheduling over the ThreadPool.
 *
 * The scheduler serves a fleet of Sessions concurrently: each session
 * streams its trajectory frames in order with at most one frame in
 * flight (a client consumes frames sequentially), and any scheduler
 * worker may render any session's admissible next frame.  Admission
 * is paced by the session's FPS target — frame i of a session with
 * target f is released i/f seconds after serving starts and carries
 * deadline (i+1)/f — while best-effort sessions (target 0) are always
 * released and never miss.
 *
 * Pluggable policies decide which admissible session a free worker
 * serves next:
 *
 *  - Fifo        the frame that has been admissible longest (global
 *                arrival order; long sessions can starve late ones),
 *  - RoundRobin  the session with the fewest frames served (fair
 *                share),
 *  - Edf         earliest deadline first (classic SLO scheduling;
 *                best-effort sessions yield to deadline-bearing ones).
 *
 * Every frame records queue wait, render latency, end-to-end latency
 * and its deadline outcome; under overload, drop_late sheds frames
 * whose deadline has already passed at dispatch instead of rendering
 * them.  Scheduling never changes pixels: frames are pure functions
 * of (scene, camera, config), which the serving benchmark
 * cross-checks against serial rendering by checksum.
 */

#ifndef GCC3D_SERVE_FRAME_SCHEDULER_H
#define GCC3D_SERVE_FRAME_SCHEDULER_H

#include <atomic>
#include <string>
#include <vector>

#include "runtime/mutex.h"
#include "runtime/thread_annotations.h"
#include "runtime/thread_pool.h"
#include "serve/chaos.h"
#include "serve/serve_stats.h"
#include "serve/session.h"

namespace gcc3d {

/** Which admissible frame a free worker serves next. */
enum class SchedulerPolicy
{
    Fifo,       ///< longest-admissible first
    RoundRobin, ///< fewest-served session first
    Edf,        ///< earliest deadline first
};

/** Lower-case policy name ("fifo", "rr", "edf"). */
std::string schedulerPolicyName(SchedulerPolicy policy);

/** Parse a policy name ("fifo", "rr", "round-robin", "edf"); throws. */
SchedulerPolicy schedulerPolicyFromName(const std::string &name);

/**
 * Admission control, layered on (and strictly earlier than) the
 * --drop-late shed: where drop_late reacts to a deadline that has
 * already passed, admission control sheds frames that are *predicted*
 * hopeless before they burn a worker, caps the aggregate render rate
 * with a token bucket, and keeps one hot session from starving the
 * fleet when resources are scarce.  All gates apply only to
 * deadline-bearing frames; best-effort sessions are never shed.
 */
struct AdmissionOptions
{
    bool enabled = false;

    /** Global render-token refill rate (tokens/s); 0 disables the
     *  bucket.  Each dispatched render consumes one token; a frame
     *  arriving at an empty bucket is shed (ShedReason::Admission). */
    double rate_hz = 0.0;

    /** Token bucket capacity. */
    double burst = 4.0;

    /** Queue depth above which resources count as scarce for the
     *  fairness gate; 0 disables the depth trigger. */
    int max_queue_depth = 0;

    /** Predictive shed: without the degradation ladder, a frame whose
     *  remaining slack is below slack_factor × the session's
     *  predicted Full-tier cost is shed at dispatch. */
    double slack_factor = 1.0;

    /** Fairness cap: under scarcity (empty bucket or deep queue), a
     *  session holding more than fair_share × (fleet average + 1)
     *  dispatched renders yields its slot (ShedReason::Fairness).
     *  0 disables. */
    double fair_share = 0.0;
};

/**
 * Feedback controller of the graceful-degradation ladder: per session
 * and tier, an EWMA of measured render cost predicts whether a tier
 * fits the frame's remaining deadline slack; the scheduler serves the
 * highest-fidelity tier that fits and falls down the ladder —
 * Full → Warp → HalfRes → CoarseLod → Drop — as slack shrinks.
 * Recovery is automatic: when load lightens, slack grows and Full
 * wins again.  Only sessions with SessionConfig::degrade participate.
 */
struct DegradeOptions
{
    bool enabled = false;

    /** A tier fits when predicted_ms <= slack × safety. */
    double safety = 0.9;
};

/** Execution knobs of a serving run. */
struct SchedulerOptions
{
    SchedulerPolicy policy = SchedulerPolicy::Fifo;

    /**
     * Concurrent render workers; <= 0 uses every pool worker.
     * Clamped to the pool's worker count.
     */
    int workers = 0;

    /**
     * Overload shedding: drop (instead of render) frames whose
     * deadline has already passed when they are dispatched.  Off by
     * default so benchmark runs render every frame.
     */
    bool drop_late = false;

    AdmissionOptions admission;
    DegradeOptions degrade;

    /**
     * Fault-injection engine consulted for worker stalls and session
     * disconnects (null = no injection; scene/LOD-level faults flow
     * through obs/fault_hooks.h instead).  The caller owns the engine
     * and keeps it alive for the run.
     */
    serve::ChaosEngine *chaos = nullptr;
};

/**
 * Work-queue scheduler executing a session fleet on a ThreadPool.
 *
 * One scheduler instance performs one run() (stop requests are
 * sticky); construct a fresh scheduler per serving run.
 */
class FrameScheduler
{
  public:
    explicit FrameScheduler(SchedulerOptions options = {})
        : options_(options) {}

    FrameScheduler(const FrameScheduler &) = delete;
    FrameScheduler &operator=(const FrameScheduler &) = delete;

    const SchedulerOptions &options() const { return options_; }

    /**
     * Serve every frame of every session to completion (or until
     * requestStop()), blocking the caller.  Worker loops run as pool
     * tasks, so the pool may be shared — but must not be saturated
     * with tasks that wait on this scheduler.  A session's temporal
     * frame state is released when its stream ends; the freed bytes
     * add to the serve.temporal.released_bytes counter, and the
     * serve.temporal.retained_bytes gauge reads what the fleet still
     * holds when run() returns.
     */
    ServeReport run(const std::vector<Session> &sessions,
                    ThreadPool &pool);

    /**
     * Graceful drain: stop admitting new frames.  Frames already in
     * flight complete and are recorded; run() then returns with every
     * completed frame accounted, and ServeReport::drained = true iff
     * the stop left frames unserved (a fleet that finished first
     * reports drained = false).  Safe to call from any thread, any
     * number of times.
     */
    void requestStop();

    bool stopRequested() const
    {
        return stop_.load(std::memory_order_acquire);
    }

  private:
    struct SessionState;

    SchedulerOptions options_;
    std::atomic<bool> stop_{false};

    /**
     * Guards the per-run SessionState table (a run()-local vector:
     * every field of every SessionState, and the pick()/record logic
     * over them, executes under mutex_ — locals cannot carry
     * GUARDED_BY, so the contract is enforced by construction: the
     * worker lambda only touches states inside its UniqueLock scope).
     * Also the hand-off that makes a temporal session's mutable cache
     * safe: releasing mutex_ after in_flight is set and re-acquiring
     * it on completion orders consecutive frames of one session.
     *
     * gsc-lint: allow(mutex-guard) — the guarded data is run()-local
     * (see above), so no *member* can carry GUARDED_BY(mutex_).
     */
    Mutex mutex_;
    CondVar cv_;
};

} // namespace gcc3d

#endif // GCC3D_SERVE_FRAME_SCHEDULER_H
