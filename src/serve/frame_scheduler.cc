#include "serve/frame_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>

#include "obs/fault_hooks.h"
#include "obs/metrics_registry.h"
#include "obs/perf_recorder.h"

namespace gcc3d {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Cold-start cost priors of the degradation tiers, as fractions of
 *  the session's measured Full cost (used until the tier has its own
 *  EWMA sample): warp ~ a per-pixel copy, half-res ~ scale² raster +
 *  full preprocess, coarse LOD ~ a proxy-heavy cut. */
constexpr double kTierCostPrior[4] = {1.0, 0.25, 0.4, 0.5};

} // namespace

std::string
schedulerPolicyName(SchedulerPolicy policy)
{
    switch (policy) {
    case SchedulerPolicy::Fifo:
        return "fifo";
    case SchedulerPolicy::RoundRobin:
        return "rr";
    case SchedulerPolicy::Edf:
        return "edf";
    }
    return "unknown";
}

SchedulerPolicy
schedulerPolicyFromName(const std::string &name)
{
    if (name == "fifo")
        return SchedulerPolicy::Fifo;
    if (name == "rr" || name == "round-robin")
        return SchedulerPolicy::RoundRobin;
    if (name == "edf")
        return SchedulerPolicy::Edf;
    throw std::invalid_argument("unknown scheduler policy: " + name);
}

/** Mutable serving state of one session; mutex_-guarded. */
struct FrameScheduler::SessionState
{
    const Session *session = nullptr;
    double period_ms = 0.0;      ///< 0 = best effort
    double start_ms = 0.0;       ///< open-loop arrival offset
    int next_frame = 0;          ///< cursor: next frame to serve
    int effective_frames = 0;    ///< frames servable (disconnect truncates)
    int disconnect_frame = -1;   ///< chaos: leaves before this frame
    bool in_flight = false;
    std::uint64_t ready_seq = 0; ///< FIFO tiebreak of the head frame
    double ready_ms = 0.0;       ///< when the head frame reached the queue
    std::uint64_t renders_done = 0;  ///< dispatched renders (fairness)
    /** Degradation controller: per-tier EWMA of measured render cost
     *  (Full, Warp, HalfRes, CoarseLod). */
    double tier_ewma[4] = {0.0, 0.0, 0.0, 0.0};
    bool tier_seen[4] = {false, false, false, false};
    DegradeTier last_tier = DegradeTier::Full;  ///< transition counting
    std::vector<FrameRecord> records;

    bool
    exhausted() const
    {
        return next_frame >= effective_frames;
    }

    /** Pacing: frame i releases i periods after the session joins. */
    double
    releaseMs(int frame) const
    {
        return start_ms + period_ms * frame;
    }

    double
    deadlineMs(int frame) const
    {
        return period_ms > 0.0 ? start_ms + period_ms * (frame + 1)
                               : kInf;
    }

    /** When the head frame became admissible (released AND queued). */
    double
    admissibleMs() const
    {
        return std::max(releaseMs(next_frame), ready_ms);
    }

    /** Controller prediction for a tier: its own EWMA, else the Full
     *  EWMA scaled by the tier's cost prior, else 0 (optimistic —
     *  first frames render Full and seed the model). */
    double
    predictedMs(DegradeTier tier) const
    {
        const int t = static_cast<int>(tier);
        if (t < 0 || t >= 4)
            return 0.0;
        if (tier_seen[t])
            return tier_ewma[t];
        if (tier_seen[0])
            return tier_ewma[0] * kTierCostPrior[t];
        return 0.0;
    }
};

ServeReport
FrameScheduler::run(const std::vector<Session> &sessions, ThreadPool &pool)
{
    // Fresh temporal-cache state for this run: fleets are reused
    // across policy runs, and every replay of the trajectory must see
    // the same frame sequence to reproduce the serial checksums.
    for (const Session &s : sessions)
        s.resetTemporal();

    // Pacing and SLO accounting are behavior, not observability:
    // obs::tickNow() stays a real clock read in every build.
    const MonoTime t0 = obs::tickNow();
    auto now_ms = [t0] { return msBetween(t0, obs::tickNow()); };

    // Scheduler-level instrumentation.  The registry refs are cached
    // once per run; the depth profile also feeds the report so tests
    // see it without the registry.
    obs::Gauge &depth_gauge =
        obs::MetricsRegistry::global().gauge("serve.queue_depth");
    obs::Counter &shed_counter = obs::MetricsRegistry::global().counter(
        "serve.sheds." + schedulerPolicyName(options_.policy));
    obs::Counter &admission_counter =
        obs::MetricsRegistry::global().counter("serve.sheds.admission");
    obs::Counter &fairness_counter =
        obs::MetricsRegistry::global().counter("serve.sheds.fairness");
    obs::Counter &degrade_drop_counter =
        obs::MetricsRegistry::global().counter("serve.degrade.drops");
    obs::Counter &degrade_served_counter =
        obs::MetricsRegistry::global().counter("serve.degrade.served");
    obs::Counter &degrade_transition_counter = obs::MetricsRegistry::
        global().counter("serve.degrade.transitions");
    obs::Counter &disconnect_counter =
        obs::MetricsRegistry::global().counter("serve.disconnects");
    obs::Histogram &latency_hist =
        obs::MetricsRegistry::global().histogram("serve.latency_ms");
    obs::Counter &released_counter = obs::MetricsRegistry::global().counter(
        "serve.temporal.released_bytes");
    std::vector<double> depth_samples;  // mutex_-guarded (workers)
    std::int64_t sheds = 0;             // mutex_-guarded (workers)

    // Admission token bucket + fairness totals; mutex_-guarded.
    const AdmissionOptions &adm = options_.admission;
    double tokens = adm.burst;
    double last_refill_ms = 0.0;
    std::uint64_t total_renders = 0;

    std::vector<SessionState> states(sessions.size());
    std::size_t active_sessions = 0;
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        states[i].session = &sessions[i];
        const double p = sessions[i].periodMs();
        states[i].period_ms = (std::isfinite(p) && p > 0.0) ? p : 0.0;
        const double s0 = sessions[i].config().start_ms;
        states[i].start_ms = (std::isfinite(s0) && s0 > 0.0) ? s0 : 0.0;
        states[i].effective_frames = sessions[i].frameCount();
        if (options_.chaos != nullptr) {
            // Deterministic churn: chaos decides, per session, whether
            // and where the client disconnects mid-stream.  Frames
            // past the disconnect are torn down cleanly — never
            // dispatched, never counted as drained.
            const int d = options_.chaos->disconnectFrame(
                static_cast<std::uint64_t>(sessions[i].id()) + 1,
                sessions[i].frameCount());
            if (d >= 0) {
                states[i].disconnect_frame = d;
                states[i].effective_frames = d;
                disconnect_counter.add();
            }
        }
        if (states[i].effective_frames > 0)
            ++active_sessions;
        states[i].ready_seq = seq++;
        states[i].records.reserve(
            static_cast<std::size_t>(states[i].effective_frames));
    }

    int loops = options_.workers <= 0
                    ? pool.workerCount()
                    : std::min(options_.workers, pool.workerCount());
    loops = std::max(loops, 1);

    // Policy choice among admissible sessions; mutex_ held.  Also
    // reports the admissible count — the queue depth this dispatch
    // decision chose from.
    auto pick = [this, &states](double now, int *depth) -> SessionState * {
        SessionState *best = nullptr;
        int admissible = 0;
        for (SessionState &s : states) {
            if (s.exhausted() || s.in_flight ||
                s.releaseMs(s.next_frame) > now)
                continue;
            ++admissible;
            if (best == nullptr) {
                best = &s;
                continue;
            }
            bool wins = false;
            switch (options_.policy) {
            case SchedulerPolicy::Fifo:
                wins = s.admissibleMs() < best->admissibleMs() ||
                       (s.admissibleMs() == best->admissibleMs() &&
                        s.ready_seq < best->ready_seq);
                break;
            case SchedulerPolicy::RoundRobin:
                wins = s.next_frame < best->next_frame ||
                       (s.next_frame == best->next_frame &&
                        s.ready_seq < best->ready_seq);
                break;
            case SchedulerPolicy::Edf: {
                double d = s.deadlineMs(s.next_frame);
                double bd = best->deadlineMs(best->next_frame);
                wins = d < bd ||
                       (d == bd && s.ready_seq < best->ready_seq);
                break;
            }
            }
            if (wins)
                best = &s;
        }
        if (depth != nullptr)
            *depth = admissible;
        return best;
    };

    auto worker = [this, &states, &seq, &pick, &now_ms, &depth_samples,
                   &sheds, &depth_gauge, &shed_counter, &latency_hist,
                   &adm, &tokens, &last_refill_ms, &total_renders,
                   &active_sessions, &admission_counter, &fairness_counter,
                   &degrade_drop_counter, &degrade_served_counter,
                   &degrade_transition_counter, &released_counter] {
        bool done = false;
        while (!done) {
            UniqueLock lock(mutex_);
            SessionState *picked = nullptr;
            int depth = 0;
            while (true) {
                if (stop_.load(std::memory_order_acquire)) {
                    done = true;
                    break;
                }
                double now = now_ms();
                picked = pick(now, &depth);
                if (picked != nullptr)
                    break;

                // Nothing admissible: either the fleet is finished,
                // or we wait for a pacing release / an in-flight
                // completion to free a session's next frame.
                bool all_exhausted = true;
                double next_release = kInf;
                for (SessionState &s : states) {
                    if (s.exhausted())
                        continue;
                    all_exhausted = false;
                    if (!s.in_flight)
                        next_release = std::min(
                            next_release, s.releaseMs(s.next_frame));
                }
                if (all_exhausted) {
                    done = true;
                    break;
                }
                if (std::isinf(next_release))
                    cv_.wait(lock);
                else
                    cv_.waitForMs(lock, next_release - now);
            }
            if (picked == nullptr)
                continue;  // done: fall out of the outer loop

            const int frame = picked->next_frame;
            const bool last_frame = frame + 1 == picked->effective_frames;
            const double release = picked->releaseMs(frame);
            const double deadline = picked->deadlineMs(frame);
            const double admissible = picked->admissibleMs();
            const double dispatch = now_ms();
            const obs::SampleTag tag{picked->session->id(), frame, 0};

            // Every dispatch decision samples the depth it chose from.
            depth_samples.push_back(static_cast<double>(depth));
            depth_gauge.set(static_cast<double>(depth));

            FrameRecord rec;
            rec.frame = frame;
            rec.queue_wait_ms = std::max(0.0, dispatch - admissible);
            obs::PerfRecorder::global().addSample(obs::Stage::Queue,
                                                  rec.queue_wait_ms, tag);

            // Shed decision ladder.  Gates are ordered cheapest-first:
            // already-late (drop_late), then admission control, then
            // the degradation controller's last rung.  Best-effort
            // frames (no deadline) are never shed or degraded.
            ShedReason shed = ShedReason::None;
            DegradeTier tier = DegradeTier::Full;
            const bool has_deadline = picked->period_ms > 0.0;
            const double slack = deadline - dispatch;

            if (options_.drop_late && dispatch > deadline)
                shed = ShedReason::Late;

            if (shed == ShedReason::None && adm.enabled && has_deadline) {
                // Token bucket: refill by elapsed time, one token per
                // dispatched render.
                if (adm.rate_hz > 0.0) {
                    tokens = std::min(
                        adm.burst,
                        tokens + (dispatch - last_refill_ms) *
                                     adm.rate_hz / 1000.0);
                    last_refill_ms = dispatch;
                }
                const bool scarce =
                    (adm.rate_hz > 0.0 && tokens < 1.0) ||
                    (adm.max_queue_depth > 0 &&
                     depth > adm.max_queue_depth);
                if (scarce && adm.fair_share > 0.0 &&
                    active_sessions > 0) {
                    // Under scarcity a hog yields before it can take
                    // the last token from a starved session.
                    const double avg =
                        static_cast<double>(total_renders) /
                        static_cast<double>(active_sessions);
                    if (static_cast<double>(picked->renders_done) >
                        adm.fair_share * (avg + 1.0))
                        shed = ShedReason::Fairness;
                }
                if (shed == ShedReason::None && adm.rate_hz > 0.0) {
                    if (tokens >= 1.0)
                        tokens -= 1.0;
                    else
                        shed = ShedReason::Admission;
                }
                // Predictive shed only when no ladder can soften the
                // frame: a hopeless Full render is better degraded
                // than dropped.
                if (shed == ShedReason::None &&
                    !options_.degrade.enabled &&
                    slack < picked->predictedMs(DegradeTier::Full) *
                                adm.slack_factor)
                    shed = ShedReason::Admission;
            }

            if (shed == ShedReason::None && options_.degrade.enabled &&
                has_deadline && picked->session->config().degrade) {
                // First fit down the ladder; nothing fits -> last rung.
                tier = DegradeTier::Drop;
                shed = ShedReason::Degrade;
                for (int t = 0; t < 4; ++t) {
                    const auto cand = static_cast<DegradeTier>(t);
                    if (cand != DegradeTier::Full &&
                        !picked->session->tierAvailable(cand))
                        continue;
                    if (picked->predictedMs(cand) <=
                        slack * options_.degrade.safety) {
                        tier = cand;
                        shed = ShedReason::None;
                        break;
                    }
                }
            }

            if (shed != ShedReason::None) {
                // Overload shedding: don't render, record why.
                rec.rendered = false;
                rec.deadline_missed = true;
                rec.tier = DegradeTier::Drop;
                rec.shed_reason = shed;
                picked->records.push_back(rec);
                picked->next_frame++;
                picked->ready_ms = dispatch;
                picked->ready_seq = seq++;
                // A shed that exhausts the stream (its last frame, or
                // the last before a disconnect) frees its frame state.
                if (picked->exhausted())
                    released_counter.add(static_cast<std::int64_t>(
                        picked->session->releaseFrameState()));
                ++sheds;
                shed_counter.add();
                switch (shed) {
                case ShedReason::Admission:
                    admission_counter.add();
                    break;
                case ShedReason::Fairness:
                    fairness_counter.add();
                    break;
                case ShedReason::Degrade:
                    degrade_drop_counter.add();
                    break;
                default:
                    break;
                }
                cv_.notifyAll();
                continue;
            }

            picked->in_flight = true;
            picked->renders_done++;
            total_renders++;
            lock.unlock();

            if (options_.chaos != nullptr) {
                // Deterministic worker stall, keyed on (session, frame)
                // so a fixed seed stalls the same renders every run.
                const obs::FaultAction stall = options_.chaos->at(
                    obs::FaultSite::WorkerStall,
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         picked->session->id()))
                     << 32) |
                        static_cast<std::uint32_t>(frame));
                if (stall.inject && stall.magnitude > 0.0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(
                            stall.magnitude));
            }

            double checksum = 0.0;
            bool rendered = true;
            DegradeTier served = DegradeTier::Full;
            try {
                checksum = picked->session->renderFrameDegraded(
                    frame, tier, &rec.cost, &served);
            } catch (const std::exception &) {
                rendered = false;  // never wedge the fleet on one frame
            }
            // Timestamp before re-acquiring the contended mutex, so
            // lock-wait time is never billed as render time and can't
            // flip an on-time frame into a recorded miss.
            const double complete = now_ms();
            // The stream's last frame: free its frame state before the
            // mutex, unbilled (this session has no other frame in
            // flight).
            if (last_frame)
                released_counter.add(static_cast<std::int64_t>(
                    picked->session->releaseFrameState()));

            lock.lock();
            rec.rendered = rendered;
            rec.checksum = checksum;
            rec.tier = served;
            rec.render_ms = complete - dispatch;
            if (rendered) {
                // Feed the degradation controller: EWMA of the tier
                // actually served (best-effort fallbacks bill Full).
                const int t = static_cast<int>(served);
                if (t >= 0 && t < 4) {
                    picked->tier_ewma[t] =
                        picked->tier_seen[t]
                            ? 0.7 * picked->tier_ewma[t] +
                                  0.3 * rec.render_ms
                            : rec.render_ms;
                    picked->tier_seen[t] = true;
                }
                if (served != DegradeTier::Full)
                    degrade_served_counter.add();
                if (served != picked->last_tier) {
                    degrade_transition_counter.add();
                    picked->last_tier = served;
                }
            }
            // Best-effort sessions measure latency from queueing; a
            // paced frame measures from its release (the client asked
            // for it then).
            rec.latency_ms =
                complete - (picked->period_ms > 0.0 ? release : admissible);
            rec.deadline_missed = complete > deadline;
            obs::PerfRecorder::global().addSample(obs::Stage::Frame,
                                                  rec.render_ms, tag);
            latency_hist.record(rec.latency_ms);
            picked->records.push_back(rec);
            picked->next_frame++;
            picked->in_flight = false;
            picked->ready_ms = complete;
            picked->ready_seq = seq++;
            cv_.notifyAll();
        }
    };

    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<std::size_t>(loops));
    for (int i = 0; i < loops; ++i)
        futures.push_back(pool.submit(worker));
    for (std::future<void> &f : futures)
        f.get();

    ServeReport report;
    report.policy = schedulerPolicyName(options_.policy);
    report.workers = loops;
    report.wall_ms = now_ms();
    report.queue_depth = aggregate(std::move(depth_samples));
    report.sheds = sheds;
    double retained_bytes = 0.0;
    for (const SessionState &s : states) {
        if (!s.exhausted())
            report.drained = true;
        retained_bytes += static_cast<double>(s.session->retainedBytes());
    }
    obs::MetricsRegistry::global()
        .gauge("serve.temporal.retained_bytes")
        .set(retained_bytes);
    report.sessions.reserve(states.size());
    for (std::size_t i = 0; i < states.size(); ++i)
        report.sessions.push_back(summarizeSession(
            sessions[i], std::move(states[i].records), report.wall_ms,
            states[i].disconnect_frame));
    return report;
}

void
FrameScheduler::requestStop()
{
    stop_.store(true, std::memory_order_release);
    // Lock so no worker can slip between its stop check and its wait;
    // the notify then reaches every sleeping worker.
    MutexLock lock(mutex_);
    cv_.notifyAll();
}

} // namespace gcc3d
