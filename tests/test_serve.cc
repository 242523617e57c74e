/**
 * @file
 * Tests of the multi-session serving subsystem: scene-registry
 * deduplication, scheduling-vs-serial checksum equivalence across
 * policies and worker counts, EDF deadline accounting and overload
 * shedding, and graceful drain on shutdown.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/obs_config.h"
#include "serve/fleet.h"
#include "serve/frame_scheduler.h"
#include "serve/load_gen.h"
#include "serve/slo_attribution.h"
#include "test_util.h"

namespace gcc3d {
namespace {

/** A small mixed-renderer fleet over the two tiny test scenes. */
FleetSpec
tinyFleet(int sessions = 6, int frames = 3)
{
    FleetSpec spec;
    spec.sessions = sessions;
    spec.frames = frames;
    spec.scenes = {test::tinySpec(), test::tinyRoomSpec()};
    spec.renderers = {SessionRenderer::Tile, SessionRenderer::GaussianWise};
    spec.gw.subview_size = 64;
    return spec;
}

// ---- Names ----

TEST(Serve, PolicyAndRendererNamesRoundTrip)
{
    for (SchedulerPolicy p : {SchedulerPolicy::Fifo,
                              SchedulerPolicy::RoundRobin,
                              SchedulerPolicy::Edf})
        EXPECT_EQ(schedulerPolicyFromName(schedulerPolicyName(p)), p);
    EXPECT_EQ(schedulerPolicyFromName("round-robin"),
              SchedulerPolicy::RoundRobin);
    EXPECT_THROW(schedulerPolicyFromName("lifo"), std::invalid_argument);

    for (SessionRenderer r :
         {SessionRenderer::Tile, SessionRenderer::GaussianWise})
        EXPECT_EQ(sessionRendererFromName(sessionRendererName(r)), r);
    EXPECT_EQ(sessionRendererFromName("gaussian-wise"),
              SessionRenderer::GaussianWise);
    EXPECT_THROW(sessionRendererFromName("raster"),
                 std::invalid_argument);
}

// ---- SceneRegistry ----

TEST(SceneRegistry, DeduplicatesSharedScenes)
{
    SceneRegistry registry;
    SceneSpec tiny = test::tinySpec();
    SceneHandle a = registry.acquire(tiny, 1.0f, 4);
    SceneHandle b = registry.acquire(tiny, 1.0f, 4);
    // Identical key: the very same immutable objects are shared.
    EXPECT_EQ(a.cloud.get(), b.cloud.get());
    EXPECT_EQ(a.trajectory.get(), b.trajectory.get());
    EXPECT_EQ(registry.cloudCount(), 1u);
    EXPECT_EQ(registry.trajectoryCount(), 1u);

    // Same cloud viewed through a different trajectory length still
    // shares the cloud.
    SceneHandle c = registry.acquire(tiny, 1.0f, 8);
    EXPECT_EQ(c.cloud.get(), a.cloud.get());
    EXPECT_NE(c.trajectory.get(), a.trajectory.get());
    EXPECT_EQ(registry.cloudCount(), 1u);
    EXPECT_EQ(registry.trajectoryCount(), 2u);

    // A different scene builds its own state.
    SceneHandle d = registry.acquire(test::tinyRoomSpec(), 1.0f, 4);
    EXPECT_NE(d.cloud.get(), a.cloud.get());
    EXPECT_EQ(registry.cloudCount(), 2u);

    // A spec differing only in a generation field is a different
    // cloud, and one differing only in a camera field shares the
    // cloud but not the trajectory.
    SceneSpec bigger = tiny;
    bigger.extent *= 2.0f;
    SceneHandle e = registry.acquire(bigger, 1.0f, 4);
    EXPECT_NE(e.cloud.get(), a.cloud.get());
    EXPECT_EQ(registry.cloudCount(), 3u);
    SceneSpec zoomed = tiny;
    zoomed.camera_distance *= 1.5f;
    SceneHandle f = registry.acquire(zoomed, 1.0f, 4);
    EXPECT_EQ(f.cloud.get(), a.cloud.get());
    EXPECT_NE(f.trajectory.get(), a.trajectory.get());

    EXPECT_THROW(registry.acquire(tiny, -1.0f, 4),
                 std::invalid_argument);
    EXPECT_THROW(registry.acquire(tiny, 1.0f, 0),
                 std::invalid_argument);
}

TEST(Serve, FleetCyclesScenesAndRenderers)
{
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(tinyFleet(5, 2), registry);
    ASSERT_EQ(fleet.size(), 5u);
    EXPECT_EQ(registry.cloudCount(), 2u);  // two scenes, deduplicated
    EXPECT_EQ(fleet[0].config().spec.name, "tiny");
    EXPECT_EQ(fleet[1].config().spec.name, "tiny-room");
    EXPECT_EQ(fleet[0].config().renderer, SessionRenderer::Tile);
    EXPECT_EQ(fleet[1].config().renderer,
              SessionRenderer::GaussianWise);
    EXPECT_EQ(fleet[2].config().renderer, SessionRenderer::Tile);
    // Sessions viewing the same scene share the same cloud object.
    EXPECT_EQ(fleet[0].scene().cloud.get(), fleet[2].scene().cloud.get());
}

TEST(Serve, SessionValidatesItsInputs)
{
    SceneRegistry registry;
    SceneSpec tiny = test::tinySpec();
    SceneHandle handle = registry.acquire(tiny, 1.0f, 2);

    SessionConfig cfg;
    cfg.spec = tiny;
    cfg.frames = 4;  // trajectory only has 2
    EXPECT_THROW(Session(cfg, handle), std::invalid_argument);

    cfg.frames = 2;
    cfg.fps_target = -1.0;
    EXPECT_THROW(Session(cfg, handle), std::invalid_argument);

    cfg.fps_target = 0.0;
    Session ok(cfg, handle);
    EXPECT_THROW(ok.renderFrame(2), std::out_of_range);
    EXPECT_GT(ok.renderFrame(0), 0.0);
}

// ---- Scheduling never changes pixels ----

TEST(FrameScheduler, SchedulingMatchesSerialChecksumsExactly)
{
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(tinyFleet(), registry);
    SerialBaseline base = renderSerial(fleet);
    ASSERT_EQ(base.checksums.size(), fleet.size());
    for (double sum : base.checksums)
        EXPECT_GT(sum, 0.0);

    ThreadPool pool(4);
    for (SchedulerPolicy policy : {SchedulerPolicy::Fifo,
                                   SchedulerPolicy::RoundRobin,
                                   SchedulerPolicy::Edf}) {
        SchedulerOptions options;
        options.policy = policy;
        FrameScheduler scheduler(options);
        ServeReport report = scheduler.run(fleet, pool);

        EXPECT_FALSE(report.drained);
        EXPECT_EQ(report.framesTotal(), 6 * 3);
        EXPECT_EQ(report.framesRendered(), 6 * 3);
        EXPECT_EQ(report.framesDropped(), 0);
        EXPECT_EQ(report.deadlineMisses(), 0);  // best effort: no SLO
        ASSERT_EQ(report.sessions.size(), fleet.size());
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            const SessionStats &s = report.sessions[i];
            EXPECT_EQ(s.checksum, base.checksums[i])
                << "session " << i << " diverged under policy "
                << report.policy;
            // Frames are served strictly in order, all rendered.
            ASSERT_EQ(s.frames.size(), 3u);
            for (int f = 0; f < 3; ++f) {
                EXPECT_EQ(s.frames[static_cast<std::size_t>(f)].frame, f);
                EXPECT_TRUE(
                    s.frames[static_cast<std::size_t>(f)].rendered);
            }
            EXPECT_GT(s.render_ms.mean, 0.0);
            EXPECT_GE(s.latency_ms.min, 0.0);
        }
    }
}

TEST(FrameScheduler, WorkerCountNeverChangesChecksums)
{
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(tinyFleet(4, 2), registry);
    SerialBaseline base = renderSerial(fleet);

    for (int workers : {1, 2, 8}) {
        ThreadPool pool(workers);
        FrameScheduler scheduler;
        ServeReport report = scheduler.run(fleet, pool);
        EXPECT_LE(report.workers, workers);
        ASSERT_EQ(report.sessions.size(), fleet.size());
        for (std::size_t i = 0; i < fleet.size(); ++i)
            EXPECT_EQ(report.sessions[i].checksum, base.checksums[i])
                << "session " << i << " with " << workers << " workers";
    }
}

TEST(FrameScheduler, PacedEdfMatchesSerialChecksums)
{
    // Pacing moves release times and EDF reorders dispatch, but with
    // no shedding every frame still renders at Full: a paced EDF
    // fleet is bit-identical to serial rendering.
    FleetSpec spec = tinyFleet(3, 2);
    spec.fps_target = 200.0;
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(spec, registry);
    SerialBaseline base = renderSerial(fleet);

    SchedulerOptions options;
    options.policy = SchedulerPolicy::Edf;
    ThreadPool pool(2);
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);

    EXPECT_EQ(report.framesRendered(), 3 * 2);
    EXPECT_EQ(report.framesDropped(), 0);
    ASSERT_EQ(report.sessions.size(), fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i)
        EXPECT_EQ(report.sessions[i].checksum, base.checksums[i])
            << "session " << i;
}

// ---- Temporal frame state ends with the stream ----

TEST(FrameScheduler, ReleasesEachSessionsFrameStateAtStreamEnd)
{
    // Best-effort tile sessions, each with a temporal cache that also
    // keeps the warp source (degrade sets keep_exact).
    FleetSpec spec = tinyFleet(4, 4);
    spec.renderers = {SessionRenderer::Tile};
    spec.temporal = 1;
    spec.degrade = true;
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(spec, registry);

    // A replay that never releases: its counters are what a report
    // must still read after the frame state is gone.
    std::vector<TemporalCounters> unreleased;
    for (const Session &s : fleet) {
        ASSERT_NE(s.temporalCache(), nullptr);
        s.resetTemporal();
        for (int f = 0; f < s.frameCount(); ++f)
            s.renderFrame(f);
        EXPECT_GT(s.retainedBytes(), 0u) << "session " << s.id();
        unreleased.push_back(s.temporalCache()->counters());
    }
    // renderSerial frees each stream after its replay.
    const SerialBaseline base = renderSerial(fleet);
    for (const Session &s : fleet)
        EXPECT_EQ(s.retainedBytes(), 0u) << "serial, session " << s.id();

    ThreadPool pool(2);
    obs::Counter &released = obs::MetricsRegistry::global().counter(
        "serve.temporal.released_bytes");
    // A second run over the same fleet starts from released caches
    // and must reproduce the first.
    for (int run = 0; run < 2; ++run) {
        const std::int64_t released_before = released.value();
        FrameScheduler scheduler;
        const ServeReport report = scheduler.run(fleet, pool);
        ASSERT_EQ(report.sessions.size(), fleet.size());
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            EXPECT_EQ(fleet[i].retainedBytes(), 0u)
                << "session " << i << " run " << run;
            EXPECT_EQ(report.sessions[i].checksum, base.checksums[i])
                << "session " << i << " run " << run;
            EXPECT_TRUE(report.sessions[i].temporal_counters ==
                        unreleased[i])
                << "session " << i << " run " << run;
        }
#if GCC3D_OBS_ENABLED
        EXPECT_GT(released.value(), released_before);
        EXPECT_EQ(obs::MetricsRegistry::global()
                      .gauge("serve.temporal.retained_bytes")
                      .last(),
                  0.0);
#else
        (void)released_before;
#endif
    }
}

// ---- SLO accounting ----

TEST(FrameScheduler, EdfAccountsDeadlineMissesUnderOverload)
{
    // A per-session target of 1e6 FPS gives microsecond deadlines no
    // real render meets: every rendered frame must be counted missed.
    FleetSpec spec = tinyFleet(4, 2);
    spec.fps_target = 1e6;
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(spec, registry);

    ThreadPool pool(2);
    SchedulerOptions options;
    options.policy = SchedulerPolicy::Edf;
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);

    EXPECT_EQ(report.framesRendered(), 4 * 2);
    EXPECT_EQ(report.deadlineMisses(), 4 * 2);
    EXPECT_DOUBLE_EQ(report.missRate(), 1.0);
    for (const SessionStats &s : report.sessions) {
        EXPECT_EQ(s.deadline_misses, s.frames_rendered);
        for (const FrameRecord &f : s.frames)
            EXPECT_TRUE(f.deadline_missed);
    }
}

TEST(FrameScheduler, DropLateShedsHopelesslyLateFrames)
{
    FleetSpec spec = tinyFleet(3, 3);
    spec.fps_target = 1e6;  // deadlines pass before dispatch
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(spec, registry);

    ThreadPool pool(2);
    SchedulerOptions options;
    options.policy = SchedulerPolicy::Edf;
    options.drop_late = true;
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);

    EXPECT_EQ(report.framesDropped(), 3 * 3);
    EXPECT_EQ(report.framesRendered(), 0);
    EXPECT_DOUBLE_EQ(report.fleetFps(), 0.0);
    // Dropped frames are SLO violations: shedding everything must
    // read as a 100% miss rate, not as a clean SLO.
    EXPECT_DOUBLE_EQ(report.missRate(), 1.0);
    for (const SessionStats &s : report.sessions) {
        EXPECT_EQ(s.frames_dropped, s.frames_total);
        EXPECT_DOUBLE_EQ(s.checksum, 0.0);  // nothing was rendered
        // The cursor still advanced through every frame in order.
        ASSERT_EQ(s.frames.size(), 3u);
        for (int f = 0; f < 3; ++f)
            EXPECT_EQ(s.frames[static_cast<std::size_t>(f)].frame, f);
    }
}

TEST(FrameScheduler, OverloadExposesQueueDepthAndShedCounters)
{
    FleetSpec spec = tinyFleet(4, 3);
    spec.fps_target = 1e6;  // deadlines pass before dispatch
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(spec, registry);

    ThreadPool pool(2);
    SchedulerOptions options;
    options.policy = SchedulerPolicy::Edf;
    options.drop_late = true;
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);

    // Every frame was shed, and every shed was counted.
    EXPECT_EQ(report.framesDropped(), 4 * 3);
    EXPECT_EQ(report.sheds, 4 * 3);
    // One depth sample per dispatch decision; the overloaded start
    // offers several admissible sessions to choose among.
    EXPECT_EQ(report.queue_depth.count,
              static_cast<std::size_t>(4 * 3));
    EXPECT_GE(report.queue_depth.max, 2.0);
    // A dispatch decision implies at least one admissible session.
    EXPECT_GE(report.queue_depth.min, 1.0);

    // Dropped frames never rendered: pure queueing, fully named.
    MissAttribution attribution = report.missAttribution();
    EXPECT_EQ(attribution.total(), 4 * 3);
    EXPECT_EQ(attribution.counts[static_cast<std::size_t>(
                  MissComponent::Queue)],
              attribution.total());
    EXPECT_DOUBLE_EQ(attribution.namedFraction(), 1.0);
}

TEST(FrameScheduler, MissAttributionNamesOverloadMisses)
{
    // Non-drop EDF overload: every frame renders and misses its
    // microsecond deadline, so every miss must be charged to a
    // measured cost component.
    FleetSpec spec = tinyFleet(4, 2);
    spec.fps_target = 1e6;
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(spec, registry);

    ThreadPool pool(2);
    SchedulerOptions options;
    options.policy = SchedulerPolicy::Edf;
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);

    MissAttribution fleet_attribution = report.missAttribution();
    EXPECT_EQ(fleet_attribution.total(), 4 * 2);
#if GCC3D_OBS_ENABLED
    // The acceptance bar: >= 90% of overload misses carry a real
    // component name.  (With observability compiled out the stage
    // costs read zero and classification may fall back to queue wait
    // or Unknown, so the bar only binds in instrumented builds.)
    EXPECT_GE(fleet_attribution.namedFraction(), 0.9);
#endif

    // Per-session attributions roll up to the fleet total.
    std::int64_t session_total = 0;
    for (const SessionStats &s : report.sessions)
        session_total += s.miss_attribution.total();
    EXPECT_EQ(session_total, fleet_attribution.total());
}

// ---- Graceful drain ----

TEST(FrameScheduler, StopBeforeRunServesNothingButStaysConsistent)
{
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(tinyFleet(3, 2), registry);
    ThreadPool pool(2);
    FrameScheduler scheduler;
    scheduler.requestStop();
    ServeReport report = scheduler.run(fleet, pool);
    EXPECT_TRUE(report.drained);
    EXPECT_EQ(report.framesRendered(), 0);
    EXPECT_EQ(report.framesDropped(), 0);
    ASSERT_EQ(report.sessions.size(), 3u);
    for (const SessionStats &s : report.sessions)
        EXPECT_TRUE(s.frames.empty());
}

TEST(FrameScheduler, GracefulDrainCompletesInFlightFrames)
{
    // A long fleet stopped mid-run: whatever was completed must be a
    // consistent, in-order prefix with checksums matching serial.
    constexpr int kSessions = 4;
    constexpr int kFrames = 200;
    SceneRegistry registry;
    std::vector<Session> fleet =
        buildFleet(tinyFleet(kSessions, kFrames), registry);
    std::vector<std::vector<double>> serial_frames(fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i)
        for (int f = 0; f < 4; ++f)  // only the prefix we may check
            serial_frames[i].push_back(fleet[i].renderFrame(f));

    ThreadPool pool(2);
    FrameScheduler scheduler;
    std::thread stopper([&scheduler] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        scheduler.requestStop();
    });
    ServeReport report = scheduler.run(fleet, pool);
    stopper.join();

    int served = 0;
    for (std::size_t i = 0; i < report.sessions.size(); ++i) {
        const SessionStats &s = report.sessions[i];
        served += s.frames_rendered;
        // In-order prefix, every record fully accounted.
        ASSERT_EQ(s.frames.size(),
                  static_cast<std::size_t>(s.frames_rendered +
                                           s.frames_dropped));
        for (std::size_t f = 0; f < s.frames.size(); ++f) {
            EXPECT_EQ(s.frames[f].frame, static_cast<int>(f));
            EXPECT_TRUE(s.frames[f].rendered);
            if (f < serial_frames[i].size()) {
                EXPECT_EQ(s.frames[f].checksum, serial_frames[i][f]);
            }
        }
    }
    // drained is set exactly when the stop landed before the fleet
    // finished — the invariant that holds on any host speed (a very
    // fast machine may legally complete all frames inside the 100 ms
    // stop delay; the stop-before-run test covers guaranteed drain).
    EXPECT_EQ(report.drained, served < kSessions * kFrames);
}

TEST(FrameScheduler, EmptyFleetReturnsEmptyReport)
{
    std::vector<Session> fleet;
    ThreadPool pool(2);
    FrameScheduler scheduler;
    ServeReport report = scheduler.run(fleet, pool);
    EXPECT_EQ(report.framesTotal(), 0);
    EXPECT_FALSE(report.drained);
    EXPECT_DOUBLE_EQ(report.missRate(), 0.0);
}

// ---- degenerate configs ----

TEST(Serve, FleetSpecValidationRejectsDegenerateConfigs)
{
    EXPECT_NO_THROW(validateFleetSpec(tinyFleet()));

    auto rejects = [](void (*mutate)(FleetSpec &)) {
        FleetSpec bad = tinyFleet();
        mutate(bad);
        EXPECT_THROW(validateFleetSpec(bad), std::invalid_argument);
    };
    rejects([](FleetSpec &s) { s.sessions = 0; });
    rejects([](FleetSpec &s) { s.frames = 0; });
    rejects([](FleetSpec &s) { s.scenes.clear(); });
    rejects([](FleetSpec &s) { s.renderers.clear(); });
    rejects([](FleetSpec &s) { s.fps_target = -1.0; });
    rejects([](FleetSpec &s) {
        s.fps_target = std::numeric_limits<double>::quiet_NaN();
    });
    rejects([](FleetSpec &s) {
        s.fps_target = std::numeric_limits<double>::infinity();
    });
    rejects([](FleetSpec &s) { s.scale = 0.0f; });
    rejects([](FleetSpec &s) { s.scale = 1.5f; });
    rejects([](FleetSpec &s) {
        s.degrade = true;
        s.degrade_render_scale = 0.0f;
    });
    rejects([](FleetSpec &s) {
        s.degrade = true;
        s.degrade_render_scale = 1.0f;  // no cheaper than Full
    });
    rejects([](FleetSpec &s) {
        s.degrade = true;
        s.degrade_tau_factor = 0.5f;  // would *refine* the cut
    });

    // buildFleet validates before any scene work.
    SceneRegistry registry;
    FleetSpec bad = tinyFleet();
    bad.fps_target = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(buildFleet(bad, registry), std::invalid_argument);
}

TEST(Serve, SessionRejectsDegeneratePacingAndArrival)
{
    SceneRegistry registry;
    SceneSpec tiny = test::tinySpec();
    SceneHandle handle = registry.acquire(tiny, 1.0f, 2);

    SessionConfig cfg;
    cfg.spec = tiny;
    cfg.frames = 2;

    cfg.fps_target = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(Session(cfg, handle), std::invalid_argument);
    cfg.fps_target = std::numeric_limits<double>::infinity();
    EXPECT_THROW(Session(cfg, handle), std::invalid_argument);
    cfg.fps_target = 0.0;

    cfg.start_ms = -1.0;
    EXPECT_THROW(Session(cfg, handle), std::invalid_argument);
    cfg.start_ms = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(Session(cfg, handle), std::invalid_argument);
    cfg.start_ms = 5.0;

    cfg.degrade = true;
    cfg.degrade_render_scale = 1.5f;
    EXPECT_THROW(Session(cfg, handle), std::invalid_argument);
    cfg.degrade_render_scale = 0.5f;
    EXPECT_NO_THROW(Session(cfg, handle));
}

// ---- open-loop fleets ----

TEST(Serve, OpenLoopFleetFollowsTheArrivalTable)
{
    FleetSpec spec = tinyFleet();
    spec.sessions = 99;  // ignored: the arrival table is the population
    spec.frames = 99;

    std::vector<serve::SessionArrival> arrivals(2);
    arrivals[0] = {0.0, 2, 0, 0, 0.0f};
    arrivals[1] = {15.0, 3, 1, 1, 60.0f};

    SceneRegistry registry;
    std::vector<Session> fleet =
        buildOpenLoopFleet(spec, arrivals, registry);
    ASSERT_EQ(fleet.size(), 2u);
    EXPECT_EQ(fleet[0].config().frames, 2);
    EXPECT_EQ(fleet[0].config().start_ms, 0.0);
    EXPECT_EQ(fleet[0].config().fps_target, 0.0);
    EXPECT_EQ(fleet[0].config().renderer, SessionRenderer::Tile);
    EXPECT_EQ(fleet[1].config().frames, 3);
    EXPECT_EQ(fleet[1].config().start_ms, 15.0);
    EXPECT_EQ(fleet[1].config().fps_target, 60.0);
    EXPECT_EQ(fleet[1].config().renderer,
              SessionRenderer::GaussianWise);
    EXPECT_EQ(fleet[0].config().spec.name, spec.scenes[0].name);
    EXPECT_EQ(fleet[1].config().spec.name, spec.scenes[1].name);

    // Every arrived session serves to completion.
    ThreadPool pool(2);
    FrameScheduler scheduler;
    ServeReport report = scheduler.run(fleet, pool);
    EXPECT_EQ(report.framesTotal(), 5);
    EXPECT_EQ(report.framesRendered(), 5);

    // A zero-session window (no arrivals) is a clean empty run, not
    // an error.
    std::vector<Session> nobody = buildOpenLoopFleet(spec, {}, registry);
    EXPECT_TRUE(nobody.empty());
    FrameScheduler idle;
    ServeReport quiet = idle.run(nobody, pool);
    EXPECT_EQ(quiet.framesTotal(), 0);
    EXPECT_FALSE(quiet.drained);
}

// ---- admission control ----

TEST(FrameScheduler, AdmissionTokenBucketShedsWhenExhausted)
{
    // An effectively non-refilling bucket with one token, and roomy
    // deadlines (so the predictive hopeless-slack gate stays out of
    // the way): exactly one frame renders; every later
    // deadline-bearing frame is shed with ShedReason::Admission.
    FleetSpec spec = tinyFleet(2, 3);
    spec.fps_target = 5.0;  // 200 ms of slack: only the bucket sheds
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(spec, registry);

    SchedulerOptions options;
    options.policy = SchedulerPolicy::Edf;
    options.admission.enabled = true;
    options.admission.rate_hz = 1e-9;
    options.admission.burst = 1.0;
    ThreadPool pool(2);
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);

    EXPECT_EQ(report.framesRendered(), 1);
    EXPECT_EQ(report.framesDropped(), 5);
    int sheds[kShedReasonCount];
    report.shedTotals(sheds);
    EXPECT_EQ(sheds[static_cast<int>(ShedReason::Admission)], 5);
    for (const SessionStats &s : report.sessions) {
        for (const FrameRecord &f : s.frames) {
            if (!f.rendered) {
                EXPECT_EQ(f.shed_reason, ShedReason::Admission);
                EXPECT_EQ(f.tier, DegradeTier::Drop);
            }
        }
    }
    // Shed frames count as SLO misses — shedding can't game the rate.
    EXPECT_GE(report.missRate(), 5.0 / 6.0);
}

TEST(FrameScheduler, AdmissionFairnessYieldsTheHotSession)
{
    // Under scarcity (bucket empty after the single token), the
    // session that already rendered is shed for fairness; the one
    // that never got a turn is shed by admission — both starve, but
    // the fairness gate names the hot one.
    FleetSpec spec = tinyFleet(2, 3);
    spec.fps_target = 5.0;
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(spec, registry);

    SchedulerOptions options;
    options.admission.enabled = true;
    options.admission.rate_hz = 1e-9;
    options.admission.burst = 1.0;
    options.admission.fair_share = 0.01;
    ThreadPool pool(2);
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);

    EXPECT_EQ(report.framesRendered(), 1);
    int sheds[kShedReasonCount];
    report.shedTotals(sheds);
    EXPECT_EQ(sheds[static_cast<int>(ShedReason::Fairness)], 2);
    EXPECT_EQ(sheds[static_cast<int>(ShedReason::Admission)], 3);
    // The fairness sheds land on the session that rendered.
    for (const SessionStats &s : report.sessions) {
        const int fair =
            s.sheds_by_reason[static_cast<int>(ShedReason::Fairness)];
        EXPECT_EQ(fair > 0, s.frames_rendered > 0);
    }
}

TEST(FrameScheduler, BestEffortSessionsAreNeverShedOrDegraded)
{
    // Every gate (admission, fairness, predictive shed, the ladder)
    // applies only to deadline-bearing frames: a best-effort fleet
    // under the most aggressive settings still renders everything at
    // Full, bit-identical to serial.
    FleetSpec spec = tinyFleet(3, 2);
    spec.degrade = true;  // opted in, but no deadline -> never used
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(spec, registry);
    SerialBaseline base = renderSerial(fleet);

    SchedulerOptions options;
    options.drop_late = true;
    options.admission.enabled = true;
    options.admission.rate_hz = 1e-9;
    options.admission.burst = 0.0;
    options.admission.fair_share = 0.01;
    options.admission.max_queue_depth = 1;
    options.degrade.enabled = true;
    ThreadPool pool(2);
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);

    EXPECT_EQ(report.framesRendered(), 3 * 2);
    EXPECT_EQ(report.framesDropped(), 0);
    int tiers[kDegradeTierCount];
    report.tierTotals(tiers);
    EXPECT_EQ(tiers[static_cast<int>(DegradeTier::Full)], 3 * 2);
    EXPECT_EQ(report.degradeTransitions(), 0);
    ASSERT_EQ(report.sessions.size(), fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i)
        EXPECT_EQ(report.sessions[i].checksum, base.checksums[i]);
}

// ---- graceful degradation ladder ----

TEST(FrameScheduler, DegradeLadderDropsWhenNoTierFits)
{
    // Microsecond deadlines: slack is already negative at dispatch, so
    // no ladder tier can fit and every frame is a counted Degrade
    // drop — the ladder's floor behaves like drop_late, with its own
    // attribution.
    FleetSpec spec = tinyFleet(2, 3);
    spec.fps_target = 1e6;
    spec.degrade = true;
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(spec, registry);

    SchedulerOptions options;
    options.policy = SchedulerPolicy::Edf;
    options.degrade.enabled = true;
    ThreadPool pool(2);
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);

    EXPECT_EQ(report.framesRendered(), 0);
    EXPECT_EQ(report.framesDropped(), 6);
    EXPECT_EQ(report.framesOnTime(), 0);
    EXPECT_DOUBLE_EQ(report.goodputFps(), 0.0);
    int sheds[kShedReasonCount];
    report.shedTotals(sheds);
    EXPECT_EQ(sheds[static_cast<int>(ShedReason::Degrade)], 6);
    for (const SessionStats &s : report.sessions)
        for (const FrameRecord &f : s.frames) {
            EXPECT_FALSE(f.rendered);
            EXPECT_EQ(f.tier, DegradeTier::Drop);
            EXPECT_EQ(f.shed_reason, ShedReason::Degrade);
            EXPECT_TRUE(f.deadline_missed);
        }
}

TEST(Serve, DegradedTiersRenderAndReportTheServedTier)
{
    // Unit-level ladder contract: each cheaper tier renders a valid
    // frame and reports what was actually served, falling back to
    // Full when the tier is unavailable.
    FleetSpec spec = tinyFleet(2, 3);
    spec.temporal = 1;  // Tile sessions get a warp-capable cache
    spec.degrade = true;
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(spec, registry);
    const Session &tile = fleet[0];
    const Session &gw = fleet[1];
    ASSERT_EQ(tile.config().renderer, SessionRenderer::Tile);
    ASSERT_EQ(gw.config().renderer, SessionRenderer::GaussianWise);

    EXPECT_TRUE(tile.tierAvailable(DegradeTier::Full));
    EXPECT_TRUE(tile.tierAvailable(DegradeTier::Warp));
    EXPECT_TRUE(tile.tierAvailable(DegradeTier::HalfRes));
    EXPECT_FALSE(tile.tierAvailable(DegradeTier::CoarseLod));  // no LOD
    EXPECT_FALSE(tile.tierAvailable(DegradeTier::Drop));
    EXPECT_FALSE(gw.tierAvailable(DegradeTier::Warp));  // no cache

    DegradeTier served = DegradeTier::Drop;
    // First warp request may fall back to an exact render (nothing to
    // warp from yet) — which primes the cache for the next one.
    double sum = tile.renderFrameDegraded(0, DegradeTier::Warp,
                                          nullptr, &served);
    EXPECT_GT(sum, 0.0);
    sum = tile.renderFrameDegraded(1, DegradeTier::Warp, nullptr,
                                   &served);
    EXPECT_GT(sum, 0.0);
    EXPECT_EQ(served, DegradeTier::Warp);

    sum = tile.renderFrameDegraded(2, DegradeTier::HalfRes, nullptr,
                                   &served);
    EXPECT_GT(sum, 0.0);
    EXPECT_EQ(served, DegradeTier::HalfRes);

    // Unavailable tier: serves Full instead and says so.
    sum = tile.renderFrameDegraded(2, DegradeTier::CoarseLod, nullptr,
                                   &served);
    EXPECT_GT(sum, 0.0);
    EXPECT_EQ(served, DegradeTier::Full);
    sum = gw.renderFrameDegraded(0, DegradeTier::Warp, nullptr,
                                 &served);
    EXPECT_GT(sum, 0.0);
    EXPECT_EQ(served, DegradeTier::Full);

    // Tier and shed-reason names are stable and round-trip-able.
    EXPECT_STREQ(degradeTierName(DegradeTier::Warp), "warp");
    EXPECT_STREQ(degradeTierName(DegradeTier::Drop), "drop");
    EXPECT_STREQ(shedReasonName(ShedReason::Admission), "admission");
    EXPECT_STREQ(shedReasonName(ShedReason::Degrade), "degrade");
}

} // namespace
} // namespace gcc3d
