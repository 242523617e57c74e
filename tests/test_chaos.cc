/**
 * @file
 * Tests of the deterministic fault-injection harness (serve/chaos.h,
 * obs/fault_hooks.h) and the open-loop load generator
 * (serve/load_gen.h): verdict purity, canonical byte-identical event
 * logs, bounded-retry recovery, per-fault-class serving outcomes
 * (stalls complete, disconnects truncate cleanly, disabled chaos
 * keeps checksums bit-identical), and arrival-table determinism.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/fault_hooks.h"
#include "serve/chaos.h"
#include "serve/fleet.h"
#include "serve/frame_scheduler.h"
#include "serve/load_gen.h"
#include "test_util.h"

namespace gcc3d {
namespace {

using serve::ChaosConfig;
using serve::ChaosEngine;
using serve::ChaosEvent;
using serve::ChaosScope;
using serve::chaosHash01;
using serve::LoadGenConfig;
using serve::SessionArrival;

/** Small all-Tile fleet (chaos runs want cheap, uniform sessions). */
FleetSpec
chaosFleet(int sessions, int frames)
{
    FleetSpec spec;
    spec.sessions = sessions;
    spec.frames = frames;
    spec.scenes = {test::tinySpec(), test::tinyRoomSpec()};
    spec.renderers = {SessionRenderer::Tile};
    return spec;
}

// ---- hash / verdict purity ----

TEST(Chaos, Hash01IsPureAndInRange)
{
    double sum = 0.0;
    for (std::uint64_t key = 0; key < 1000; ++key) {
        double a = chaosHash01(42, 3, key);
        double b = chaosHash01(42, 3, key);
        EXPECT_EQ(a, b);  // pure: no hidden state
        EXPECT_GE(a, 0.0);
        EXPECT_LT(a, 1.0);
        sum += a;
    }
    // Roughly uniform (very loose bound; this is a sanity check that
    // the mixer is not collapsing, not a statistical test).
    EXPECT_GT(sum / 1000.0, 0.35);
    EXPECT_LT(sum / 1000.0, 0.65);

    // Seed, salt and key all matter.
    EXPECT_NE(chaosHash01(42, 3, 7), chaosHash01(43, 3, 7));
    EXPECT_NE(chaosHash01(42, 3, 7), chaosHash01(42, 4, 7));
    EXPECT_NE(chaosHash01(42, 3, 7), chaosHash01(42, 3, 8));
}

TEST(Chaos, VerdictsArePureFunctionsOfSeedSiteAndKey)
{
    ChaosConfig cfg;
    cfg.seed = 1234;
    cfg.io_fail_rate = 0.5;
    cfg.stall_rate = 0.5;
    cfg.stall_ms = 2.5;
    ChaosEngine a(cfg), b(cfg);

    // Probe the same keys in opposite orders: every verdict matches.
    for (std::uint64_t key = 0; key < 64; ++key) {
        obs::FaultAction va = a.at(obs::FaultSite::SceneRead, key);
        obs::FaultAction vb =
            b.at(obs::FaultSite::SceneRead, 63 - key);
        (void)vb;
        obs::FaultAction vb_same =
            b.at(obs::FaultSite::SceneRead, key);
        EXPECT_EQ(va.inject, vb_same.inject) << "key " << key;
        EXPECT_EQ(va.magnitude, vb_same.magnitude) << "key " << key;
    }

    // Stall verdicts carry the configured duration as magnitude.
    bool fired = false;
    for (std::uint64_t key = 0; key < 64; ++key) {
        obs::FaultAction v = a.at(obs::FaultSite::WorkerStall, key);
        if (v.inject) {
            fired = true;
            EXPECT_EQ(v.magnitude, 2.5);
        }
    }
    EXPECT_TRUE(fired);  // rate 0.5 over 64 keys: fires w.p. 1-2^-64
}

TEST(Chaos, ZeroSeedOrZeroRateNeverInjects)
{
    ChaosConfig off;  // seed = 0
    off.io_fail_rate = 1.0;
    EXPECT_FALSE(off.enabled());
    ChaosEngine disabled(off);
    for (std::uint64_t key = 0; key < 16; ++key)
        EXPECT_FALSE(disabled.at(obs::FaultSite::SceneRead, key).inject);
    EXPECT_EQ(disabled.totalFired(), 0u);

    ChaosConfig zero_rate;
    zero_rate.seed = 99;  // enabled, but every rate is 0
    ChaosEngine quiet(zero_rate);
    for (int site = 0; site < obs::kFaultSiteCount; ++site)
        for (std::uint64_t key = 0; key < 16; ++key)
            EXPECT_FALSE(
                quiet.at(static_cast<obs::FaultSite>(site), key).inject);
    EXPECT_EQ(quiet.totalFired(), 0u);
    EXPECT_TRUE(quiet.eventLogText().empty());

    ChaosConfig always;
    always.seed = 99;
    always.io_fail_rate = 1.0;
    ChaosEngine loud(always);
    for (std::uint64_t key = 0; key < 16; ++key)
        EXPECT_TRUE(loud.at(obs::FaultSite::SceneRead, key).inject);
    EXPECT_EQ(loud.totalFired(), 16u);
}

TEST(Chaos, EventLogIsCanonicalAndByteIdentical)
{
    ChaosConfig cfg;
    cfg.seed = 7;
    cfg.io_fail_rate = 1.0;
    cfg.stall_rate = 1.0;
    cfg.stall_ms = 4.0;

    // Same probes, different arrival order (as racing workers would
    // produce): the keyed log canonicalizes to identical bytes.
    ChaosEngine fwd(cfg), rev(cfg);
    for (std::uint64_t key = 0; key < 8; ++key) {
        fwd.at(obs::FaultSite::SceneRead, key);
        fwd.at(obs::FaultSite::WorkerStall, key);
    }
    for (std::uint64_t key = 8; key-- > 0;) {
        rev.at(obs::FaultSite::WorkerStall, key);
        rev.at(obs::FaultSite::SceneRead, key);
    }
    const std::string log = fwd.eventLogText();
    EXPECT_EQ(log, rev.eventLogText());
    EXPECT_FALSE(log.empty());
    EXPECT_NE(log.find("scene_read"), std::string::npos);
    EXPECT_NE(log.find("worker_stall"), std::string::npos);
    EXPECT_NE(log.find("key="), std::string::npos);

    // Repeating a probe bumps its count, not the entry set.
    std::vector<ChaosEvent> before = fwd.events();
    fwd.at(obs::FaultSite::SceneRead, 0);
    std::vector<ChaosEvent> after = fwd.events();
    ASSERT_EQ(after.size(), before.size());
    EXPECT_EQ(after[0].count, before[0].count + 1);
}

TEST(Chaos, DisconnectFrameIsPureBoundedAndUnlogged)
{
    ChaosConfig cfg;
    cfg.seed = 21;
    cfg.disconnect_rate = 1.0;
    ChaosEngine engine(cfg);
    bool varied = false;
    int first = -2;
    for (std::uint64_t key = 1; key <= 32; ++key) {
        int d = engine.disconnectFrame(key, 10);
        EXPECT_GE(d, 0) << "rate 1.0 must always disconnect";
        EXPECT_LT(d, 10);
        EXPECT_EQ(d, engine.disconnectFrame(key, 10));  // pure
        if (first == -2)
            first = d;
        else if (d != first)
            varied = true;
    }
    EXPECT_TRUE(varied);  // frame choice is per-session, not global
    // disconnectFrame is a const query: nothing in the event log.
    EXPECT_TRUE(engine.eventLogText().empty());

    ChaosConfig never;
    never.seed = 21;
    ChaosEngine keeps(never);
    for (std::uint64_t key = 1; key <= 32; ++key)
        EXPECT_EQ(keeps.disconnectFrame(key, 10), -1);
}

TEST(Chaos, ScopeInstallsAndUninstallsTheInjector)
{
    EXPECT_FALSE(obs::faultInjectionActive());
    EXPECT_FALSE(obs::faultAt(obs::FaultSite::SceneRead, 1).inject);

    ChaosConfig cfg;
    cfg.seed = 5;
    cfg.io_fail_rate = 1.0;
    ChaosEngine engine(cfg);
    {
        ChaosScope scope(&engine);
        EXPECT_TRUE(obs::faultInjectionActive());
        EXPECT_TRUE(obs::faultAt(obs::FaultSite::SceneRead, 1).inject);
    }
    EXPECT_FALSE(obs::faultInjectionActive());
    EXPECT_FALSE(obs::faultAt(obs::FaultSite::SceneRead, 1).inject);

    // A disabled engine (seed 0) is never installed.
    ChaosConfig off;
    ChaosEngine disabled(off);
    {
        ChaosScope scope(&disabled);
        EXPECT_FALSE(obs::faultInjectionActive());
    }
}

TEST(Chaos, RetryKeyFoldingMakesTransientFaultsClear)
{
    // Call sites fold the attempt number into the key, so a fault that
    // fires on attempt 0 can clear on a later attempt — find a key
    // where exactly that happens and check the sequence is stable.
    ChaosConfig cfg;
    cfg.seed = 11;
    cfg.io_fail_rate = 0.5;
    ChaosEngine engine(cfg);
    const obs::RetryPolicy retry;
    bool found = false;
    for (std::uint64_t base = 0; base < 256 && !found; base += 16) {
        if (!engine.at(obs::FaultSite::SceneRead, base).inject)
            continue;  // attempt 0 already clean
        for (int attempt = 1; attempt < retry.max_attempts; ++attempt) {
            if (!engine
                     .at(obs::FaultSite::SceneRead,
                         base + static_cast<std::uint64_t>(attempt))
                     .inject) {
                found = true;  // fails, retries, recovers
                break;
            }
        }
    }
    EXPECT_TRUE(found);

    // The backoff schedule is bounded and doubling.
    EXPECT_EQ(retry.delayMs(0), 0.0);
    EXPECT_EQ(retry.delayMs(2), retry.delayMs(1) * 2.0);
    EXPECT_GE(retry.max_attempts, 2);
}

// ---- load generator ----

TEST(LoadGen, ArrivalTableIsDeterministicAndWellFormed)
{
    LoadGenConfig cfg;
    cfg.seed = 17;
    cfg.base_rate_hz = 50.0;
    cfg.duration_ms = 2000.0;
    cfg.frames_min = 3;
    cfg.frames_max = 9;
    cfg.fps_target = 24.0f;

    std::vector<SessionArrival> a = serve::generateArrivals(cfg);
    std::vector<SessionArrival> b = serve::generateArrivals(cfg);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    std::uint64_t frames = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].start_ms, b[i].start_ms);
        EXPECT_EQ(a[i].frames, b[i].frames);
        EXPECT_EQ(a[i].scene_slot, b[i].scene_slot);
        EXPECT_EQ(a[i].renderer_slot, b[i].renderer_slot);
        EXPECT_GE(a[i].start_ms, 0.0);
        EXPECT_LT(a[i].start_ms, cfg.duration_ms);
        EXPECT_GE(a[i].frames, cfg.frames_min);
        EXPECT_LE(a[i].frames, cfg.frames_max);
        EXPECT_EQ(a[i].fps_target, 24.0f);
        if (i > 0) {
            EXPECT_GE(a[i].start_ms, a[i - 1].start_ms);  // timeline order
        }
        frames += static_cast<std::uint64_t>(a[i].frames);
    }
    EXPECT_EQ(serve::totalOfferedFrames(a), frames);

    // The sweep knob scales the offered load.
    LoadGenConfig heavier = cfg;
    heavier.rate_multiplier = 3.0;
    EXPECT_GT(serve::generateArrivals(heavier).size(), a.size());

    // A different seed reshuffles the timeline.
    LoadGenConfig reseeded = cfg;
    reseeded.seed = 18;
    std::vector<SessionArrival> c = serve::generateArrivals(reseeded);
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = c[i].start_ms != a[i].start_ms;
    EXPECT_TRUE(differs);
}

TEST(LoadGen, DiurnalEnvelopeAndSessionCapApply)
{
    LoadGenConfig flat;
    flat.seed = 23;
    flat.base_rate_hz = 40.0;
    flat.duration_ms = 2000.0;

    LoadGenConfig wavy = flat;
    wavy.diurnal_amplitude = 0.9;
    wavy.diurnal_period_ms = 500.0;

    std::vector<SessionArrival> a = serve::generateArrivals(flat);
    std::vector<SessionArrival> b = serve::generateArrivals(wavy);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].start_ms != b[i].start_ms;
    EXPECT_TRUE(differs);  // the envelope thins arrivals

    LoadGenConfig capped = flat;
    capped.max_sessions = 5;
    EXPECT_LE(serve::generateArrivals(capped).size(), 5u);
}

// ---- fault classes through the scheduler ----

TEST(FrameScheduler, WorkerStallsDelayButNeverChangeFrames)
{
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(chaosFleet(3, 2), registry);
    SerialBaseline base = renderSerial(fleet);

    ChaosConfig cfg;
    cfg.seed = 31;
    cfg.stall_rate = 1.0;  // every dispatched frame stalls…
    cfg.stall_ms = 1.0;    // …briefly
    ChaosEngine engine(cfg);
    SchedulerOptions options;
    options.chaos = &engine;
    ThreadPool pool(2);
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);

    EXPECT_EQ(report.framesRendered(), 3 * 2);
    EXPECT_EQ(report.framesDropped(), 0);
    EXPECT_GT(engine.totalFired(), 0u);
    ASSERT_EQ(report.sessions.size(), fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i)
        EXPECT_EQ(report.sessions[i].checksum, base.checksums[i]);
}

TEST(FrameScheduler, DisconnectsTruncateSessionsCleanly)
{
    SceneRegistry registry;
    const int kFrames = 4;
    FleetSpec spec = chaosFleet(4, kFrames);
    spec.temporal = 1;
    std::vector<Session> fleet = buildFleet(spec, registry);

    ChaosConfig cfg;
    cfg.seed = 37;
    cfg.disconnect_rate = 1.0;  // every session leaves mid-stream
    ChaosEngine engine(cfg);
    SchedulerOptions options;
    options.chaos = &engine;
    ThreadPool pool(2);
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);

    // The run terminates (no hang on truncated streams) with every
    // session marked disconnected and its tail accounted as unserved.
    EXPECT_FALSE(report.drained);
    EXPECT_EQ(report.disconnects(), 4);
    EXPECT_LT(report.framesRendered(), 4 * kFrames);
    EXPECT_GT(report.framesRendered(), 0);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        const SessionStats &s = report.sessions[i];
        EXPECT_TRUE(s.disconnected);
        // The stream ended at the frame before the disconnect: its
        // temporal frame state is freed, its counters kept.
        EXPECT_EQ(fleet[i].retainedBytes(), 0u) << "session " << i;
        EXPECT_EQ(s.temporal_counters.frames, s.frames_rendered);
        EXPECT_EQ(s.frames_total, kFrames);
        EXPECT_GE(s.frames_unserved, 1);
        EXPECT_LE(s.frames_unserved, kFrames);
        EXPECT_EQ(static_cast<int>(s.frames.size()),
                  kFrames - s.frames_unserved);
        EXPECT_EQ(s.frames_rendered + s.frames_dropped +
                      s.frames_unserved,
                  kFrames);
        // The served prefix is still in order and fully rendered
        // (best-effort sessions: nothing is shed).
        for (std::size_t f = 0; f < s.frames.size(); ++f) {
            EXPECT_EQ(s.frames[f].frame, static_cast<int>(f));
            EXPECT_TRUE(s.frames[f].rendered);
        }
    }
}

TEST(FrameScheduler, DisabledChaosKeepsChecksumsBitIdentical)
{
    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(chaosFleet(3, 2), registry);
    SerialBaseline base = renderSerial(fleet);

    // An engine with a live seed but all-zero rates: installed, probed,
    // but silent — pixels and scheduling accounting match the serial
    // baseline exactly.
    ChaosConfig cfg;
    cfg.seed = 41;
    ChaosEngine engine(cfg);
    ChaosScope scope(&engine);
    SchedulerOptions options;
    options.chaos = &engine;
    ThreadPool pool(4);
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);

    EXPECT_EQ(engine.totalFired(), 0u);
    EXPECT_EQ(report.disconnects(), 0);
    EXPECT_EQ(report.framesRendered(), 3 * 2);
    ASSERT_EQ(report.sessions.size(), fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i)
        EXPECT_EQ(report.sessions[i].checksum, base.checksums[i]);
}

TEST(FrameScheduler, ChaosEventLogIsByteIdenticalAcrossRuns)
{
    // Deterministic probe set: best-effort pacing (every frame
    // dispatches — no wall-clock-dependent sheds) on one worker.
    auto run = [](std::string *log) {
        SceneRegistry registry;
        std::vector<Session> fleet =
            buildFleet(chaosFleet(3, 3), registry);
        ChaosConfig cfg;
        cfg.seed = 43;
        cfg.stall_rate = 0.5;
        cfg.stall_ms = 1.0;
        cfg.disconnect_rate = 0.4;
        ChaosEngine engine(cfg);
        SchedulerOptions options;
        options.workers = 1;
        options.chaos = &engine;
        ThreadPool pool(1);
        FrameScheduler scheduler(options);
        scheduler.run(fleet, pool);
        *log = engine.eventLogText();
    };
    std::string first, second;
    run(&first);
    run(&second);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

} // namespace
} // namespace gcc3d
