// Observability layer tests: histogram bucket edges, deterministic
// cross-thread summary merges, ring wraparound, frame tagging and its
// per-stage totals, the runtime kill switch, trace export shape, SLO
// miss classification, and served frames' stage costs.  The recording
// tests are compiled only when the hooks are (GCC3D_OBS=ON); the
// disabled build instead locks the stubs to their documented no-op
// behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/perf_recorder.h"
#include "lod/lod_builder.h"
#include "obs/trace_export.h"
#include "serve/scene_registry.h"
#include "serve/slo_attribution.h"
#include "test_util.h"

namespace {

using namespace gcc3d;

// ---- Histogram bucket layout (both builds: the layout is shared) ----

TEST(ObsHistogramBuckets, EdgeValuesLandInDocumentedBuckets)
{
    using B = obs::HistogramBuckets;
    EXPECT_EQ(B::bucketIndex(0.0), 0);
    EXPECT_EQ(B::bucketIndex(-1.0), 0);
    EXPECT_EQ(B::bucketIndex(std::numeric_limits<double>::quiet_NaN()),
              0);
    EXPECT_EQ(B::bucketIndex(std::numeric_limits<double>::infinity()),
              B::kBuckets - 1);
    // Below the first finite bucket -> underflow bucket 0.
    EXPECT_EQ(B::bucketIndex(std::exp2(B::kMinExp - 1)), 0);
    // Exactly 2^kMinExp opens bucket 1.
    EXPECT_EQ(B::bucketIndex(std::exp2(B::kMinExp)), 1);
    // Far beyond the covered range -> overflow bucket.
    EXPECT_EQ(B::bucketIndex(1e30), B::kBuckets - 1);
}

TEST(ObsHistogramBuckets, ValuesFallInsideTheirBucketBounds)
{
    using B = obs::HistogramBuckets;
    for (double v : {0.001, 0.5, 1.0, 3.7, 16.0, 1000.0, 123456.0}) {
        const int i = B::bucketIndex(v);
        EXPECT_GE(v, B::bucketLowerBound(i)) << "v=" << v;
        EXPECT_LT(v, B::bucketUpperBound(i)) << "v=" << v;
    }
    EXPECT_EQ(B::bucketLowerBound(0), 0.0);
    EXPECT_TRUE(std::isinf(B::bucketUpperBound(B::kBuckets - 1)));
}

// ---- SLO miss classification (both builds: pure logic) ----

FrameRecord
missWith(double queue_wait, double pre, double bin, double raster,
         double warp, double decode)
{
    FrameRecord rec;
    rec.rendered = true;
    rec.deadline_missed = true;
    rec.queue_wait_ms = queue_wait;
    rec.cost.pre_ms = pre;
    rec.cost.bin_ms = bin;
    rec.cost.raster_ms = raster;
    rec.cost.warp_ms = warp;
    rec.cost.decode_ms = decode;
    return rec;
}

TEST(SloAttribution, DroppedFrameIsPureQueueing)
{
    FrameRecord rec;
    rec.rendered = false;
    EXPECT_EQ(classifyMiss(rec), MissComponent::Queue);
}

TEST(SloAttribution, RenderedMissChargedToDominantComponent)
{
    EXPECT_EQ(classifyMiss(missWith(9, 1, 1, 1, 1, 1)),
              MissComponent::Queue);
    EXPECT_EQ(classifyMiss(missWith(1, 9, 1, 1, 1, 1)),
              MissComponent::Preprocess);
    EXPECT_EQ(classifyMiss(missWith(1, 1, 9, 1, 1, 1)),
              MissComponent::Binning);
    EXPECT_EQ(classifyMiss(missWith(1, 1, 1, 9, 1, 1)),
              MissComponent::Raster);
    EXPECT_EQ(classifyMiss(missWith(1, 1, 1, 1, 9, 1)),
              MissComponent::Warp);
    EXPECT_EQ(classifyMiss(missWith(1, 1, 1, 1, 1, 9)),
              MissComponent::Decode);
}

TEST(SloAttribution, AllZeroComponentsAreUnknown)
{
    EXPECT_EQ(classifyMiss(missWith(0, 0, 0, 0, 0, 0)),
              MissComponent::Unknown);
}

TEST(SloAttribution, NamedFractionCountsNonUnknownMisses)
{
    MissAttribution attribution;
    EXPECT_EQ(attribution.total(), 0);
    EXPECT_DOUBLE_EQ(attribution.namedFraction(), 1.0);  // no misses

    attribution.add(MissComponent::Queue);
    attribution.add(MissComponent::Raster);
    attribution.add(MissComponent::Unknown);
    attribution.add(MissComponent::Queue);
    EXPECT_EQ(attribution.total(), 4);
    EXPECT_DOUBLE_EQ(attribution.namedFraction(), 0.75);

    MissAttribution other;
    other.add(MissComponent::Warp);
    attribution.merge(other);
    EXPECT_EQ(attribution.total(), 5);
    EXPECT_DOUBLE_EQ(attribution.namedFraction(), 0.8);

    const std::string json = attribution.toJson();
    EXPECT_NE(json.find("\"queue\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"raster\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"warp\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"unknown\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"named_fraction\": 0.8"), std::string::npos);
}

// ---- Served frames' stage costs (both builds) ----

/** Sum of @p samples of @p stage tagged (@p session, @p frame). */
double
taggedMs(const std::vector<obs::PerfSample> &samples, obs::Stage stage,
         int session, int frame)
{
    double total = 0.0;
    for (const obs::PerfSample &s : samples)
        if (s.stage == stage && s.session == session && s.frame == frame)
            total += s.dur_ms;
    return total;
}

/** Every field of @p cost is the frame's recorded samples of its
 *  stage; all zero when the hooks are compiled out. */
void
expectCostIsTaggedSamples(const FrameStageCost &cost, int session,
                          int frame)
{
    const std::vector<obs::PerfSample> samples =
        obs::PerfRecorder::global().samples();
    const std::pair<obs::Stage, double> fields[] = {
        {obs::Stage::Preprocess, cost.pre_ms},
        {obs::Stage::Binning, cost.bin_ms},
        {obs::Stage::Raster, cost.raster_ms},
        {obs::Stage::Warp, cost.warp_ms},
        {obs::Stage::Decode, cost.decode_ms},
    };
    for (const auto &[stage, ms] : fields) {
        EXPECT_NEAR(ms, taggedMs(samples, stage, session, frame), 1e-9)
            << obs::stageName(stage) << " of session " << session
            << " frame " << frame;
        if (!GCC3D_OBS_ENABLED) {
            EXPECT_EQ(ms, 0.0) << obs::stageName(stage);
        }
    }
}

TEST(FrameStageCost, IsTheSumOfTheFramesRecordedSamples)
{
    obs::PerfRecorder::global().reset();
    const SceneSpec spec = test::tinySpec();
    SceneRegistry registry;
    const SceneHandle resident = registry.acquire(spec, 1.0f, 3);

    // A tile temporal session: an exact frame, then a warped one.
    SessionConfig tile_cfg;
    tile_cfg.id = 1;
    tile_cfg.spec = spec;
    tile_cfg.frames = 3;
    tile_cfg.temporal = 1;
    tile_cfg.degrade = true;  // keeps the warp source
    const Session tile(tile_cfg, resident);
    FrameStageCost exact, warp;
    DegradeTier served = DegradeTier::Drop;
    tile.renderFrameDegraded(0, DegradeTier::Full, &exact, &served);
    ASSERT_EQ(served, DegradeTier::Full);
    tile.renderFrameDegraded(1, DegradeTier::Warp, &warp, &served);
    ASSERT_EQ(served, DegradeTier::Warp);

    // A Gaussian-wise session over the same cloud.
    SessionConfig gw_cfg = tile_cfg;
    gw_cfg.id = 2;
    gw_cfg.renderer = SessionRenderer::GaussianWise;
    gw_cfg.temporal = 0;
    gw_cfg.degrade = false;
    gw_cfg.gw.subview_size = 64;
    FrameStageCost gw;
    Session(gw_cfg, resident).renderFrameDegraded(0, DegradeTier::Full,
                                                  &gw, nullptr);

    // An LOD session: the frame's cut build is its decode cost.
    const std::string path = ::testing::TempDir() + "/obs-cost-lod.gsc";
    ASSERT_TRUE(buildLodFile(generateScene(spec, 1.0f), path));
    SessionConfig lod_cfg = gw_cfg;
    lod_cfg.id = 3;
    lod_cfg.renderer = SessionRenderer::Tile;
    FrameStageCost lod;
    Session(lod_cfg, registry.acquireLod(path, 16u << 20, spec, 3))
        .renderFrameDegraded(0, DegradeTier::Full, &lod, nullptr);
    std::filesystem::remove(path);

    expectCostIsTaggedSamples(exact, 1, 0);
    expectCostIsTaggedSamples(warp, 1, 1);
    expectCostIsTaggedSamples(gw, 2, 0);
    expectCostIsTaggedSamples(lod, 3, 0);
    // A warped frame runs no preprocess, binning or raster.
    EXPECT_EQ(warp.pre_ms, 0.0);
    EXPECT_EQ(warp.bin_ms, 0.0);
    EXPECT_EQ(warp.raster_ms, 0.0);
    if (GCC3D_OBS_ENABLED) {
        EXPECT_GT(exact.raster_ms, 0.0);
        EXPECT_GT(warp.warp_ms, 0.0);
        EXPECT_GT(gw.raster_ms, 0.0);
        EXPECT_GT(lod.decode_ms, 0.0);
    }
}

#if GCC3D_OBS_ENABLED

// ---- Recorder behavior (enabled builds) ----

/** Fixed tagged sample set whose summary must not depend on how the
 *  samples were distributed across recording threads. */
std::vector<std::pair<obs::SampleTag, double>>
fixedSampleSet()
{
    std::vector<std::pair<obs::SampleTag, double>> set;
    for (int i = 0; i < 64; ++i) {
        obs::SampleTag tag;
        tag.session = i % 4;
        tag.frame = i / 4;
        tag.seq = static_cast<std::uint32_t>(i);
        // Irregular but fixed durations, including repeats.
        const double dur = 0.125 * static_cast<double>(i % 7) +
                           0.001 * static_cast<double>(i % 3);
        set.emplace_back(tag, dur);
    }
    return set;
}

obs::PerfSummary
summaryWithWorkers(int workers)
{
    obs::PerfRecorder recorder;
    const auto set = fixedSampleSet();
    std::vector<std::thread> pool;
    for (int w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            for (std::size_t i = 0; i < set.size(); ++i) {
                if (static_cast<int>(i) % workers != w)
                    continue;
                const obs::Stage stage = static_cast<obs::Stage>(
                    i % 3 == 0   ? obs::Stage::Preprocess
                    : i % 3 == 1 ? obs::Stage::Raster
                                 : obs::Stage::Queue);
                recorder.addSample(stage, set[i].second, set[i].first);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    // Workers joined: the rings are quiescent and safe to read.
    return recorder.summary();
}

TEST(ObsPerfRecorder, SummaryMergeIsBitIdenticalAcrossWorkerCounts)
{
    const obs::PerfSummary one = summaryWithWorkers(1);
    EXPECT_EQ(one.recorded, 64u);
    EXPECT_EQ(one.retained, 64u);
    for (int workers : {2, 8}) {
        const obs::PerfSummary many = summaryWithWorkers(workers);
        EXPECT_EQ(many.recorded, one.recorded);
        EXPECT_EQ(many.retained, one.retained);
        for (int s = 0; s < obs::kStageCount; ++s) {
            const obs::StageSummary &a =
                one.stages[static_cast<std::size_t>(s)];
            const obs::StageSummary &b =
                many.stages[static_cast<std::size_t>(s)];
            EXPECT_EQ(a.count, b.count) << "stage " << s;
            // Bit-identical, not approximately equal: the merge sorts
            // on the value key and tree-sums, so the worker
            // distribution must not change a single bit.
            EXPECT_EQ(a.total_ms, b.total_ms) << "stage " << s;
            EXPECT_EQ(a.min_ms, b.min_ms) << "stage " << s;
            EXPECT_EQ(a.max_ms, b.max_ms) << "stage " << s;
        }
    }
}

TEST(ObsPerfRecorder, RingWraparoundKeepsNewestSamples)
{
    obs::PerfRecorder recorder(8);
    EXPECT_EQ(recorder.ringCapacity(), 8u);
    for (int i = 1; i <= 11; ++i)
        recorder.addSample(obs::Stage::Job, static_cast<double>(i));

    const obs::PerfSummary sum = recorder.summary();
    EXPECT_EQ(sum.recorded, 11u);
    EXPECT_EQ(sum.retained, 8u);

    std::vector<double> durs;
    for (const obs::PerfSample &s : recorder.samples())
        durs.push_back(s.dur_ms);
    std::sort(durs.begin(), durs.end());
    ASSERT_EQ(durs.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(durs[static_cast<std::size_t>(i)],
                         static_cast<double>(i + 4));  // 4..11 survive
}

TEST(ObsPerfRecorder, FrameTagTagsSamplesAndRestoresOnExit)
{
    obs::PerfRecorder recorder;
    {
        obs::FrameTag tag(7, 3);
        recorder.record(obs::Stage::Raster, obs::tickNow(), 1.0);
        {
            obs::FrameTag inner(8, 4);
            recorder.record(obs::Stage::Raster, obs::tickNow(), 2.0);
        }
        recorder.record(obs::Stage::Raster, obs::tickNow(), 3.0);
    }
    recorder.record(obs::Stage::Raster, obs::tickNow(), 4.0);

    std::vector<obs::PerfSample> samples = recorder.samples();
    ASSERT_EQ(samples.size(), 4u);
    std::sort(samples.begin(), samples.end(),
              [](const obs::PerfSample &a, const obs::PerfSample &b) {
                  return a.dur_ms < b.dur_ms;
              });
    EXPECT_EQ(samples[0].session, 7);
    EXPECT_EQ(samples[0].frame, 3);
    EXPECT_EQ(samples[1].session, 8);
    EXPECT_EQ(samples[1].frame, 4);
    EXPECT_EQ(samples[2].session, 7);  // inner tag restored
    EXPECT_EQ(samples[2].frame, 3);
    EXPECT_EQ(samples[3].session, -1);  // outer tag restored
    EXPECT_EQ(samples[3].frame, -1);
}

TEST(ObsPerfRecorder, RuntimeDisableDropsSamplesAndResetClears)
{
    obs::PerfRecorder recorder;
    recorder.setEnabled(false);
    EXPECT_FALSE(recorder.enabled());
    recorder.addSample(obs::Stage::Job, 1.0);
    EXPECT_EQ(recorder.summary().retained, 0u);

    recorder.setEnabled(true);
    recorder.addSample(obs::Stage::Job, 1.0);
    EXPECT_EQ(recorder.summary().retained, 1u);

    recorder.reset();
    const obs::PerfSummary sum = recorder.summary();
    EXPECT_EQ(sum.recorded, 0u);
    EXPECT_EQ(sum.retained, 0u);
}

TEST(ObsPerfRecorder, FrameTagSumsTheInnermostTagsDurationsPerStage)
{
    obs::PerfRecorder recorder;
    obs::FrameTag outer(1, 1);
    recorder.record(obs::Stage::Raster, obs::tickNow(), 1.0);
    {
        obs::FrameTag inner(2, 2);
        recorder.record(obs::Stage::Raster, obs::tickNow(), 2.0);
        recorder.record(obs::Stage::Warp, obs::tickNow(), 4.0);
        // Switched off, the recorder keeps no sample but still feeds
        // the frame's totals.
        recorder.setEnabled(false);
        recorder.record(obs::Stage::Raster, obs::tickNow(), 8.0);
        recorder.setEnabled(true);
        // An explicitly tagged sample is no frame's cost.
        recorder.addSample(obs::Stage::Raster, 16.0);
        EXPECT_EQ(inner.ms(obs::Stage::Raster), 10.0);
        EXPECT_EQ(inner.ms(obs::Stage::Warp), 4.0);
        EXPECT_EQ(inner.ms(obs::Stage::Preprocess), 0.0);
        EXPECT_EQ(outer.ms(obs::Stage::Raster), 1.0);  // shadowed
    }
    recorder.record(obs::Stage::Raster, obs::tickNow(), 32.0);
    EXPECT_EQ(outer.ms(obs::Stage::Raster), 33.0);  // resumed
    EXPECT_EQ(outer.ms(obs::Stage::Warp), 0.0);
    EXPECT_EQ(recorder.summary().retained, 5u);
}

TEST(ObsPerfRecorder, SummaryJsonListsNonZeroStages)
{
    obs::PerfRecorder recorder;
    recorder.addSample(obs::Stage::Raster, 2.0);
    recorder.addSample(obs::Stage::Raster, 4.0);
    const std::string json = obs::perfSummaryJson(recorder.summary());
    EXPECT_NE(json.find("\"raster\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"total_ms\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"min_ms\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"max_ms\": 4"), std::string::npos);
    // Stages never recorded are omitted.
    EXPECT_EQ(json.find("\"warp\""), std::string::npos);
}

// ---- Trace export (enabled builds) ----

TEST(ObsTraceExport, EmitsThreadMetadataAndTaggedCompleteEvents)
{
    obs::PerfRecorder recorder;
    recorder.addSample(obs::Stage::Raster, 2.0,
                       obs::SampleTag{3, 5, 0});
    recorder.addSample(obs::Stage::Queue, 1.0);  // untagged: no args

    const std::string json = obs::traceJson(recorder);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"raster\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"queue\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"session\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"frame\": 5"), std::string::npos);
}

// ---- Metrics registry (enabled builds) ----

TEST(ObsMetricsRegistry, InstrumentsAccumulateAndExport)
{
    obs::MetricsRegistry registry;

    obs::Counter &c = registry.counter("test.counter");
    EXPECT_EQ(&c, &registry.counter("test.counter"));  // stable ref
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5);

    obs::Gauge &g = registry.gauge("test.gauge");
    EXPECT_DOUBLE_EQ(g.min(), 0.0);  // empty gauge reads zero
    EXPECT_DOUBLE_EQ(g.max(), 0.0);
    g.set(3.0);
    g.set(1.0);
    g.set(2.0);
    EXPECT_EQ(g.count(), 3);
    EXPECT_DOUBLE_EQ(g.last(), 2.0);
    EXPECT_DOUBLE_EQ(g.mean(), 2.0);
    EXPECT_DOUBLE_EQ(g.min(), 1.0);
    EXPECT_DOUBLE_EQ(g.max(), 3.0);

    obs::Histogram &h = registry.histogram("test.hist_ms");
    h.record(0.5);
    h.record(0.5);
    h.record(std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.count(), 3);
    EXPECT_EQ(h.bucketCount(obs::HistogramBuckets::bucketIndex(0.5)),
              2);
    EXPECT_EQ(h.bucketCount(obs::HistogramBuckets::kBuckets - 1), 1);

    const std::string json = registry.toJson();
    EXPECT_NE(json.find("\"test.counter\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"test.gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"test.hist_ms\""), std::string::npos);
    // The overflow bucket serializes as the string "inf" (JSON has no
    // Infinity literal).
    EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);

    registry.resetAll();
    EXPECT_EQ(c.value(), 0);
    EXPECT_EQ(g.count(), 0);
    EXPECT_EQ(h.count(), 0);
}

#else // !GCC3D_OBS_ENABLED

// ---- Disabled build: every hook is a documented no-op ----

TEST(ObsDisabled, StubsAreInertAndExportsAreEmpty)
{
    obs::PerfRecorder &recorder = obs::PerfRecorder::global();
    EXPECT_FALSE(recorder.enabled());
    recorder.addSample(obs::Stage::Raster, 2.0);
    {
        obs::PerfScope scope(obs::Stage::Raster);
        obs::StageTimer timer;
        timer.lap(obs::Stage::Binning);
        obs::FrameTag tag(1, 2);
        recorder.record(obs::Stage::Raster, obs::tickNow(), 1.0);
        EXPECT_EQ(tag.ms(obs::Stage::Raster), 0.0);
    }
    EXPECT_EQ(recorder.summary().recorded, 0u);
    EXPECT_TRUE(recorder.samples().empty());
    EXPECT_EQ(recorder.ringCapacity(), 0u);

    obs::Counter &c = obs::MetricsRegistry::global().counter("x");
    c.add(7);
    EXPECT_EQ(c.value(), 0);

    const std::string trace = obs::traceJson();
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    const std::string metrics =
        obs::MetricsRegistry::global().toJson();
    EXPECT_NE(metrics.find("\"counters\": {}"), std::string::npos);
}

#endif // GCC3D_OBS_ENABLED

} // namespace
