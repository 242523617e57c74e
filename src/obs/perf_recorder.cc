#include "obs/perf_recorder.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace gcc3d::obs {

std::string
perfSummaryJson(const PerfSummary &summary)
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\"recorded\": " << summary.recorded
       << ", \"retained\": " << summary.retained << ",\n   \"stages\": {";
    bool first = true;
    for (int i = 0; i < kStageCount; ++i) {
        const StageSummary &s = summary.stages[static_cast<std::size_t>(i)];
        if (s.count == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "\n    \"" << stageName(static_cast<Stage>(i))
           << "\": {\"count\": " << s.count
           << ", \"total_ms\": " << s.total_ms
           << ", \"mean_ms\": " << s.total_ms / static_cast<double>(s.count)
           << ", \"min_ms\": " << s.min_ms << ", \"max_ms\": " << s.max_ms
           << ", \"recent\": [";
        for (std::size_t k = 0; k < s.recent.size(); ++k)
            os << (k != 0 ? ", " : "") << s.recent[k];
        os << "]}";
    }
    os << (first ? "}" : "\n  }") << "}";
    return os.str();
}

#if GCC3D_OBS_ENABLED

namespace {

/**
 * Pairwise (tree) summation over @p n already-ordered values: the
 * reduction shape depends only on n, so a fixed ordered sequence
 * always sums to the same bits — and with less rounding drift than a
 * left fold.
 */
double
treeSum(const double *v, std::size_t n)
{
    if (n == 0)
        return 0.0;
    if (n == 1)
        return v[0];
    const std::size_t half = n / 2;
    return treeSum(v, half) + treeSum(v + half, n - half);
}

/** Sort key making a sample multiset's merge order distribution-
 *  independent: value fields only, no thread or wall-clock terms
 *  (equal-key duplicates are interchangeable for summation). */
bool
mergeKeyLess(const PerfSample &a, const PerfSample &b)
{
    if (a.stage != b.stage)
        return a.stage < b.stage;
    if (a.session != b.session)
        return a.session < b.session;
    if (a.frame != b.frame)
        return a.frame < b.frame;
    if (a.seq != b.seq)
        return a.seq < b.seq;
    return a.dur_ms < b.dur_ms;
}

std::uint64_t
nextRecorderId()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/** Innermost live FrameTag of the calling thread; null = untagged. */
thread_local FrameTag *t_frame_tag = nullptr;

} // namespace

PerfRecorder::PerfRecorder(std::size_t ring_capacity)
    : id_(nextRecorderId()), capacity_(std::max<std::size_t>(1, ring_capacity)),
      epoch_(monotonicNow())
{
}

PerfRecorder::~PerfRecorder() = default;

PerfRecorder &
PerfRecorder::global()
{
    static PerfRecorder recorder;
    return recorder;
}

PerfRecorder::ThreadLog &
PerfRecorder::threadLog()
{
    // One-entry cache: (recorder id, log) of the last recorder this
    // thread recorded into.  Ids are process-unique, so a recorder
    // destroyed and another allocated at the same address can never
    // revive a stale pointer.
    thread_local std::uint64_t cached_id = 0;
    thread_local ThreadLog *cached_log = nullptr;
    if (cached_id == id_)
        return *cached_log;

    MutexLock lock(mutex_);
    auto [it, inserted] = index_.try_emplace(std::this_thread::get_id(),
                                             logs_.size());
    if (inserted)
        logs_.push_back(std::make_unique<ThreadLog>(capacity_));
    ThreadLog *log = logs_[it->second].get();
    cached_id = id_;
    cached_log = log;
    return *log;
}

void
PerfRecorder::record(Stage stage, MonoTime start, double dur_ms)
{
    // A frame's stage costs are fed even with recording switched off.
    FrameTag *tag = t_frame_tag;
    if (tag != nullptr)
        tag->ms_[static_cast<std::size_t>(stage)] += dur_ms;
    if (!enabled())
        return;
    ThreadLog &log = threadLog();
    PerfSample &s = log.ring[log.head];
    s.start_us =
        std::chrono::duration<double, std::micro>(start - epoch_).count();
    s.dur_ms = dur_ms;
    s.session = tag != nullptr ? tag->session_ : -1;
    s.frame = tag != nullptr ? tag->frame_ : -1;
    s.seq = 0;
    s.thread = -1;
    s.stage = stage;
    log.head = log.head + 1 == log.ring.size() ? 0 : log.head + 1;
    ++log.recorded;
}

void
PerfRecorder::addSample(Stage stage, double dur_ms, SampleTag tag)
{
    if (!enabled())
        return;
    ThreadLog &log = threadLog();
    PerfSample &s = log.ring[log.head];
    // Back-date the span to end now.
    s.start_us =
        std::chrono::duration<double, std::micro>(monotonicNow() - epoch_)
            .count() -
        dur_ms * 1000.0;
    s.dur_ms = dur_ms;
    s.session = tag.session;
    s.frame = tag.frame;
    s.seq = tag.seq;
    s.thread = -1;
    s.stage = stage;
    log.head = log.head + 1 == log.ring.size() ? 0 : log.head + 1;
    ++log.recorded;
}

std::vector<PerfSample>
PerfRecorder::samples() const
{
    std::vector<PerfSample> out;
    {
        MutexLock lock(mutex_);
        for (std::size_t t = 0; t < logs_.size(); ++t) {
            const ThreadLog &log = *logs_[t];
            const std::size_t cap = log.ring.size();
            const std::size_t n =
                log.recorded < cap ? static_cast<std::size_t>(log.recorded)
                                   : cap;
            // Oldest first: a wrapped ring starts at head.
            const std::size_t first = log.recorded < cap ? 0 : log.head;
            for (std::size_t k = 0; k < n; ++k) {
                PerfSample s = log.ring[(first + k) % cap];
                s.thread = static_cast<std::int32_t>(t);
                out.push_back(s);
            }
        }
    }
    std::sort(out.begin(), out.end(),
              [](const PerfSample &a, const PerfSample &b) {
                  if (a.start_us != b.start_us)
                      return a.start_us < b.start_us;
                  if (a.thread != b.thread)
                      return a.thread < b.thread;
                  return a.seq < b.seq;
              });
    return out;
}

PerfSummary
PerfRecorder::summary() const
{
    PerfSummary sum;
    std::vector<PerfSample> all = samples();  // chronological
    sum.retained = all.size();
    {
        MutexLock lock(mutex_);
        for (const std::unique_ptr<ThreadLog> &log : logs_)
            sum.recorded += log->recorded;
    }

    // Rolling histories come from chronological order; the aggregate
    // accumulation from the value-key order (see mergeKeyLess).
    for (const PerfSample &s : all) {
        StageSummary &st = sum.stages[static_cast<std::size_t>(s.stage)];
        st.recent.push_back(s.dur_ms);
        if (st.recent.size() > kHistory)
            st.recent.erase(st.recent.begin());
    }

    std::stable_sort(all.begin(), all.end(), mergeKeyLess);
    std::size_t i = 0;
    while (i < all.size()) {
        const Stage stage = all[i].stage;
        std::size_t j = i;
        while (j < all.size() && all[j].stage == stage)
            ++j;
        StageSummary &st = sum.stages[static_cast<std::size_t>(stage)];
        std::vector<double> durs;
        durs.reserve(j - i);
        for (std::size_t k = i; k < j; ++k)
            durs.push_back(all[k].dur_ms);
        st.count = static_cast<std::int64_t>(durs.size());
        st.total_ms = treeSum(durs.data(), durs.size());
        st.min_ms = *std::min_element(durs.begin(), durs.end());
        st.max_ms = *std::max_element(durs.begin(), durs.end());
        i = j;
    }
    return sum;
}

void
PerfRecorder::reset()
{
    MutexLock lock(mutex_);
    for (std::unique_ptr<ThreadLog> &log : logs_) {
        log->head = 0;
        log->recorded = 0;
    }
}

FrameTag::FrameTag(std::int32_t session, std::int32_t frame)
    : session_(session), frame_(frame), outer_(t_frame_tag)
{
    t_frame_tag = this;
}

FrameTag::~FrameTag()
{
    t_frame_tag = outer_;
}

#else // !GCC3D_OBS_ENABLED

PerfRecorder &
PerfRecorder::global()
{
    static PerfRecorder recorder;
    return recorder;
}

#endif // GCC3D_OBS_ENABLED

} // namespace gcc3d::obs
