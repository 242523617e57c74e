/**
 * @file
 * Chrome/Perfetto trace-event export of the perf recorder's retained
 * samples, plus the combined observability JSON block apps embed in
 * their --metrics-out files.
 *
 * The trace format is the Chrome "trace event" JSON object form
 * (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
 * one complete ("ph": "X") event per sample with ts/dur in
 * microseconds since the recorder epoch, tid = recording-thread
 * index, and session/frame args when tagged.  Open the file directly
 * in chrome://tracing or ui.perfetto.dev.
 *
 * Layering note: obs sits below runtime in the module DAG, so these
 * helpers return strings and the caller (app/bench) writes the file —
 * typically via runtime/result_table.h.
 *
 * In a GCC3D_OBS=OFF build the recorder retains nothing, so both
 * helpers return valid-but-empty documents.
 */

#ifndef GCC3D_OBS_TRACE_EXPORT_H
#define GCC3D_OBS_TRACE_EXPORT_H

#include <string>

#include "obs/perf_recorder.h"

namespace gcc3d::obs {

/** Chrome trace-event JSON of @p recorder's retained samples. */
std::string traceJson(const PerfRecorder &recorder);

/** Same, for the global recorder. */
std::string traceJson();

/** {"stages": <perfSummaryJson>, "metrics": <registry toJson>} —
 *  the block apps write for --metrics-out. */
std::string observabilityJson();

} // namespace gcc3d::obs

#endif // GCC3D_OBS_TRACE_EXPORT_H
