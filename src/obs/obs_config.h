/**
 * @file
 * Compile-time gate of the observability subsystem.
 *
 * The obs layer (PerfRecorder, MetricsRegistry, trace export) is
 * always-on by default under a hard cheapness contract: the recorder
 * hooks cost < 3% on the preset scenes (the obs_overhead contract of
 * bench/contracts enforces this with a non-zero exit).  For deployments that want the
 * hooks gone entirely, the CMake option GCC3D_OBS=OFF defines
 * GCC3D_OBS_DISABLED (PUBLIC, so the whole tree agrees on the ABI)
 * and every obs type in this module collapses to an empty no-op stub
 * with identical signatures — call sites compile unchanged.
 *
 * What stays real in a disabled build: obs::tickNow() and msBetween()
 * arithmetic.  Pacing, SLO latency accounting and shutdown timeouts
 * are *behavior*, not observability; they keep reading the sanctioned
 * clock.  What becomes a no-op: every sample/counter/histogram
 * record, so FrameTag stage totals (a served frame's FrameStageCost),
 * traces and metrics read as zero/empty.
 */

#ifndef GCC3D_OBS_OBS_CONFIG_H
#define GCC3D_OBS_OBS_CONFIG_H

#if defined(GCC3D_OBS_DISABLED)
#define GCC3D_OBS_ENABLED 0
#else
#define GCC3D_OBS_ENABLED 1
#endif

#endif // GCC3D_OBS_OBS_CONFIG_H
