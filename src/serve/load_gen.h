/**
 * @file
 * Open-loop load generator: Poisson arrivals, diurnal ramps, churn.
 *
 * A closed-loop fleet (buildFleet) starts every session at t=0 and lets the scheduler's own backpressure set the
 * pace — that can never show overload collapse, because the offered
 * load adapts to the achieved throughput.  This generator is
 * open-loop: sessions arrive on a fixed timeline (inhomogeneous
 * Poisson process with a sinusoidal diurnal envelope, thinning
 * method), stay for a bounded random number of frames, and leave —
 * regardless of whether the service keeps up.  Sweeping the rate
 * multiplier up produces the goodput-vs-offered-load curve.
 *
 * Determinism: all draws are counter-indexed hashes of the seed
 * (serve/chaos.h mixers) — the arrival table is a pure function of
 * the config, independent of thread count or wall clock.
 */

#ifndef GCC3D_SERVE_LOAD_GEN_H
#define GCC3D_SERVE_LOAD_GEN_H

#include <cstdint>
#include <vector>

namespace gcc3d::serve {

struct LoadGenConfig
{
    std::uint64_t seed = 1;
    double base_rate_hz = 4.0;       ///< mean arrival rate at envelope = 1
    double rate_multiplier = 1.0;    ///< offered-load sweep knob
    double duration_ms = 2000.0;     ///< arrival window (sessions may outlive it)
    double diurnal_amplitude = 0.0;  ///< [0,1): rate swings ±amplitude
    double diurnal_period_ms = 1000.0;
    int frames_min = 4;              ///< session length bounds (churn)
    int frames_max = 16;
    float fps_target = 30.0f;        ///< paced deadline target per session
    std::size_t max_sessions = 4096; ///< hard cap, guards sweep explosions
};

/** One simulated client: joins at start_ms, requests `frames` paced
 *  frames, then leaves.  scene/renderer slots index into whatever
 *  lists the fleet builder round-robins over. */
struct SessionArrival
{
    double start_ms = 0.0;
    int frames = 0;
    std::size_t scene_slot = 0;
    std::size_t renderer_slot = 0;
    float fps_target = 30.0f;
};

/** Pure function of the config — same table for any thread count. */
std::vector<SessionArrival> generateArrivals(const LoadGenConfig &config);

/** Total frames requested across all arrivals. */
std::uint64_t totalOfferedFrames(const std::vector<SessionArrival> &arrivals);

}  // namespace gcc3d::serve

#endif  // GCC3D_SERVE_LOAD_GEN_H
