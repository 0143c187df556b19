/**
 * @file
 * The host sequence every runner shares: device config, device,
 * preload and pre-age, measured window, request drive and drain. An
 * open loop (runPreset, runTrace, fleet members) offers requests at
 * their arrival times and opens its window at a simulated time; a
 * closed loop (runClosedLoop, runZnsWorkload) keeps a fixed queue depth
 * in flight and opens its window at a request count.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>

#include "ssd/ssd.hh"
#include "workload/runner.hh"
#include "workload/synthetic.hh"

namespace ida::workload {

enum class Arrivals : std::uint8_t { Open, Closed };

using WallClock = std::chrono::steady_clock;

/**
 * The device config a runner runs. A given @p refresh_period replaces
 * the device's, scanned every 1/64 of it (at least 1 s). A closed loop
 * lasts seconds, so its preload ages 1 s and the prep wave refreshes
 * it before traffic; an open loop spreads the age over its warm-up
 * window (when @p duration is known), so the measured window sees
 * resident data refreshed once.
 */
ssd::SsdConfig hostConfig(const ssd::SsdConfig &device, Arrivals arrivals,
                          std::optional<sim::Time> refresh_period,
                          double warmup_fraction = 0.0,
                          sim::Time duration = sim::Time{});

/** A runner's device, folding trace spans when tracing is compiled in. */
std::unique_ptr<ssd::Ssd> makeDevice(const ssd::SsdConfig &cfg);

/** The footprint a runner preloads: at most 70% of the capacity (it
 *  only binds on the small MLC/QLC geometries). */
inline std::uint64_t
clampFootprint(std::uint64_t pages, std::uint64_t logical)
{
    return std::min<std::uint64_t>(
        pages, static_cast<std::uint64_t>(0.7 * static_cast<double>(logical)));
}

/**
 * Apply @p preset's pre-age writes (its generator reseeded, cut to
 * prewriteFraction of its length) instantly through @p sink, an
 * ftl::Ftl or a fleet::Fleet, so blocks carry realistic invalid pages
 * when the first refreshes hit.
 */
template <typename Sink>
void
preAge(const WorkloadPreset &preset, std::uint64_t footprint, Sink &sink)
{
    if (preset.prewriteFraction <= 0.0)
        return;
    SyntheticConfig pc = preset.synth;
    pc.seed = preset.synth.seed ^ 0x5eedu;
    pc.totalRequests = static_cast<std::uint64_t>(
        static_cast<double>(pc.totalRequests) * preset.prewriteFraction);
    SyntheticTrace pre(pc);
    IoRequest w;
    while (pre.next(w)) {
        if (w.isRead || w.isTrim)
            continue;
        const flash::Lpn start = footprint > 0 ? w.startPage % footprint : 0;
        for (std::uint32_t i = 0; i < w.pageCount && start + i < footprint;
             ++i)
            sink.preloadWrite(start + i);
    }
    sink.finalizePreload();
}

/** Open an open loop's measured window at @p start: arrivals from then
 *  on are measured, and read classification restarts then. */
void openWindowAt(ssd::Ssd &ssd, sim::Time start);

/** Start @p ssd, run it to @p horizon, drain (bounded) and harvest. */
RunResult runOpenLoop(ssd::Ssd &ssd, sim::Time horizon,
                      const std::string &label, std::uint64_t footprint,
                      WallClock::time_point wall0);

/**
 * The closed-loop driver. A pump issues one request, after asking
 * admit(), whose completion calls the pump again; the measured window
 * opens after the first warmup_fraction of the requests. The run's
 * wall time counts from construction, so construct it first.
 */
class ClosedLoop
{
  public:
    /** @throws std::invalid_argument when @p queue_depth < 1. */
    ClosedLoop(int queue_depth, double warmup_fraction,
               std::uint64_t total_requests);

    /** Count the next request when @p have, else mark the source dry.
     *  Returns @p have. */
    bool admit(ssd::Ssd &ssd, bool have);

    std::uint64_t submitted() const { return submitted_; }

    /** Start @p ssd, finish its initial refresh wave, prime queue-depth
     *  pumps, run until dry and drained (bounded) and harvest. */
    RunResult run(ssd::Ssd &ssd, const std::function<bool()> &pump,
                  const std::string &label, std::uint64_t footprint);

  private:
    WallClock::time_point wall0_ = WallClock::now();
    int queueDepth_;
    std::uint64_t warmCount_;
    std::uint64_t submitted_ = 0;
    bool exhausted_ = false;
};

} // namespace ida::workload
