#include "workload/host.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/log.hh"
#include "trace/recorder.hh"

namespace ida::workload {

namespace {

/** Bound on a closed loop's prep wave and on its run. */
constexpr sim::Time kClosedLoopLimit = 30ll * 24 * sim::kHour;

RunResult
harvestTimed(const ssd::Ssd &ssd, const std::string &label,
             std::uint64_t footprint, WallClock::time_point wall0)
{
    RunResult r = harvestResult(ssd, label, footprint);
    r.wallSeconds =
        std::chrono::duration<double>(WallClock::now() - wall0).count();
    return r;
}

} // namespace

ssd::SsdConfig
hostConfig(const ssd::SsdConfig &device, Arrivals arrivals,
           std::optional<sim::Time> refresh_period, double warmup_fraction,
           sim::Time duration)
{
    ssd::SsdConfig cfg = device;
    if (refresh_period) {
        cfg.ftl.refreshPeriod = *refresh_period;
        cfg.ftl.refreshCheckInterval =
            std::max<sim::Time>(*refresh_period / 64, sim::kSec);
    }
    if (arrivals == Arrivals::Closed)
        cfg.ftl.preloadAgeSpread = sim::kSec;
    else if (duration > sim::Time{})
        cfg.ftl.preloadAgeSpread =
            std::max(warmup_fraction * duration, sim::kSec);
    return cfg;
}

std::unique_ptr<ssd::Ssd>
makeDevice(const ssd::SsdConfig &cfg)
{
    auto ssd = std::make_unique<ssd::Ssd>(cfg);
    // No span retention, so memory stays fixed however long the run.
    if (trace::compiledIn())
        ssd->enableTracing();
    return ssd;
}

void
openWindowAt(ssd::Ssd &ssd, sim::Time start)
{
    ssd.setMeasureStart(start);
    ssd::Ssd *dev = &ssd;
    ssd.events().schedule(start,
                          [dev] { dev->backend().resetReadClassification(); });
}

RunResult
runOpenLoop(ssd::Ssd &ssd, sim::Time horizon, const std::string &label,
            std::uint64_t footprint, WallClock::time_point wall0)
{
    ssd.start();
    ssd.events().runUntil(horizon);
    const sim::Time drain_limit = horizon + 10 * sim::kMin;
    while (!ssd.drained() && ssd.events().now() < drain_limit)
        ssd.events().runUntil(ssd.events().now() + sim::kSec);
    if (!ssd.drained())
        sim::warn("runner: device did not drain within the limit");
    return harvestTimed(ssd, label, footprint, wall0);
}

ClosedLoop::ClosedLoop(int queue_depth, double warmup_fraction,
                       std::uint64_t total_requests)
    : queueDepth_(queue_depth),
      warmCount_(static_cast<std::uint64_t>(
          warmup_fraction * static_cast<double>(total_requests)))
{
    if (queue_depth < 1)
        throw std::invalid_argument("closed-loop run needs queueDepth >= 1");
}

bool
ClosedLoop::admit(ssd::Ssd &ssd, bool have)
{
    if (!have) {
        exhausted_ = true;
        return false;
    }
    if (submitted_++ == warmCount_) {
        ssd.setMeasureStart(ssd.events().now());
        ssd.backend().resetReadClassification();
    }
    return true;
}

RunResult
ClosedLoop::run(ssd::Ssd &ssd, const std::function<bool()> &pump,
                const std::string &label, std::uint64_t footprint)
{
    sim::EventQueue &ev = ssd.events();
    ssd.start();
    // Prep wave: a closed loop lasts seconds of simulated time, far
    // less than a refresh scan interval, so complete the initial
    // refresh wave (which IDA-codes the resident data) before any
    // traffic is offered.
    const sim::Time prep_limit = ev.now() + kClosedLoopLimit;
    do {
        ev.runUntil(ev.now() + 10 * sim::kSec);
    } while (!ssd.backend().refreshWaveDone(ev.now()) &&
             ev.now() <= prep_limit);

    for (int i = 0; i < queueDepth_; ++i)
        if (!pump())
            break;
    const sim::Time limit = ev.now() + kClosedLoopLimit;
    while (!(exhausted_ && ssd.drained()) && ev.now() < limit &&
           !ev.empty())
        ev.runUntil(ev.now() + sim::kSec);
    if (!ssd.drained())
        sim::warn("closed loop: device did not drain within the limit");
    return harvestTimed(ssd, label, footprint, wall0_);
}

} // namespace ida::workload
