#include "workload/runner.hh"

#include <algorithm>

#include "ftl/gauges.hh"
#include "trace/recorder.hh"
#include "workload/host.hh"

namespace ida::workload {

double
RunResult::normalizedReadResp(const RunResult &base) const
{
    if (base.readRespUs <= 0.0)
        return 0.0;
    return readRespUs / base.readRespUs;
}

double
RunResult::readImprovement(const RunResult &base) const
{
    return 1.0 - normalizedReadResp(base);
}

namespace {

/**
 * Largest span handed to one Ssd::submitBatch call. It bounds only that
 * span: every request is admitted into the device before the kernel
 * runs, so admitted state still grows with the trace.
 */
constexpr std::size_t kSubmitBatch = 256;

/** @p r arriving at @p arrival, folded into the preloaded footprint so
 *  every read is mapped. */
ssd::HostRequest
toHostRequest(const IoRequest &r, sim::Time arrival, std::uint64_t footprint)
{
    ssd::HostRequest hr;
    hr.arrival = arrival;
    hr.isRead = r.isRead;
    hr.isTrim = r.isTrim;
    hr.startSector = r.startSector;
    hr.sectorCount = r.sectorCount;
    hr.startPage = footprint > 0 ? r.startPage % footprint : 0;
    hr.pageCount = r.pageCount;
    if (hr.startPage + hr.pageCount > footprint)
        hr.startPage =
            footprint - std::min<std::uint64_t>(hr.pageCount, footprint);
    return hr;
}

RunResult
runStream(const ssd::SsdConfig &device, TraceStream &trace,
          std::uint64_t footprint_pages, sim::Time refresh_period,
          double warmup_fraction, sim::Time duration_hint,
          const std::string &label, const WorkloadPreset *aging = nullptr)
{
    const auto wall0 = WallClock::now();
    const auto dev = makeDevice(hostConfig(device, Arrivals::Open,
                                           refresh_period, warmup_fraction,
                                           duration_hint));
    ssd::Ssd &ssd = *dev;
    const std::uint64_t footprint =
        clampFootprint(footprint_pages, ssd.logicalPages());
    ssd.preloadSequential(footprint);
    if (aging)
        preAge(*aging, footprint, ssd.ftl());

    // Feed the whole trace in admission batches: same-tick arrival
    // bursts (common in block traces) collapse into one arrival event
    // each inside submitBatch.
    sim::Time last_arrival{};
    IoRequest req;
    std::vector<ssd::HostRequest> batch;
    batch.reserve(kSubmitBatch);
    auto flush = [&] {
        if (!batch.empty())
            ssd.submitBatch(batch);
        batch.clear();
    };
    while (trace.next(req)) {
        last_arrival = std::max(last_arrival, req.arrival);
        // Flush on a new arrival tick (keeps runs whole) or at the cap.
        if (!batch.empty() && (batch.back().arrival != req.arrival ||
                               batch.size() >= kSubmitBatch))
            flush();
        batch.push_back(toHostRequest(req, req.arrival, footprint));
    }
    flush();

    const sim::Time horizon = std::max(duration_hint, last_arrival);
    openWindowAt(ssd, warmup_fraction * horizon);
    RunResult r = runOpenLoop(ssd, horizon, label, footprint, wall0);
    r.traceMalformedLines = trace.malformedLines();
    r.traceOutOfOrderLines = trace.outOfOrderLines();
    return r;
}

} // namespace

RunResult
harvestResult(const ssd::Ssd &ssd, const std::string &workload_label,
              std::uint64_t footprint_pages)
{
    RunResult r;
    r.workload = workload_label;
    r.system = ssd.config().systemLabel();
    const ssd::SsdStats &st = ssd.stats();
    r.readRespUs = st.readResponseUs.mean();
    r.readP99Us = st.readHist.quantile(0.99);
    r.writeRespUs = st.writeResponseUs.mean();
    r.throughputMBps = st.readThroughputMBps();
    r.measuredReads = st.readRequests;
    r.measuredWrites = st.writeRequests;
    r.ftl = ssd.backend().stats();
    r.chip = ssd.chips().stats();
    r.wear = ftl::captureWear(ssd.chips());
    r.trimRequests = st.trimRequests;
    r.pastSchedules = ssd.events().pastSchedules();
    r.partialValidPages = ftl::countPartialValidPages(
        ssd.config().geometry, ssd.chips());
    r.idaEligibleWordlines = ftl::countIdaEligibleWordlines(
        ssd.config().geometry, ssd.chips());
    if (ssd.tracer())
        r.attribution = ssd.tracer()->summary();
    if (ssd.backend().kind() == ftl::BackendKind::Zns) {
        const ftl::zns::ZnsFtl &z = ssd.backend().zns();
        r.znsBackend = true;
        r.zns = z.znsStats();
        r.zoneMgmtRequests = st.zoneMgmtRequests;
        // Every zone-table block is mapped space on a ZNS device.
        r.inUseBlocksEnd =
            std::uint64_t{z.zones()} * ssd.config().zns.blocksPerZone;
    } else {
        r.cache = ssd.ftl().readCacheStats();
        r.inUseBlocksEnd = ssd.ftl().blocks().inUseBlocks();
    }
    r.totalBlocks = ssd.config().geometry.blocks();
    r.footprintPages = footprint_pages;
    r.simulatedTime = ssd.events().now();
    return r;
}

RunResult
runPreset(const ssd::SsdConfig &device, const WorkloadPreset &preset)
{
    SyntheticTrace trace(preset.synth);
    return runStream(device, trace, preset.synth.footprintPages,
                     preset.refreshPeriod, preset.warmupFraction,
                     preset.synth.duration, preset.name, &preset);
}

RunResult
runTrace(const ssd::SsdConfig &device, TraceStream &trace,
         std::uint64_t footprint_pages, sim::Time refresh_period,
         double warmup_fraction, const std::string &label)
{
    return runStream(device, trace, footprint_pages, refresh_period,
                     warmup_fraction, sim::Time{}, label);
}

RunResult
runClosedLoop(const ssd::SsdConfig &device, const WorkloadPreset &preset,
              int queue_depth)
{
    ClosedLoop loop(queue_depth, preset.warmupFraction,
                    preset.synth.totalRequests);
    const auto dev = makeDevice(
        hostConfig(device, Arrivals::Closed, preset.refreshPeriod));
    ssd::Ssd &ssd = *dev;
    SyntheticTrace trace(preset.synth);
    const std::uint64_t footprint =
        clampFootprint(preset.synth.footprintPages, ssd.logicalPages());
    ssd.preloadSequential(footprint);
    preAge(preset, footprint, ssd.ftl());

    // Self-sustaining pump: each completion submits the next request.
    std::function<void(sim::Time)> on_done;
    const std::function<bool()> pump = [&] {
        IoRequest r;
        if (!loop.admit(ssd, trace.next(r)))
            return false;
        ssd::HostRequest hr =
            toHostRequest(r, ssd.events().now(), footprint);
        hr.onComplete = on_done;
        ssd.submit(hr);
        return true;
    };
    on_done = [&pump](sim::Time) { pump(); };
    return loop.run(ssd, pump, preset.name, footprint);
}

} // namespace ida::workload
