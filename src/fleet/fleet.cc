#include "fleet/fleet.hh"

#include <algorithm>
#include <chrono>
#include <span>
#include <sstream>

#include "sim/log.hh"
#include "stats/json_writer.hh"
#include "workload/batch.hh"
#include "workload/host.hh"

namespace ida::fleet {

namespace {

/**
 * Staging budget of one chunk: the coordinator stages whole epochs
 * until this many fleet requests are staged. Bounds the lanes' memory
 * and the wait for the next merge; members meet once per chunk.
 */
constexpr std::uint64_t kChunkRequests = 4096;

} // namespace

std::uint64_t
deviceSeed(std::uint64_t fleet_seed, std::uint32_t device)
{
    // splitmix64 over (fleet seed, member index): the same finalizer
    // workload::seedFromTag uses, one level further down the hierarchy.
    std::uint64_t h =
        fleet_seed + (std::uint64_t{device} + 1) * 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

// ida-lint: shard-root
Fleet::Fleet(const FleetConfig &cfg)
    : cfg_(cfg), map_(cfg.devices, cfg.stripePages),
      threads_(std::clamp(cfg.shards, 1, static_cast<int>(cfg.devices)))
{
    if (cfg_.epoch <= sim::Time{})
        sim::fatal("Fleet: epoch must be positive");
    // Members are independent from construction on, so they are built
    // on the lane threads too; a bad member config fails here, on the
    // calling thread.
    cfg_.device.validate();
    devices_.resize(cfg_.devices);
    workload::runParallel(cfg_.devices, threads_, [this](std::size_t d) {
        ssd::SsdConfig member = cfg_.device;
        member.seed ^= deviceSeed(cfg_.fleetSeed,
                                  static_cast<std::uint32_t>(d));
        devices_[d] = std::make_unique<ssd::Ssd>(member);
    });
    lanes_.resize(cfg_.devices);
}

std::uint64_t
Fleet::logicalPages() const
{
    return std::uint64_t{map_.devices()} * devices_[0]->logicalPages();
}

void
Fleet::preloadSequential(std::uint64_t pages)
{
    footprint_ = pages;
    for (std::uint32_t d = 0; d < map_.devices(); ++d)
        devices_[d]->preloadSequential(map_.devicePages(pages, d));
}

void
Fleet::preloadWrite(flash::Lpn fleet_lpn)
{
    devices_[map_.deviceOf(fleet_lpn)]->ftl().preloadWrite(
        map_.deviceLpn(fleet_lpn));
}

void
Fleet::finalizePreload()
{
    for (auto &dev : devices_)
        dev->ftl().finalizePreload();
}

std::uint32_t
Fleet::acquireSlot()
{
    if (freeSlot_ != kNilSlot) {
        const std::uint32_t s = freeSlot_;
        freeSlot_ = slots_[s].link;
        slots_[s] = Slot{};
        return s;
    }
    slots_.push_back(Slot{});
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
Fleet::releaseSlot(std::uint32_t slot)
{
    slots_[slot].link = freeSlot_;
    freeSlot_ = slot;
}

void
Fleet::stage(const workload::IoRequest &req, std::uint32_t epoch)
{
    const std::uint64_t space =
        footprint_ > 0 ? footprint_ : logicalPages();
    flash::Lpn start = req.startPage % space;
    std::uint32_t count = req.pageCount;
    if (count == 0)
        count = 1;
    if (start + count > space)
        start = space - std::min<std::uint64_t>(count, space);

    const std::uint32_t slot = acquireSlot();
    Slot &sl = slots_[slot];
    sl.arrival = req.arrival;
    sl.isRead = req.isRead;
    sl.isTrim = req.isTrim;
    sl.pages = count;
    ++submittedReqs_;

    std::uint32_t runs = 0;
    map_.split(start, count, [&](const StripeRun &run) {
        ssd::HostRequest hr;
        hr.arrival = req.arrival;
        hr.isRead = req.isRead;
        hr.isTrim = req.isTrim;
        hr.startPage = run.startPage;
        hr.pageCount = run.pageCount;
        Lane &lane = lanes_[run.device];
        hr.onComplete = [&lane, slot](sim::Time done) {
            // Runs inside the member's lane task, the only code touching
            // this lane until the coordinator merges the chunk.
            lane.done.push_back(SubDone{slot, lane.epoch, done});
        };
        lane.subs.push_back(hr);
        if (lane.marks.empty() || lane.marks.back().epoch != epoch)
            lane.marks.push_back(EpochMark{epoch, 0});
        lane.marks.back().end =
            static_cast<std::uint32_t>(lane.subs.size());
        ++runs;
    });
    // Sub-page ranges survive only when the request maps to a single
    // run (they cannot straddle stripes); otherwise the request widens
    // to page granularity, like the paper's page-mapped baseline.
    if (req.sectorCount != 0 && runs == 1 &&
        count == req.pageCount) {
        ssd::HostRequest &sub = lanes_[map_.deviceOf(start)].subs.back();
        sub.startSector = req.startSector;
        sub.sectorCount = req.sectorCount;
    }
    sl.pending = runs;
    stagedSubs_ += runs;
}

// ida-lint: shard-root
void
Fleet::runLane(std::uint32_t d)
{
    // Epoch by epoch: submit the epoch's sub-requests at its start, run
    // to its end. Empty epochs run too, so every completion is logged
    // with the epoch it happened in.
    Lane &lane = lanes_[d];
    ssd::Ssd &dev = *devices_[d];
    const std::span<const ssd::HostRequest> subs(lane.subs);
    std::uint32_t begin = 0;
    auto mark = lane.marks.begin();
    sim::Time end = fleetNow_;
    for (std::uint32_t e = 0; e < chunkEpochs_; ++e) {
        lane.epoch = e;
        if (mark != lane.marks.end() && mark->epoch == e) {
            dev.submitBatch(subs.subspan(begin, mark->end - begin));
            begin = mark->end;
            ++mark;
        }
        end += cfg_.epoch;
        dev.events().runUntil(end);
    }
}

void
Fleet::finishRequest(std::uint32_t slot)
{
    const Slot &sl = slots_[slot];
    ++completedReqs_;
    if (sl.arrival >= measureStart_ && !sl.isTrim) {
        const double us = sim::toUsec(sl.lastDone - sl.arrival);
        if (sl.isRead) {
            readRespUs_.add(us);
            readHist_.add(us);
            ++measuredReads_;
            bytesRead_ += std::uint64_t{sl.pages} *
                          cfg_.device.geometry.pageSizeBytes;
        } else {
            writeRespUs_.add(us);
            ++measuredWrites_;
        }
        lastCompletion_ = std::max(lastCompletion_, sl.lastDone);
    }
    releaseSlot(slot);
}

void
Fleet::mergeCompletions()
{
    // Epoch-major, then device-index order: the one place completions
    // from different members meet, so the order depends on neither the
    // thread layout nor the chunking.
    std::vector<std::size_t> cursor(map_.devices(), 0);
    for (;;) {
        std::uint32_t epoch = chunkEpochs_;
        for (std::uint32_t d = 0; d < map_.devices(); ++d) {
            const std::vector<SubDone> &log = lanes_[d].done;
            if (cursor[d] < log.size())
                epoch = std::min(epoch, log[cursor[d]].epoch);
        }
        if (epoch == chunkEpochs_)
            break;
        for (std::uint32_t d = 0; d < map_.devices(); ++d) {
            const std::vector<SubDone> &log = lanes_[d].done;
            std::size_t &at = cursor[d];
            for (; at < log.size() && log[at].epoch == epoch; ++at) {
                Slot &sl = slots_[log[at].slot];
                sl.lastDone = std::max(sl.lastDone, log[at].done);
                ++completedSubs_;
                if (--sl.pending == 0)
                    finishRequest(log[at].slot);
            }
        }
    }
    for (Lane &lane : lanes_) {
        lane.subs.clear();
        lane.marks.clear();
        lane.done.clear();
    }
}

std::uint64_t
Fleet::pendingSubRequests() const
{
    std::uint64_t pending = 0;
    // The free list marks dead slots; count pendings of live ones.
    std::vector<char> dead(slots_.size(), 0);
    for (std::uint32_t f = freeSlot_; f != kNilSlot; f = slots_[f].link)
        dead[f] = 1;
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
        if (!dead[s])
            pending += slots_[s].pending;
    }
    return pending;
}

bool
Fleet::allDrained() const
{
    return std::all_of(devices_.begin(), devices_.end(),
                       [](const auto &d) { return d->drained(); });
}

FleetResult
Fleet::run(workload::TraceStream &trace, const FleetRunOptions &opt)
{
    const auto wall0 = std::chrono::steady_clock::now();

    measureStart_ = opt.measureStart;
    for (auto &dev : devices_) {
        workload::openWindowAt(*dev, opt.measureStart);
        dev->start();
    }

    workload::IoRequest req;
    bool have = trace.next(req);
    sim::Time lastArrival{};

    for (;;) {
        // Stage whole epochs up to the first boundary after the budget;
        // once the trace is exhausted, every chunk is one epoch.
        sim::Time end = fleetNow_;
        std::uint64_t staged = 0;
        chunkEpochs_ = 0;
        do {
            end += cfg_.epoch;
            while (have && req.arrival < end) {
                lastArrival = std::max(lastArrival, req.arrival);
                stage(req, chunkEpochs_);
                ++staged;
                have = trace.next(req);
            }
            ++chunkEpochs_;
        } while (have && staged < kChunkRequests);

        workload::runParallel(map_.devices(), threads_,
                              [this](std::size_t d) {
                                  runLane(static_cast<std::uint32_t>(d));
                              });
        fleetNow_ = end;
        mergeCompletions();
        if (!have && openRequests() == 0 && allDrained())
            break;
        const sim::Time drainLimit =
            std::max(opt.horizon, lastArrival) + 10 * sim::kMin;
        if (!have && fleetNow_ >= drainLimit) {
            sim::warn("fleet: did not drain within the limit");
            break;
        }
    }

    FleetResult res;
    res.workload = opt.label;
    res.system = devices_[0]->config().systemLabel();
    res.devices = map_.devices();
    res.stripePages = map_.stripePages();
    res.readRespUs = readRespUs_.mean();
    res.readP99Us = readHist_.quantile(0.99);
    res.writeRespUs = writeRespUs_.mean();
    const sim::Time window = lastCompletion_ - measureStart_;
    res.throughputMBps =
        window > sim::Time{}
            ? (static_cast<double>(bytesRead_) / (1024.0 * 1024.0)) /
                  sim::toSec(window)
            : 0.0;
    res.measuredReads = measuredReads_;
    res.measuredWrites = measuredWrites_;
    res.subRequestsStaged = stagedSubs_;
    res.subRequestsCompleted = completedSubs_;
    res.simulatedTime = fleetNow_;

    stats::Summary devRead;
    stats::Histogram devHist{1.0, 1.25, 96};
    res.perDevice.reserve(map_.devices());
    for (std::uint32_t d = 0; d < map_.devices(); ++d) {
        const ssd::Ssd &dev = *devices_[d];
        res.perDevice.push_back(workload::harvestResult(
            dev, opt.label, map_.devicePages(footprint_, d)));
        res.pastSchedules += dev.events().pastSchedules();
        devRead.merge(dev.stats().readResponseUs);
        devHist.merge(dev.stats().readHist);
    }
    res.deviceReadRespUs = devRead.mean();
    res.deviceReadP99Us = devHist.quantile(0.99);
    res.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
    return res;
}

void
FleetResult::writeJson(stats::JsonWriter &w, bool include_volatile) const
{
    w.beginObject();
    w.field("workload", workload);
    w.field("system", system);
    w.field("devices", std::uint64_t{devices});
    w.field("stripePages", stripePages);

    w.field("readRespUs", readRespUs);
    w.field("readP99Us", readP99Us);
    w.field("writeRespUs", writeRespUs);
    w.field("throughputMBps", throughputMBps);
    w.field("measuredReads", measuredReads);
    w.field("measuredWrites", measuredWrites);
    w.field("subRequestsStaged", subRequestsStaged);
    w.field("subRequestsCompleted", subRequestsCompleted);
    w.field("pastSchedules", pastSchedules);
    w.field("deviceReadRespUs", deviceReadRespUs);
    w.field("deviceReadP99Us", deviceReadP99Us);
    w.field("simulatedSec", sim::toSec(simulatedTime));

    w.key("perDevice");
    w.beginArray();
    for (const workload::RunResult &r : perDevice)
        r.writeJson(w, /*include_volatile=*/false);
    w.endArray();

    if (include_volatile)
        w.field("wallSeconds", wallSeconds);
    w.endObject();
}

std::string
FleetResult::toJson(bool include_volatile) const
{
    std::ostringstream os;
    stats::JsonWriter w(os);
    writeJson(w, include_volatile);
    return os.str();
}

FleetResult
runFleetPreset(const FleetConfig &cfg,
               const workload::WorkloadPreset &preset)
{
    FleetConfig fc = cfg;
    fc.device = workload::hostConfig(
        cfg.device, workload::Arrivals::Open, preset.refreshPeriod,
        preset.warmupFraction, preset.synth.duration);
    Fleet fleet(fc);
    const std::uint64_t footprint = workload::clampFootprint(
        preset.synth.footprintPages, fleet.logicalPages());
    fleet.preloadSequential(footprint);
    workload::preAge(preset, footprint, fleet);

    workload::SyntheticTrace trace(preset.synth);
    FleetRunOptions opt;
    opt.measureStart = preset.warmupFraction * preset.synth.duration;
    opt.horizon = preset.synth.duration;
    opt.label = preset.name;
    return fleet.run(trace, opt);
}

} // namespace ida::fleet
