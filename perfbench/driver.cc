/**
 * @file
 * Benchmark driver: runs one benchmark workload in one mode and writes
 * one JSON document to stdout. perfbench/run.py starts one driver
 * process per measurement, so each process holds one workload and its
 * peak resident memory and exit status belong to that workload.
 *
 * Usage:
 *   perfbench_driver <mode> <workload> [--seed N]
 *
 * The first stdout line is {"offered": N}, the requests one run of the
 * workload offers; the result document follows it.
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   closed_rw      workload::runClosedLoop, QD 16, src1_0, paperTlc IDA-E20
 *   replay_cache   workload::runPreset, fig10-mix, sector mode, write
 *                  buffer and read cache on, paperTlc IDA-E20
 *   fleet_striped  fleet::runFleetPreset, 64 tiny IDA-E20 members,
 *                  stripe 8, 3 shards
 *
 * Modes:
 *   run       the public entry point itself, untraced. Reports the host
 *             wall time of the whole call and the archive digest.
 *   composed  the same work composed from the public calls the entry
 *             point makes, with a span around each call. Reports set-up
 *             time, the simulated metrics, the per-layer counters and
 *             the layer self times. Its archive digest must equal run's.
 *   quiet     composed with the per-request spans (SyntheticTrace::next,
 *             Ssd::submit) off: the set-up time users see.
 *   setup     quiet, stopped once the first measured request could be
 *             offered; reports set-up time only.
 *   shards    fleet_striped only: the archive digest at 3 shards and at
 *             1 shard, which the fleet determinism contract says agree.
 *
 * The seed is folded into the preset's generator seed (and through it
 * the pre-age stream's) and into the fleet seed. Seed 0 runs the
 * presets exactly as the paper harnesses do.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "ssd/config.hh"
#include "ssd/ssd.hh"
#include "stats/json_writer.hh"
#include "trace/recorder.hh"
#include "workload/presets.hh"
#include "workload/runner.hh"
#include "workload/synthetic.hh"

namespace {

using namespace ida;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Fold the benchmark seed into a base seed; seed 0 keeps the base. */
std::uint64_t
foldSeed(std::uint64_t base, std::uint64_t seed)
{
    return base + seed * 0x9e3779b97f4a7c15ull;
}

/** FNV-1a over the archive JSON: a short, stable digest to compare. */
std::string
digestOf(const std::string &archive)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : archive) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Kind { ClosedLoop, Replay, Fleet };

struct Workload
{
    Kind kind = Kind::ClosedLoop;
    ssd::SsdConfig device;   ///< single-device workloads
    fleet::FleetConfig fleet; ///< fleet_striped
    workload::WorkloadPreset preset;
    int queueDepth = 16;
};

ssd::SsdConfig
idaE20(ssd::SsdConfig cfg)
{
    cfg.ftl.enableIda = true;
    cfg.adjustErrorRate = 0.20;
    return cfg;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, int shards,
             Workload &w)
{
    if (name == "closed_rw") {
        // Fig. 10's saturation shape on the most write-heavy Table III
        // trace: GC and chip scheduling do real work, the cache is off.
        w.kind = Kind::ClosedLoop;
        w.device = idaE20(ssd::SsdConfig::paperTlc());
        w.preset = workload::scaled(workload::presetByName("src1_0"), 2.0);
        w.queueDepth = 16;
    } else if (name == "replay_cache") {
        // The ablation_cache_sweep device: paced arrivals, sector
        // validity, TRIMs, write buffer and a 4096-page read cache.
        w.kind = Kind::Replay;
        w.device = idaE20(ssd::SsdConfig::paperTlc());
        w.device.ftl.sectorMode = true;
        w.device.ftl.writeBuffer.capacityPages = 128;
        w.device.ftl.readCache.capacityPages = 4096;
        w.preset =
            workload::scaled(workload::presetByName("fig10-mix"), 4.0);
    } else if (name == "fleet_striped") {
        // 64 members at 80% of fleet_throughput's per-member load:
        // scaled by member count, never by per-member length. At the
        // full 3750 requests per member about a third of the seeds
        // die with "plane ran out of free blocks" (see README.md).
        w.kind = Kind::Fleet;
        w.fleet.device = idaE20(ssd::SsdConfig::tiny());
        w.fleet.devices = 64;
        w.fleet.stripePages = 8;
        w.fleet.shards = shards;
        w.fleet.epoch = 50 * sim::kMsec;
        w.fleet.fleetSeed = foldSeed(0x1da'f1ee7, seed);
        workload::WorkloadPreset &p = w.preset;
        p.name = "fleet_striped";
        p.synth.footprintPages = std::uint64_t{w.fleet.devices} * 600;
        p.synth.totalRequests = std::uint64_t{w.fleet.devices} * 3000;
        p.synth.duration = 30 * sim::kMin;
        p.synth.readRatio = 0.9;
        p.synth.seed = 17;
        p.refreshPeriod = 2 * sim::kMin;
        p.warmupFraction = 0.25;
        p.prewriteFraction = 0.3;
    } else {
        return false;
    }
    w.preset.synth.seed = foldSeed(w.preset.synth.seed, seed);
    return true;
}

// ---------------------------------------------------------------------
// Spans around the public calls
// ---------------------------------------------------------------------

/** The public calls the composed driver times, one span kind each. */
enum Call : int {
    TraceConstruct,
    TraceNext,
    DeviceConstruct,
    DeviceStart,
    Submit,
    Preload,
    PrepWave,
    RunUntil,
    FleetRun,
    Harvest,
    kCalls
};

struct CallInfo
{
    const char *name;
    const char *layer;
    bool perRequest; ///< one span per host request (off in quiet mode)
};

constexpr CallInfo kCallInfo[kCalls] = {
    {"SyntheticTrace()", "workload", false},
    {"SyntheticTrace::next", "workload", true},
    {"Ssd()/Fleet()", "ssd", false},
    {"Ssd::start", "ssd", false},
    {"Ssd::submit/submitBatch", "ssd", true},
    {"preloadSequential/preloadWrite/finalizePreload", "ftl", false},
    {"EventQueue::runUntil (refresh wave)", "sim", false},
    {"EventQueue::runUntil", "sim", false},
    {"Fleet::run", "fleet", false},
    {"harvestResult", "workload", false},
};

constexpr const char *kLayers[] = {"workload", "ssd", "ftl", "sim", "fleet"};

/**
 * Nested span recorder. Spans are folded as they end into per-call
 * totals (calls, total and self nanoseconds), so memory stays fixed
 * however many requests run; a span's self time is its duration minus
 * the spans nested in it. Top-level spans other than per-request ones
 * are also kept, merged with an adjacent span of the same call, as the
 * run's phase timeline.
 */
class Tracer
{
  public:
    explicit Tracer(bool per_request)
        : perRequest_(per_request), t0_(Clock::now())
    {
    }

    void
    begin(Call c)
    {
        if (!on(c))
            return;
        stack_.push_back(Frame{c, Clock::now(), 0});
    }

    void
    end(Call c)
    {
        if (!on(c))
            return;
        const Clock::time_point now = Clock::now();
        const Frame f = stack_.back();
        stack_.pop_back();
        const std::int64_t ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - f.start)
                .count();
        Acc &a = acc_[c];
        ++a.calls;
        a.totalNs += ns;
        a.selfNs += ns - f.childNs;
        if (!stack_.empty()) {
            stack_.back().childNs += ns;
            return;
        }
        if (kCallInfo[c].perRequest)
            return;
        const double start = toSec(f.start), stop = toSec(now);
        if (!phases_.empty() && phases_.back().call == c) {
            phases_.back().end = stop;
            ++phases_.back().spans;
        } else {
            phases_.push_back(Phase{c, start, stop, 1});
        }
    }

    double totalS(Call c) const { return 1e-9 * acc_[c].totalNs; }
    double selfS(Call c) const { return 1e-9 * acc_[c].selfNs; }
    std::uint64_t calls(Call c) const { return acc_[c].calls; }

    /** Seconds since the tracer (and so the workload) started. */
    double elapsed() const { return secondsSince(t0_); }

    void
    writeJson(stats::JsonWriter &w) const
    {
        w.key("calls");
        w.beginArray();
        for (int c = 0; c < kCalls; ++c) {
            w.beginObject();
            w.field("call", kCallInfo[c].name);
            w.field("layer", kCallInfo[c].layer);
            w.field("spans", acc_[c].calls);
            w.field("total_s", totalS(static_cast<Call>(c)));
            w.field("self_s", selfS(static_cast<Call>(c)));
            w.endObject();
        }
        w.endArray();
        w.key("timeline");
        w.beginArray();
        for (const Phase &p : phases_) {
            w.beginObject();
            w.field("call", kCallInfo[p.call].name);
            w.field("start_s", p.start);
            w.field("end_s", p.end);
            w.field("spans", p.spans);
            w.endObject();
        }
        w.endArray();
    }

  private:
    struct Frame
    {
        Call call;
        Clock::time_point start;
        std::int64_t childNs;
    };
    struct Acc
    {
        std::uint64_t calls = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };
    struct Phase
    {
        Call call;
        double start, end;
        std::uint64_t spans;
    };

    bool on(Call c) const { return perRequest_ || !kCallInfo[c].perRequest; }
    double
    toSec(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - t0_).count();
    }

    bool perRequest_;
    Clock::time_point t0_;
    std::vector<Frame> stack_;
    Acc acc_[kCalls];
    std::vector<Phase> phases_;
};

class Span
{
  public:
    Span(Tracer &t, Call c) : t_(t), c_(c) { t_.begin(c_); }
    ~Span() { t_.end(c_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t_;
    Call c_;
};

/** A trace stream whose every next() is a workload span. */
class TimedTrace : public workload::TraceStream
{
  public:
    TimedTrace(workload::TraceStream &inner, Tracer &t,
               sim::Time measure_start)
        : inner_(inner), t_(t), measureStart_(measure_start)
    {
    }

    bool
    next(workload::IoRequest &out) override
    {
        bool got;
        {
            Span s(t_, TraceNext);
            got = inner_.next(out);
        }
        if (got && !out.isTrim && out.arrival >= measureStart_)
            ++expected_;
        return got;
    }

    /** Non-TRIM requests offered inside the measured window. */
    std::uint64_t expected() const { return expected_; }

  private:
    workload::TraceStream &inner_;
    Tracer &t_;
    sim::Time measureStart_;
    std::uint64_t expected_ = 0;
};

// ---------------------------------------------------------------------
// Composed runs: the entry points, one public call at a time
// ---------------------------------------------------------------------

/** What a composed run hands to the report besides the archive. */
struct Composed
{
    std::string archive;       ///< toJson(false) of the run's result
    double setupS = 0.0;
    double wallS = 0.0;
    bool finished = false;     ///< false when stopped after set-up
    bool drained = false;
    std::uint64_t completed = 0; ///< offered requests that completed
    std::uint64_t expected = 0; ///< requests offered in the measured window
    std::uint64_t measured = 0; ///< measured requests the result counts
    /**
     * Closed loop only: warm-up requests that completed before the
     * measured window opened. runClosedLoop opens the window mid-run
     * and SsdStats counts every earlier completion as measured, so
     * its result counts expected + warmupCounted requests.
     */
    std::uint64_t warmupCounted = 0;
    std::uint64_t pastSchedules = 0;
    std::uint64_t events = 0;
    std::vector<workload::RunResult> devices; ///< one per member
    double readRespUs = 0.0, writeRespUs = 0.0;
    double readP99Us = 0.0, p99LoUs = 0.0, p99HiUs = 0.0;
    std::int64_t readsBeyondP99 = -1; ///< -1: not observable
    std::uint64_t measuredReads = 0, measuredWrites = 0;
    double windowS = 0.0; ///< simulated measured window
    double simulatedS = 0.0;
    std::uint64_t subStaged = 0, subCompleted = 0, epochs = 0;
    double fleetCpuS = 0.0, fleetSysS = 0.0;
    std::int64_t fleetCtxSwitches = 0;
};

/**
 * p99 of @p h by nearest rank, interpolated linearly inside the bucket
 * that holds it (buckets grow 1.25x, so the bucket bound alone moves in
 * 25% steps). Also returns the bucket's bounds and the reads above it.
 */
void
p99Of(const stats::Histogram &h, Composed &c)
{
    const std::uint64_t n = h.count();
    if (n == 0)
        return;
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(0.99 * static_cast<double>(n))));
    const std::vector<std::uint64_t> &b = h.buckets();
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (seen + b[i] < target) {
            seen += b[i];
            continue;
        }
        c.p99HiUs = h.bucketBound(static_cast<int>(i));
        c.p99LoUs = i == 0 ? 0.0 : h.bucketBound(static_cast<int>(i) - 1);
        const double frac = static_cast<double>(target - seen) /
                            static_cast<double>(b[i]);
        c.readP99Us = c.p99LoUs + frac * (c.p99HiUs - c.p99LoUs);
        c.readsBeyondP99 = static_cast<std::int64_t>(n - seen - b[i]);
        return;
    }
}

/** Fill the simulated metrics every single-device run shares. */
void
harvestDevice(const ssd::Ssd &ssd, const workload::RunResult &r,
              Composed &c)
{
    const ssd::SsdStats &st = ssd.stats();
    c.archive = r.toJson(false);
    c.drained = ssd.drained();
    c.measured = r.measuredReads + r.measuredWrites + r.trimRequests;
    c.pastSchedules = r.pastSchedules;
    c.events = ssd.events().executed();
    c.readRespUs = r.readRespUs;
    c.writeRespUs = r.writeRespUs;
    p99Of(st.readHist, c);
    c.measuredReads = r.measuredReads;
    c.measuredWrites = r.measuredWrites;
    c.windowS = sim::toSec(st.lastCompletion - st.measureStart);
    c.simulatedS = sim::toSec(r.simulatedTime);
    c.devices = {r};
}

/** The device config every single-device runner derives. */
ssd::SsdConfig
runnerConfig(const Workload &w)
{
    ssd::SsdConfig cfg = w.device;
    cfg.ftl.refreshPeriod = w.preset.refreshPeriod;
    cfg.ftl.refreshCheckInterval =
        std::max<sim::Time>(w.preset.refreshPeriod / 64, sim::kSec);
    return cfg;
}

workload::SyntheticConfig
prewriteConfig(const workload::WorkloadPreset &p)
{
    workload::SyntheticConfig pc = p.synth;
    pc.seed = p.synth.seed ^ 0x5eedu;
    pc.totalRequests = static_cast<std::uint64_t>(
        static_cast<double>(pc.totalRequests) * p.prewriteFraction);
    return pc;
}

/**
 * Apply the pre-age write stream through @p write (a preloadWrite on a
 * device or a fleet), as the runners do.
 */
template <typename WriteFn>
void
preAge(const workload::WorkloadPreset &p, std::uint64_t footprint,
       Tracer &tr, WriteFn write)
{
    if (p.prewriteFraction <= 0.0)
        return;
    std::unique_ptr<workload::SyntheticTrace> pre;
    {
        Span s(tr, TraceConstruct);
        pre = std::make_unique<workload::SyntheticTrace>(prewriteConfig(p));
    }
    Span s(tr, Preload);
    workload::IoRequest w;
    for (;;) {
        {
            Span g(tr, TraceNext);
            if (!pre->next(w))
                break;
        }
        if (w.isRead || w.isTrim)
            continue;
        const flash::Lpn start = footprint > 0 ? w.startPage % footprint : 0;
        for (std::uint32_t i = 0; i < w.pageCount; ++i) {
            if (start + i < footprint)
                write(start + i);
        }
    }
}

/** Map a generated request into the footprint, as the runners do. */
ssd::HostRequest
toHost(const workload::IoRequest &r, sim::Time arrival,
       std::uint64_t footprint)
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

/** workload::runClosedLoop, composed. */
Composed
composeClosedLoop(const Workload &w, Tracer &tr, bool setup_only)
{
    Composed c;
    const workload::WorkloadPreset &p = w.preset;
    ssd::SsdConfig cfg = runnerConfig(w);
    cfg.ftl.preloadAgeSpread = sim::kSec;
    std::unique_ptr<ssd::Ssd> dev;
    {
        Span s(tr, DeviceConstruct);
        dev = std::make_unique<ssd::Ssd>(cfg);
    }
    ssd::Ssd &ssd = *dev;
    if (trace::compiledIn())
        ssd.enableTracing();

    std::unique_ptr<workload::SyntheticTrace> trace;
    {
        Span s(tr, TraceConstruct);
        trace = std::make_unique<workload::SyntheticTrace>(p.synth);
    }
    const std::uint64_t footprint = std::min<std::uint64_t>(
        p.synth.footprintPages,
        static_cast<std::uint64_t>(
            0.7 * static_cast<double>(ssd.logicalPages())));
    {
        Span s(tr, Preload);
        ssd.preloadSequential(footprint);
    }
    if (p.prewriteFraction > 0.0) {
        preAge(p, footprint, tr,
               [&](flash::Lpn l) { ssd.ftl().preloadWrite(l); });
        Span s(tr, Preload);
        ssd.ftl().finalizePreload();
    }
    {
        Span s(tr, DeviceStart);
        ssd.start();
    }
    {
        Span s(tr, PrepWave);
        const sim::Time prep_limit = 30ll * 24 * sim::kHour;
        for (;;) {
            ssd.events().runUntil(ssd.events().now() + 10 * sim::kSec);
            bool fresh = false;
            for (flash::BlockId b : ssd.ftl().blocks().refreshCandidates(
                     ssd.events().now(), cfg.ftl.refreshPeriod)) {
                if (!ssd.ftl().blocks().meta(b).forceMigrateNextRefresh()) {
                    fresh = true;
                    break;
                }
            }
            if ((ssd.ftl().quiescent() && !fresh) ||
                ssd.events().now() > prep_limit)
                break;
        }
    }
    c.setupS = tr.elapsed();
    if (setup_only)
        return c;

    const std::uint64_t warm = static_cast<std::uint64_t>(
        p.warmupFraction * static_cast<double>(p.synth.totalRequests));
    std::uint64_t submitted = 0;
    bool exhausted = false;
    // Requests offered at the current tick: those offered at the tick
    // the measured window opens are inside it too.
    sim::Time tick{-1};
    std::uint64_t atTick = 0;
    bool measuring = false;
    bool initial = true; // the first queueDepth pumps complete nothing

    std::function<void(sim::Time)> pump = [&](sim::Time) {
        if (!initial) {
            ++c.completed;
            if (!measuring)
                ++c.warmupCounted;
        }
        workload::IoRequest r;
        {
            Span s(tr, TraceNext);
            if (!trace->next(r)) {
                exhausted = true;
                return;
            }
        }
        const sim::Time now = ssd.events().now();
        if (now != tick) {
            tick = now;
            atTick = 0;
        }
        if (submitted == warm) {
            ssd.setMeasureStart(now);
            ssd.ftl().resetReadClassification();
            measuring = true;
            c.expected += atTick;
            // This completion's own request is checked against the new
            // window start, so it is not counted.
            if (!initial)
                --c.warmupCounted;
        }
        ++submitted;
        ++atTick;
        if (measuring)
            ++c.expected;
        ssd::HostRequest hr = toHost(r, now, footprint);
        hr.onComplete = pump;
        Span s(tr, Submit);
        ssd.submit(hr);
    };
    for (int i = 0; i < w.queueDepth; ++i)
        pump(sim::Time{});
    initial = false;

    const sim::Time limit = 30ll * 24 * sim::kHour;
    while (!(exhausted && ssd.drained()) && ssd.events().now() < limit) {
        if (ssd.events().empty())
            break;
        Span s(tr, RunUntil);
        ssd.events().runUntil(ssd.events().now() + sim::kSec);
    }

    workload::RunResult r;
    {
        Span s(tr, Harvest);
        r = workload::harvestResult(ssd, p.name, footprint);
    }
    harvestDevice(ssd, r, c);
    c.finished = true;
    return c;
}

/** workload::runPreset (its runStream core), composed. */
Composed
composeReplay(const Workload &w, Tracer &tr, bool setup_only)
{
    Composed c;
    const workload::WorkloadPreset &p = w.preset;
    ssd::SsdConfig cfg = runnerConfig(w);
    if (p.synth.duration > sim::Time{}) {
        cfg.ftl.preloadAgeSpread =
            std::max(p.warmupFraction * p.synth.duration, sim::kSec);
    }
    std::unique_ptr<workload::SyntheticTrace> trace;
    {
        Span s(tr, TraceConstruct);
        trace = std::make_unique<workload::SyntheticTrace>(p.synth);
    }
    std::unique_ptr<ssd::Ssd> dev;
    {
        Span s(tr, DeviceConstruct);
        dev = std::make_unique<ssd::Ssd>(cfg);
    }
    ssd::Ssd &ssd = *dev;
    if (trace::compiledIn())
        ssd.enableTracing();

    const std::uint64_t footprint = std::min<std::uint64_t>(
        p.synth.footprintPages,
        static_cast<std::uint64_t>(
            0.7 * static_cast<double>(ssd.logicalPages())));
    {
        Span s(tr, Preload);
        ssd.preloadSequential(footprint);
    }
    if (p.prewriteFraction > 0.0) {
        preAge(p, footprint, tr, [&](flash::Lpn l) {
            if (l < footprint)
                ssd.ftl().preloadWrite(l);
        });
        Span s(tr, Preload);
        ssd.ftl().finalizePreload();
    }
    c.setupS = tr.elapsed();
    if (setup_only)
        return c;

    // Admission in the runner's batches: flush on a new arrival tick or
    // at 256 requests.
    constexpr std::size_t kSubmitBatch = 256;
    std::vector<ssd::HostRequest> batch;
    batch.reserve(kSubmitBatch);
    std::vector<sim::Time> arrivals; // to count the measured window
    auto flush = [&] {
        if (batch.empty())
            return;
        Span s(tr, Submit);
        ssd.submitBatch(batch);
        batch.clear();
    };
    sim::Time last_arrival{};
    workload::IoRequest req;
    for (;;) {
        {
            Span s(tr, TraceNext);
            if (!trace->next(req))
                break;
        }
        ssd::HostRequest hr = toHost(req, req.arrival, footprint);
        last_arrival = std::max(last_arrival, hr.arrival);
        arrivals.push_back(hr.arrival);
        if (!batch.empty() && (batch.back().arrival != hr.arrival ||
                               batch.size() >= kSubmitBatch))
            flush();
        batch.push_back(std::move(hr));
    }
    flush();

    const sim::Time horizon = std::max(p.synth.duration, last_arrival);
    const sim::Time measure_start = p.warmupFraction * horizon;
    c.expected = static_cast<std::uint64_t>(std::count_if(
        arrivals.begin(), arrivals.end(),
        [&](sim::Time a) { return a >= measure_start; }));
    ssd.setMeasureStart(measure_start);
    ssd.events().schedule(measure_start, [&ssd] {
        ssd.backend().resetReadClassification();
    });
    {
        Span s(tr, DeviceStart);
        ssd.start();
    }
    {
        Span s(tr, RunUntil);
        ssd.events().runUntil(horizon);
    }
    const sim::Time drain_limit = horizon + 10 * sim::kMin;
    while (!ssd.drained() && ssd.events().now() < drain_limit) {
        Span s(tr, RunUntil);
        ssd.events().runUntil(ssd.events().now() + sim::kSec);
    }

    workload::RunResult r;
    {
        Span s(tr, Harvest);
        r = workload::harvestResult(ssd, p.name, footprint);
    }
    r.traceMalformedLines = trace->malformedLines();
    r.traceOutOfOrderLines = trace->outOfOrderLines();
    harvestDevice(ssd, r, c);
    c.completed = arrivals.size() - ssd.inflightRequests();
    c.finished = true;
    return c;
}

/** Process CPU (user, system) seconds and voluntary context switches. */
struct Usage
{
    double user = 0.0, sys = 0.0;
    std::int64_t ctx = 0;
};

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               1e-6 * static_cast<double>(t.tv_usec);
    };
    return Usage{sec(ru.ru_utime), sec(ru.ru_stime), ru.ru_nvcsw};
}

/** fleet::runFleetPreset, composed. */
Composed
composeFleet(const Workload &w, Tracer &tr, bool setup_only)
{
    Composed c;
    const workload::WorkloadPreset &p = w.preset;
    fleet::FleetConfig fc = w.fleet;
    fc.device.ftl.refreshPeriod = p.refreshPeriod;
    fc.device.ftl.refreshCheckInterval =
        std::max<sim::Time>(p.refreshPeriod / 64, sim::kSec);
    if (p.synth.duration > sim::Time{}) {
        fc.device.ftl.preloadAgeSpread =
            std::max(p.warmupFraction * p.synth.duration, sim::kSec);
    }
    std::unique_ptr<fleet::Fleet> owner;
    {
        Span s(tr, DeviceConstruct);
        owner = std::make_unique<fleet::Fleet>(fc);
    }
    fleet::Fleet &fleet = *owner;
    const std::uint64_t footprint = std::min<std::uint64_t>(
        p.synth.footprintPages,
        static_cast<std::uint64_t>(
            0.7 * static_cast<double>(fleet.logicalPages())));
    {
        Span s(tr, Preload);
        fleet.preloadSequential(footprint);
    }
    if (p.prewriteFraction > 0.0) {
        preAge(p, footprint, tr,
               [&](flash::Lpn l) { fleet.preloadWrite(l); });
        Span s(tr, Preload);
        fleet.finalizePreload();
    }
    c.setupS = tr.elapsed();
    if (setup_only)
        return c;

    std::unique_ptr<workload::SyntheticTrace> inner;
    {
        Span s(tr, TraceConstruct);
        inner = std::make_unique<workload::SyntheticTrace>(p.synth);
    }
    fleet::FleetRunOptions opt;
    opt.measureStart = p.warmupFraction * p.synth.duration;
    opt.horizon = p.synth.duration;
    opt.label = p.name;
    TimedTrace trace(*inner, tr, opt.measureStart);

    fleet::FleetResult res;
    const Usage u0 = usageNow();
    {
        Span s(tr, FleetRun);
        res = fleet.run(trace, opt);
    }
    const Usage u1 = usageNow();
    c.fleetCpuS = (u1.user - u0.user) + (u1.sys - u0.sys);
    c.fleetSysS = u1.sys - u0.sys;
    c.fleetCtxSwitches = u1.ctx - u0.ctx;

    c.archive = res.toJson(false);
    c.expected = trace.expected();
    c.measured = res.measuredReads + res.measuredWrites;
    c.drained = fleet.allDrained() && fleet.openRequests() == 0;
    c.completed = fleet.completedRequests();
    c.pastSchedules = res.pastSchedules;
    c.readRespUs = res.readRespUs;
    c.writeRespUs = res.writeRespUs;
    // The fleet-request histogram is internal to Fleet; its p99 is the
    // bucket bound, so the bucket is [p99 / 1.25, p99].
    c.readP99Us = res.readP99Us;
    c.p99HiUs = res.readP99Us;
    c.p99LoUs = res.readP99Us / 1.25;
    c.measuredReads = res.measuredReads;
    c.measuredWrites = res.measuredWrites;
    sim::Time last{};
    for (std::uint32_t d = 0; d < fleet.deviceCount(); ++d) {
        last = std::max(last, fleet.device(d).stats().lastCompletion);
        c.events += fleet.device(d).events().executed();
    }
    c.windowS = sim::toSec(last - opt.measureStart);
    c.simulatedS = sim::toSec(res.simulatedTime);
    c.subStaged = res.subRequestsStaged;
    c.subCompleted = res.subRequestsCompleted;
    c.epochs = static_cast<std::uint64_t>(res.simulatedTime / fc.epoch);
    c.devices = res.perDevice;
    c.finished = true;
    return c;
}

Composed
compose(const Workload &w, Tracer &tr, bool setup_only)
{
    Composed c;
    switch (w.kind) {
    case Kind::ClosedLoop:
        c = composeClosedLoop(w, tr, setup_only);
        break;
    case Kind::Replay:
        c = composeReplay(w, tr, setup_only);
        break;
    case Kind::Fleet:
        c = composeFleet(w, tr, setup_only);
        break;
    }
    c.wallS = tr.elapsed();
    return c;
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

/** Counters summed over every member device of the run. */
struct Totals
{
    ftl::FtlStats ftl;
    flash::ChipStats chip;
    cache::ReadCacheStats cache;
    std::uint64_t msbReads = 0, msbLowerInvalid = 0;
};

Totals
sumDevices(const std::vector<workload::RunResult> &devs)
{
    Totals t;
    for (const workload::RunResult &r : devs) {
        const ftl::FtlStats &f = r.ftl;
        t.ftl.hostReads += f.hostReads;
        t.ftl.hostWrites += f.hostWrites;
        t.ftl.gc.invocations += f.gc.invocations;
        t.ftl.gc.migratedPages += f.gc.migratedPages;
        t.ftl.gc.erases += f.gc.erases;
        t.ftl.refresh.refreshes += f.refresh.refreshes;
        t.ftl.refresh.idaRefreshes += f.refresh.idaRefreshes;
        t.ftl.refresh.adjustedWordlines += f.refresh.adjustedWordlines;
        t.ftl.refresh.migratedPages += f.refresh.migratedPages;
        t.ftl.readClass.idaServed += f.readClass.idaServed;
        t.ftl.sector.rmwReads += f.sector.rmwReads;
        t.ftl.sector.mergedReads += f.sector.mergedReads;
        // MSB is the top level; its lower siblings are LSB (and CSB).
        if (!f.readClass.byLevel.empty()) {
            t.msbReads += f.readClass.byLevel.back();
            t.msbLowerInvalid += f.readClass.byLevelLowerInvalid.back();
        }
        const flash::ChipStats &ch = r.chip;
        t.chip.reads += ch.reads;
        t.chip.programs += ch.programs;
        t.chip.adjusts += ch.adjusts;
        t.chip.retrySenseRounds += ch.retrySenseRounds;
        t.chip.sensingOps += ch.sensingOps;
        t.chip.sensingOpsConventional += ch.sensingOpsConventional;
        t.chip.sensingOpsSaved += ch.sensingOpsSaved;
        t.chip.dieBusy += ch.dieBusy;
        t.chip.channelBusy += ch.channelBusy;
        t.cache.hits += r.cache.hits;
        t.cache.misses += r.cache.misses;
        t.cache.evictions += r.cache.evictions;
        t.cache.invalidations += r.cache.invalidations;
    }
    return t;
}

void
writeSimulated(stats::JsonWriter &w, const Composed &c)
{
    w.key("sim");
    w.beginObject();
    w.field("read_resp_us", c.readRespUs);
    w.field("read_p99_us", c.readP99Us);
    w.field("read_p99_bucket_lo_us", c.p99LoUs);
    w.field("read_p99_bucket_hi_us", c.p99HiUs);
    w.field("reads_beyond_p99_bucket", c.readsBeyondP99);
    w.field("write_resp_us", c.writeRespUs);
    w.field("measured_reads", c.measuredReads);
    w.field("measured_writes", c.measuredWrites);
    w.field("window_s", c.windowS);
    w.field("iops", ratio(static_cast<double>(c.expected), c.windowS));
    w.endObject();
}

void
writeLayers(stats::JsonWriter &w, const Workload &wl, const Composed &c,
            const Totals &t, const Tracer &tr)
{
    const std::uint64_t requests = tr.calls(TraceNext);
    const std::uint64_t submits = tr.calls(Submit);
    const std::uint64_t offered = wl.preset.synth.totalRequests;
    const bool is_fleet = wl.kind == Kind::Fleet;
    const flash::Geometry &g =
        is_fleet ? wl.fleet.device.geometry : wl.device.geometry;
    const double members = static_cast<double>(c.devices.size());
    const double busy_base = c.simulatedS * members;
    // Without a fleet the kernel runs inside runUntil; with one, inside
    // Fleet::run (its self time, generation excluded).
    const double kernel_s = is_fleet ? tr.selfS(FleetRun)
                                     : tr.selfS(RunUntil);

    w.key("metrics");
    w.beginObject();
    w.field("workload.gen_s", tr.totalS(TraceNext));
    w.field("workload.gen_ns_per_req",
            ratio(1e9 * tr.totalS(TraceNext), static_cast<double>(requests)));
    w.field("workload.requests", requests);
    w.field("workload.construct_s", tr.totalS(TraceConstruct));
    w.field("ssd.construct_s", tr.totalS(DeviceConstruct));
    w.field("ssd.submit_s", tr.totalS(Submit));
    w.field("ssd.submit_calls", submits);
    w.field("ssd.submit_ns_per_req",
            ratio(1e9 * tr.totalS(Submit), static_cast<double>(offered)));
    w.field("ftl.preload_s", tr.selfS(Preload));
    w.field("ftl.host_reads", t.ftl.hostReads);
    w.field("ftl.host_writes", t.ftl.hostWrites);
    w.field("ftl.gc_invocations", t.ftl.gc.invocations);
    w.field("ftl.gc_migrated_pages", t.ftl.gc.migratedPages);
    w.field("ftl.erases", t.ftl.gc.erases);
    w.field("ftl.refreshes", t.ftl.refresh.refreshes);
    w.field("ftl.ida_refreshes", t.ftl.refresh.idaRefreshes);
    w.field("ftl.adjusted_wordlines", t.ftl.refresh.adjustedWordlines);
    w.field("ftl.refresh_migrated_pages", t.ftl.refresh.migratedPages);
    w.field("ftl.write_amplification",
            ratio(t.chip.programs, t.ftl.hostWrites));
    w.field("ftl.ida_served_ratio",
            ratio(t.ftl.readClass.idaServed, t.ftl.hostReads));
    w.field("ftl.msb_lower_invalid_pct",
            100.0 * ratio(t.msbLowerInvalid, t.msbReads));
    w.field("ftl.rmw_reads", t.ftl.sector.rmwReads);
    w.field("ftl.merged_reads", t.ftl.sector.mergedReads);
    w.field("flash.reads", t.chip.reads);
    w.field("flash.programs", t.chip.programs);
    w.field("flash.adjusts", t.chip.adjusts);
    w.field("flash.sensing_ops", t.chip.sensingOps);
    w.field("flash.sensing_saved_ratio",
            ratio(t.chip.sensingOpsSaved, t.chip.sensingOpsConventional));
    w.field("flash.die_util", ratio(sim::toSec(t.chip.dieBusy),
                                    busy_base * g.dies()));
    w.field("flash.channel_util", ratio(sim::toSec(t.chip.channelBusy),
                                        busy_base * g.channels));
    w.field("ecc.retry_rounds", t.chip.retrySenseRounds);
    w.field("ecc.retry_rounds_per_read",
            ratio(t.chip.retrySenseRounds, t.chip.reads));
    w.field("cache.hits", t.cache.hits);
    w.field("cache.misses", t.cache.misses);
    w.field("cache.hit_ratio",
            ratio(t.cache.hits, t.cache.hits + t.cache.misses));
    w.field("cache.evictions", t.cache.evictions);
    w.field("cache.invalidations", t.cache.invalidations);
    w.field("sim.prep_wave_s", tr.totalS(PrepWave));
    w.field("sim.run_self_s", tr.selfS(RunUntil));
    w.field("sim.events", c.events);
    w.field("sim.ns_per_event",
            ratio(1e9 * kernel_s, static_cast<double>(c.events)));
    w.field("sim.events_per_io",
            ratio(static_cast<double>(c.events), static_cast<double>(offered)));
    w.field("sim.simulated_s", c.simulatedS);
    w.field("sim.past_schedules", c.pastSchedules);
    const double fleet_wall = tr.totalS(FleetRun);
    w.field("fleet.run_s", fleet_wall);
    w.field("fleet.cpu_util",
            ratio(c.fleetCpuS, fleet_wall * (is_fleet ? wl.fleet.shards : 1)));
    w.field("fleet.sys_share", ratio(c.fleetSysS, c.fleetCpuS));
    w.field("fleet.ctx_switches",
            static_cast<std::uint64_t>(std::max<std::int64_t>(
                c.fleetCtxSwitches, 0)));
    w.field("fleet.epochs", c.epochs);
    w.field("fleet.requests_per_epoch",
            ratio(is_fleet ? static_cast<double>(offered) : 0.0,
                  static_cast<double>(c.epochs)));
    w.field("fleet.sub_requests", c.subStaged);
    w.endObject();

    // Self time per layer; "other" is what no span covers.
    w.key("self_s");
    w.beginObject();
    double covered = 0.0;
    for (const char *layer : kLayers) {
        double s = 0.0;
        for (int k = 0; k < kCalls; ++k) {
            if (std::string(kCallInfo[k].layer) == layer)
                s += tr.selfS(static_cast<Call>(k));
        }
        covered += s;
        w.field(layer, s);
    }
    w.field("other", c.wallS - covered);
    w.endObject();
}

void
writeComposed(const Workload &wl, const Composed &c, const Tracer &tr,
              bool layers)
{
    stats::JsonWriter w(std::cout);
    w.beginObject();
    w.field("setup_s", c.setupS);
    w.field("wall_s", c.wallS);
    w.field("finished", c.finished);
    if (c.finished) {
        w.field("digest", digestOf(c.archive));
        w.field("drained", c.drained);
        w.field("completed", c.completed);
        w.field("expected", c.expected);
        w.field("measured", c.measured);
        w.field("warmup_counted", c.warmupCounted);
        w.field("past_schedules", c.pastSchedules);
        w.field("sub_staged", c.subStaged);
        w.field("sub_completed", c.subCompleted);
        writeSimulated(w, c);
        const Totals t = sumDevices(c.devices);
        w.field("read_ratio_pct",
                100.0 * ratio(c.measuredReads,
                              c.measuredReads + c.measuredWrites));
        w.field("msb_lower_invalid_pct",
                100.0 * ratio(t.msbLowerInvalid, t.msbReads));
        w.field("paper_read_ratio_pct", wl.preset.paperReadRatioPct);
        w.field("paper_msb_invalid_pct", wl.preset.paperMsbInvalidPct);
        if (layers) {
            writeLayers(w, wl, c, t, tr);
            tr.writeJson(w);
        }
    }
    w.endObject();
    std::cout << "\n";
}

/** The untraced public entry point, timed as one call. */
int
runEntryPoint(const Workload &wl)
{
    stats::JsonWriter w(std::cout);
    std::string archive;
    std::uint64_t measured = 0, past = 0, staged = 0, completed = 0;
    const Clock::time_point t0 = Clock::now();
    switch (wl.kind) {
    case Kind::ClosedLoop: {
        const workload::RunResult r =
            workload::runClosedLoop(wl.device, wl.preset, wl.queueDepth);
        archive = r.toJson(false);
        measured = r.measuredReads + r.measuredWrites + r.trimRequests;
        past = r.pastSchedules;
        break;
    }
    case Kind::Replay: {
        const workload::RunResult r = workload::runPreset(wl.device, wl.preset);
        archive = r.toJson(false);
        measured = r.measuredReads + r.measuredWrites + r.trimRequests;
        past = r.pastSchedules;
        break;
    }
    case Kind::Fleet: {
        const fleet::FleetResult r = fleet::runFleetPreset(wl.fleet, wl.preset);
        archive = r.toJson(false);
        measured = r.measuredReads + r.measuredWrites;
        past = r.pastSchedules;
        staged = r.subRequestsStaged;
        completed = r.subRequestsCompleted;
        break;
    }
    }
    const double wall = secondsSince(t0);
    w.beginObject();
    w.field("wall_s", wall);
    w.field("measured", measured);
    w.field("digest", digestOf(archive));
    w.field("past_schedules", past);
    w.field("sub_staged", staged);
    w.field("sub_completed", completed);
    w.endObject();
    std::cout << "\n";
    return 0;
}

/** fleet_striped's archive digest at 3 shards and at 1 shard. */
int
runShardCheck(std::uint64_t seed)
{
    stats::JsonWriter w(std::cout);
    w.beginObject();
    for (const int shards : {3, 1}) {
        Workload wl;
        makeWorkload("fleet_striped", seed, shards, wl);
        const Clock::time_point t0 = Clock::now();
        const fleet::FleetResult r = fleet::runFleetPreset(wl.fleet, wl.preset);
        w.key("shards_" + std::to_string(shards));
        w.beginObject();
        w.field("digest", digestOf(r.toJson(false)));
        w.field("wall_s", secondsSince(t0));
        w.endObject();
    }
    w.endObject();
    std::cout << "\n";
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver run|composed|quiet|setup|shards "
                 "closed_rw|replay_cache|fleet_striped [--seed N]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3 && argc != 5)
        return usage();
    const std::string mode = argv[1];
    const std::string name = argv[2];
    std::uint64_t seed = 0;
    if (argc == 5) {
        if (std::string(argv[3]) != "--seed")
            return usage();
        char *end = nullptr;
        seed = std::strtoull(argv[4], &end, 10);
        if (end == argv[4] || *end != '\0')
            return usage();
    }

    Workload wl;
    if (!makeWorkload(name, seed, 3, wl))
        return usage();
    // The request count goes out first, so that a run that dies midway
    // still says how many requests it failed.
    std::cout << "{\"offered\": " << wl.preset.synth.totalRequests
              << "}" << std::endl;
    if (mode == "run")
        return runEntryPoint(wl);
    if (mode == "shards")
        return wl.kind == Kind::Fleet ? runShardCheck(seed) : usage();
    const bool traced = mode == "composed";
    if (!traced && mode != "quiet" && mode != "setup")
        return usage();
    Tracer tr(traced);
    const Composed c = compose(wl, tr, mode == "setup");
    writeComposed(wl, c, tr, traced);
    return 0;
}
