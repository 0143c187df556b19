/**
 * @file
 * Differential golden test for the FTL backend refactor: fixed-seed
 * runs through the public runner API must reproduce the committed
 * result JSON byte-for-byte (RunResult::writeJson with volatile fields
 * omitted). The goldens were generated *before* the FtlBackend
 * extraction, so a byte-identical match proves `PageMappedBackend`
 * behind the new interface is a pure re-homing of the seed behavior —
 * no timing, counter, or serialization drift.
 *
 * The legs pin every runner entry point:
 *   fig10  — closed-loop throughput (baseline + IDA-E20), the shape of
 *            bench/fig10_throughput at miniature scale.
 *   sector — open-loop sector-mode run with write buffer + read cache,
 *            exercising the sub-page masks and the cache hierarchy.
 *   zns    — the closed-loop zone-append/reset host (runZnsWorkload)
 *            on two-block zones, cycling whole zones through reset.
 *   fleet  — a 16-member striped fleet at 2 shards (runFleetPreset),
 *            aggregate plus every member's harvest.
 *   fleet-chunks — a 16-member fleet replaying several times the
 *            fleet's per-chunk request budget, with an idle stretch
 *            (epochs that stage nothing) and a window whose arrivals
 *            reach only four members (lanes that stay empty for a
 *            whole chunk).
 *
 * Skipped under IDA_TRACE: the attribution block serializes measured
 * phase totals there, which legitimately differ from the zeroed
 * release-build values the goldens pin.
 *
 * To regenerate after an *intentional* behavior change, run with
 * IDA_UPDATE_GOLDEN=1 and commit the diff alongside the change.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fleet/fleet.hh"
#include "ssd/config.hh"
#include "trace/recorder.hh"
#include "workload/host.hh"
#include "workload/runner.hh"
#include "workload/synthetic.hh"
#include "workload/zns_workload.hh"

namespace ida::workload {
namespace {

/** hm_1 shrunk to golden scale: a few thousand requests, small
 *  footprint, enough churn to exercise GC + refresh + IDA. */
WorkloadPreset
goldenPreset()
{
    WorkloadPreset p = scaled(presetByName("hm_1"), 0.05);
    p.synth.footprintPages = 12'000;
    return p;
}

std::string
fig10Leg(bool ida)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::paperTlc();
    if (ida) {
        cfg.ftl.enableIda = true;
        cfg.adjustErrorRate = 0.20;
    }
    return runClosedLoop(cfg, goldenPreset(), /*queue_depth=*/8)
        .toJson(/*include_volatile=*/false);
}

std::string
sectorLeg()
{
    ssd::SsdConfig cfg = ssd::SsdConfig::paperTlc();
    cfg.ftl.enableIda = true;
    cfg.adjustErrorRate = 0.20;
    cfg.ftl.writeBuffer.capacityPages = 32;
    cfg.ftl.readCache.capacityPages = 64;

    WorkloadPreset p = scaled(presetByName("hm_1"), 0.02);
    p.synth.footprintPages = 6'000;
    p.synth.subPageFraction = 0.4;
    p.synth.sectorsPerPage = cfg.geometry.sectorsPerPage();
    return runPreset(cfg, p).toJson(/*include_volatile=*/false);
}

std::string
znsLeg()
{
    ssd::SsdConfig cfg = ssd::SsdConfig::paperTlc();
    cfg.ftl.enableIda = true;
    cfg.adjustErrorRate = 0.20;
    cfg.backend = ftl::BackendKind::Zns;
    cfg.zns.blocksPerZone = 2;

    ZnsWorkloadConfig wl;
    wl.totalRequests = 4'000;
    wl.utilizationTarget = 1.0; // every acquisition resets a full zone
    wl.readFraction = 0.6;
    return runZnsWorkload(cfg, wl, "zns-golden")
        .toJson(/*include_volatile=*/false);
}

std::string
fleetLeg()
{
    fleet::FleetConfig fc;
    fc.device = ssd::SsdConfig::tiny();
    fc.device.ftl.enableIda = true;
    fc.device.adjustErrorRate = 0.20;
    fc.devices = 16;
    fc.stripePages = 8;
    fc.shards = 2;
    fc.epoch = 50 * sim::kMsec;
    fc.fleetSeed = 99;

    WorkloadPreset p;
    p.name = "fleet-golden";
    p.synth.footprintPages = 16 * 500;
    p.synth.totalRequests = 2'500;
    p.synth.duration = 4 * sim::kMin;
    p.synth.readRatio = 0.9;
    p.synth.seed = 23;
    p.refreshPeriod = 2 * sim::kMin;
    p.warmupFraction = 0.25;
    p.prewriteFraction = 0.3;
    return fleet::runFleetPreset(fc, p).toJson(/*include_volatile=*/false);
}

/**
 * Reshapes a trace for the multi-chunk fleet leg: arrivals inside
 * [narrowFrom, narrowTo) are confined to the first four stripes (fleet
 * pages [0, 32) at an 8-page stripe, devices 0-3 only), and arrivals
 * from gapAt on are delayed by gap, leaving a silent stretch.
 */
class ReshapedTrace : public TraceStream
{
  public:
    explicit ReshapedTrace(TraceStream &inner) : inner_(inner) {}

    bool next(IoRequest &out) override
    {
        if (!inner_.next(out))
            return false;
        if (out.arrival >= narrowFrom && out.arrival < narrowTo) {
            out.startPage %= 24;
            out.pageCount = std::min<std::uint32_t>(out.pageCount, 8);
            out.sectorCount = 0;
        }
        if (out.arrival >= gapAt)
            out.arrival += gap;
        return true;
    }

    static constexpr sim::Time narrowFrom = 60 * sim::kSec;
    static constexpr sim::Time narrowTo = 240 * sim::kSec;
    static constexpr sim::Time gapAt = 270 * sim::kSec;
    static constexpr sim::Time gap = 5 * sim::kSec;

  private:
    TraceStream &inner_;
};

std::string
fleetChunksLeg()
{
    fleet::FleetConfig fc;
    fc.device = ssd::SsdConfig::tiny();
    fc.device.ftl.enableIda = true;
    fc.device.adjustErrorRate = 0.20;
    fc.devices = 16;
    fc.stripePages = 8;
    fc.shards = 3;
    fc.epoch = 50 * sim::kMsec;
    fc.fleetSeed = 7;

    WorkloadPreset p;
    p.name = "fleet-chunks-golden";
    p.synth.footprintPages = 16 * 500;
    p.synth.totalRequests = 14'000;
    p.synth.duration = 6 * sim::kMin;
    p.synth.readRatio = 0.9;
    p.synth.seed = 41;
    p.refreshPeriod = 2 * sim::kMin;
    p.warmupFraction = 0.25;
    p.prewriteFraction = 0.3;

    // runFleetPreset's steps, with the reshaped trace in the middle.
    fc.device = hostConfig(fc.device, Arrivals::Open, p.refreshPeriod,
                           p.warmupFraction, p.synth.duration);
    fleet::Fleet fleet(fc);
    const std::uint64_t footprint =
        clampFootprint(p.synth.footprintPages, fleet.logicalPages());
    fleet.preloadSequential(footprint);
    preAge(p, footprint, fleet);

    SyntheticTrace synth(p.synth);
    ReshapedTrace trace(synth);
    fleet::FleetRunOptions opt;
    opt.measureStart = p.warmupFraction * p.synth.duration;
    opt.horizon = p.synth.duration + ReshapedTrace::gap;
    opt.label = p.name;
    return fleet.run(trace, opt).toJson(/*include_volatile=*/false);
}

bool
updateRequested()
{
    const char *env = std::getenv("IDA_UPDATE_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void
compareOrUpdate(const std::string &actual, const char *file)
{
    const std::string path = std::string(IDA_GOLDEN_DIR) + "/" + file;
    if (updateRequested()) {
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << actual << "\n";
        SUCCEED() << "updated " << path;
        return;
    }
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is) << "golden file missing: " << path
                    << " (generate with IDA_UPDATE_GOLDEN=1)";
    std::ostringstream expected;
    expected << is.rdbuf();
    const std::string want = actual + "\n";
    if (want == expected.str()) {
        SUCCEED();
        return;
    }
    const std::string &e = expected.str();
    std::size_t firstDiff = 0;
    while (firstDiff < want.size() && firstDiff < e.size() &&
           want[firstDiff] == e[firstDiff])
        ++firstDiff;
    ADD_FAILURE() << file << " drifted from the golden copy: sizes "
                  << want.size() << " vs " << e.size()
                  << ", first difference at byte " << firstDiff
                  << " (context: ..."
                  << want.substr(firstDiff > 40 ? firstDiff - 40 : 0, 80)
                  << "...). The page-mapped backend must stay "
                     "byte-identical to the pre-refactor seed; "
                     "regenerate with IDA_UPDATE_GOLDEN=1 only for an "
                     "intentional behavior change.";
}

TEST(BackendGolden, Fig10BaselineLegMatchesSeed)
{
    if (trace::compiledIn())
        GTEST_SKIP() << "IDA_TRACE changes attribution values";
    compareOrUpdate(fig10Leg(false), "backend_fig10_baseline.json");
}

TEST(BackendGolden, Fig10IdaLegMatchesSeed)
{
    if (trace::compiledIn())
        GTEST_SKIP() << "IDA_TRACE changes attribution values";
    compareOrUpdate(fig10Leg(true), "backend_fig10_ida.json");
}

TEST(BackendGolden, SectorModeLegMatchesSeed)
{
    if (trace::compiledIn())
        GTEST_SKIP() << "IDA_TRACE changes attribution values";
    compareOrUpdate(sectorLeg(), "backend_sector_mode.json");
}

TEST(BackendGolden, ZnsWorkloadLegMatchesSeed)
{
    if (trace::compiledIn())
        GTEST_SKIP() << "IDA_TRACE changes attribution values";
    compareOrUpdate(znsLeg(), "backend_zns_workload.json");
}

TEST(BackendGolden, FleetPresetLegMatchesSeed)
{
    if (trace::compiledIn())
        GTEST_SKIP() << "IDA_TRACE changes attribution values";
    compareOrUpdate(fleetLeg(), "backend_fleet_preset.json");
}

TEST(BackendGolden, FleetChunksLegMatchesSeed)
{
    if (trace::compiledIn())
        GTEST_SKIP() << "IDA_TRACE changes attribution values";
    compareOrUpdate(fleetChunksLeg(), "backend_fleet_chunks.json");
}

} // namespace
} // namespace ida::workload
