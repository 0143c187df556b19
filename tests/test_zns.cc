/**
 * @file
 * Unit tests for the ZNS backend: zone layout, the state machine's
 * legal transitions (append / reset / open / close / finish), the
 * open-zone budget, refresh migration, and the host-request plumbing
 * (zone ops through Ssd::submit, stats accounting).
 *
 * Transition *legality* is build-dependent by design: illegal zone ops
 * panic under IDA_AUDIT and are counted-and-completed otherwise, so the
 * rejection tests come in both flavors (see also
 * test_zns_properties.cc for the randomized sweep).
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "ftl/backend.hh"
#include "ssd/config.hh"
#include "ssd/ssd.hh"
#include "workload/zns_workload.hh"

namespace {

using namespace ida;
using ftl::zns::ZnsFtl;
using ftl::zns::ZoneState;

/** Non-null completion that discards the time: the flash layer's
 *  inflight accounting settles through the callback, so direct FTL
 *  calls must always pass one (as the Ssd request layer does). */
ftl::PageDone noop()
{
    return ftl::PageDone{[](sim::Time) {}};
}

struct ZnsFixture
{
    ZnsFixture(ssd::SsdConfig cfg = ssd::SsdConfig::tinyZns())
        : ssd(cfg), zns(ssd.backend().zns())
    {
    }

    /** Drive the event queue until the device drains. Always runs at
     *  least one step: zero-flash-work ops (empty resets, redundant
     *  opens, rejected ops) complete through a scheduled event that a
     *  bare drained() check would never execute. */
    void settle()
    {
        const sim::Time limit = ssd.events().now() + sim::kHour;
        do {
            ssd.events().runUntil(ssd.events().now() + sim::kSec);
        } while (!ssd.drained() && ssd.events().now() < limit);
        ASSERT_TRUE(ssd.drained());
    }

    void append(std::uint32_t zone, std::uint32_t pages = 1)
    {
        for (std::uint32_t i = 0; i < pages; ++i)
            zns.zoneAppend(zone, noop());
        settle();
    }

    ssd::Ssd ssd;
    ZnsFtl &zns;
};

TEST(Zns, LayoutCarvesZonesAndSpares)
{
    ZnsFixture f;
    // tiny(): 96 blocks, 15% over-provision -> 81 usable, 2 blocks per
    // zone -> 40 zones; the 16 leftover blocks form the spare pool.
    EXPECT_EQ(f.zns.zones(), 40u);
    EXPECT_EQ(f.zns.zoneCapacity(), 48u); // 2 blocks x 24 pages
    EXPECT_EQ(f.zns.logicalPages(), 40u * 48u);
    EXPECT_EQ(f.ssd.logicalPages(), f.zns.logicalPages());
    EXPECT_EQ(f.zns.spareBlocks(), 16u);
    EXPECT_EQ(f.zns.openZones(), 0u);
    for (std::uint32_t z = 0; z < f.zns.zones(); ++z) {
        EXPECT_EQ(f.zns.state(z), ZoneState::Empty);
        EXPECT_EQ(f.zns.writePointer(z), 0u);
        EXPECT_EQ(f.zns.programmedPages(z), 0u);
    }
}

TEST(Zns, AppendImplicitlyOpensAndAdvancesWritePointer)
{
    ZnsFixture f;
    f.append(3, 5);
    EXPECT_EQ(f.zns.state(3), ZoneState::Open);
    EXPECT_EQ(f.zns.writePointer(3), 5u);
    EXPECT_EQ(f.zns.programmedPages(3), 5u);
    EXPECT_EQ(f.zns.openZones(), 1u);
    EXPECT_EQ(f.zns.znsStats().implicitOpens, 1u);
    EXPECT_EQ(f.zns.znsStats().appends, 5u);
    EXPECT_EQ(f.zns.stats().hostWrites, 5u);
}

TEST(Zns, AppendToCapacityTransitionsToFull)
{
    ZnsFixture f;
    f.append(0, static_cast<std::uint32_t>(f.zns.zoneCapacity()));
    EXPECT_EQ(f.zns.state(0), ZoneState::Full);
    EXPECT_EQ(f.zns.writePointer(0), f.zns.zoneCapacity());
    EXPECT_EQ(f.zns.openZones(), 0u); // FULL releases the open slot
}

TEST(Zns, ExplicitOpenCloseLifecycle)
{
    ZnsFixture f;
    f.zns.zoneOpen(7, noop());
    EXPECT_EQ(f.zns.state(7), ZoneState::Open);
    EXPECT_EQ(f.zns.znsStats().opens, 1u);

    // Closing an untouched zone returns it to EMPTY — nothing to age.
    f.zns.zoneClose(7, noop());
    EXPECT_EQ(f.zns.state(7), ZoneState::Empty);

    f.append(7, 2);
    f.zns.zoneClose(7, noop());
    EXPECT_EQ(f.zns.state(7), ZoneState::Closed);
    EXPECT_EQ(f.zns.writePointer(7), 2u);
    EXPECT_EQ(f.zns.openZones(), 0u);

    // A CLOSED zone reopens explicitly or by appending.
    f.append(7, 1);
    EXPECT_EQ(f.zns.state(7), ZoneState::Open);
    EXPECT_EQ(f.zns.writePointer(7), 3u);
    EXPECT_EQ(f.zns.znsStats().implicitOpens, 2u);
}

TEST(Zns, RedundantOpenAndCloseAreLegalNoOps)
{
    ZnsFixture f;
    f.zns.zoneOpen(1, noop());
    f.zns.zoneOpen(1, noop());
    EXPECT_EQ(f.zns.znsStats().opens, 1u);
    EXPECT_EQ(f.zns.openZones(), 1u);
    f.append(1, 1);
    f.zns.zoneClose(1, noop());
    f.zns.zoneClose(1, noop());
    EXPECT_EQ(f.zns.znsStats().closes, 1u);
    EXPECT_EQ(f.zns.znsStats().illegalOps, 0u);
}

TEST(Zns, FinishJumpsWritePointerWithoutProgramming)
{
    ZnsFixture f;
    f.append(2, 3);
    const std::uint64_t programsBefore = f.zns.stats().hostWrites;
    f.zns.zoneFinish(2, noop());
    f.settle();
    EXPECT_EQ(f.zns.state(2), ZoneState::Full);
    EXPECT_EQ(f.zns.writePointer(2), f.zns.zoneCapacity());
    EXPECT_EQ(f.zns.programmedPages(2), 3u); // the real data prefix
    EXPECT_EQ(f.zns.stats().hostWrites, programsBefore);
    EXPECT_EQ(f.zns.openZones(), 0u);

    // Reads beyond the programmed prefix of a finished zone are
    // never-written data: served unmapped, no flash traffic.
    const std::uint64_t base = 2u * f.zns.zoneCapacity();
    f.zns.hostRead(base + 1, 0, noop());
    f.zns.hostRead(base + 3, 0, noop());
    f.settle();
    EXPECT_EQ(f.zns.stats().hostReadsUnmapped, 1u);
}

TEST(Zns, ResetInvalidatesWholeZoneAndErasesItsBlocks)
{
    ZnsFixture f;
    const auto cap = static_cast<std::uint32_t>(f.zns.zoneCapacity());
    f.append(5, cap);
    const flash::BlockId b0 = f.zns.zoneBlock(5, 0);
    const flash::BlockId b1 = f.zns.zoneBlock(5, 1);
    EXPECT_FALSE(f.ssd.chips().block(b0).isErased());

    bool completed = false;
    f.zns.zoneReset(5, ftl::PageDone{[&completed](sim::Time) {
        completed = true;
    }});
    // State flips synchronously; the completion waits on the erases.
    EXPECT_EQ(f.zns.state(5), ZoneState::Empty);
    EXPECT_EQ(f.zns.writePointer(5), 0u);
    EXPECT_EQ(f.zns.programmedPages(5), 0u);
    f.settle();
    EXPECT_TRUE(completed);
    EXPECT_EQ(f.zns.znsStats().resets, 1u);
    EXPECT_EQ(f.zns.znsStats().resetPages, std::uint64_t{cap});
    EXPECT_EQ(f.zns.znsStats().resetErases, 2u);
    EXPECT_TRUE(f.ssd.chips().block(b0).isErased());
    EXPECT_TRUE(f.ssd.chips().block(b1).isErased());
}

TEST(Zns, ResetOfEmptyZoneIsALegalNoOp)
{
    ZnsFixture f;
    bool completed = false;
    f.zns.zoneReset(9, ftl::PageDone{[&completed](sim::Time) {
        completed = true;
    }});
    f.settle();
    EXPECT_TRUE(completed);
    EXPECT_EQ(f.zns.znsStats().resets, 1u);
    EXPECT_EQ(f.zns.znsStats().resetErases, 0u);
    EXPECT_EQ(f.zns.znsStats().illegalOps, 0u);
}

TEST(Zns, RefreshMigratesAgedZoneAndPreservesTheMapping)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tinyZns();
    cfg.ftl.refreshPeriod = 5 * sim::kSec;
    cfg.ftl.refreshCheckInterval = sim::kSec;
    cfg.ftl.preloadAgeSpread = sim::Time{1}; // everything aged at once
    ZnsFixture f(cfg);

    f.ssd.preloadSequential(f.zns.zoneCapacity()); // zone 0 FULL
    ASSERT_EQ(f.zns.state(0), ZoneState::Full);
    const flash::BlockId oldB0 = f.zns.zoneBlock(0, 0);
    const flash::BlockId oldB1 = f.zns.zoneBlock(0, 1);
    f.ssd.start();

    const sim::Time limit = 4 * cfg.ftl.refreshPeriod;
    while (f.ssd.events().now() < limit &&
           f.zns.stats().refresh.refreshes == 0)
        f.ssd.events().runUntil(f.ssd.events().now() + sim::kSec);
    f.settle();

    ASSERT_GE(f.zns.stats().refresh.refreshes, 1u);
    EXPECT_EQ(f.zns.stats().refresh.migratedPages, f.zns.zoneCapacity());
    EXPECT_EQ(f.zns.znsStats().refreshErases, 2u);
    // The zone's identity survives: same state/wp, new physical blocks,
    // the old ones recycled through the spare pool.
    EXPECT_EQ(f.zns.state(0), ZoneState::Full);
    EXPECT_EQ(f.zns.programmedPages(0), f.zns.zoneCapacity());
    EXPECT_NE(f.zns.zoneBlock(0, 0), oldB0);
    EXPECT_NE(f.zns.zoneBlock(0, 1), oldB1);
    EXPECT_EQ(f.zns.spareBlocks(), 16u); // pool size is conserved
}

TEST(Zns, ResetDuringRefreshIsDeferredUntilMigrationEnds)
{
    ssd::SsdConfig cfg = ssd::SsdConfig::tinyZns();
    cfg.ftl.refreshPeriod = 5 * sim::kSec;
    cfg.ftl.refreshCheckInterval = sim::kSec;
    cfg.ftl.preloadAgeSpread = sim::Time{1};
    ZnsFixture f(cfg);
    f.ssd.preloadSequential(f.zns.zoneCapacity());
    f.ssd.start();

    // Catch zone 0 mid-migration, then reset it.
    const sim::Time limit = 4 * cfg.ftl.refreshPeriod;
    while (f.ssd.events().now() < limit && !f.zns.refreshing(0))
        f.ssd.events().runUntil(f.ssd.events().now() + sim::kMsec);
    ASSERT_TRUE(f.zns.refreshing(0));

    bool completed = false;
    f.zns.zoneReset(0, ftl::PageDone{[&completed](sim::Time) {
        completed = true;
    }});
    EXPECT_EQ(f.zns.znsStats().deferredResets, 1u);
    EXPECT_FALSE(completed);
    EXPECT_EQ(f.zns.state(0), ZoneState::Full); // not applied yet

    f.settle();
    EXPECT_TRUE(completed);
    EXPECT_EQ(f.zns.state(0), ZoneState::Empty);
    EXPECT_EQ(f.zns.znsStats().resets, 1u);
}

TEST(Zns, ZoneOpsFlowThroughHostRequests)
{
    ZnsFixture f;
    f.ssd.start();

    ssd::HostRequest append;
    append.isRead = false;
    append.zoneOp = ftl::zns::ZoneOp::Append;
    append.zone = 4;
    append.pageCount = 3;
    f.ssd.submit(append);
    f.settle();
    EXPECT_EQ(f.zns.writePointer(4), 3u);
    EXPECT_EQ(f.ssd.stats().writeRequests, 1u);
    EXPECT_EQ(f.ssd.stats().zoneMgmtRequests, 0u);

    ssd::HostRequest finish;
    finish.arrival = f.ssd.events().now();
    finish.isRead = false;
    finish.zoneOp = ftl::zns::ZoneOp::Finish;
    finish.zone = 4;
    f.ssd.submit(finish);
    ssd::HostRequest reset;
    reset.arrival = finish.arrival;
    reset.isRead = false;
    reset.zoneOp = ftl::zns::ZoneOp::Reset;
    reset.zone = 4;
    f.ssd.submit(reset);
    f.settle();
    EXPECT_EQ(f.zns.state(4), ZoneState::Empty);
    // Management ops are counted separately from the data path.
    EXPECT_EQ(f.ssd.stats().zoneMgmtRequests, 2u);
    EXPECT_EQ(f.ssd.stats().writeRequests, 1u);
    EXPECT_EQ(f.ssd.stats().readRequests, 0u);
}

TEST(ZnsWorkload, RejectsBadInputAsInvalidArgument)
{
    workload::ZnsWorkloadConfig wl;
    wl.totalRequests = 100;

    // Page-mapped device: the zone host cannot drive it.
    EXPECT_THROW(
        workload::runZnsWorkload(ssd::SsdConfig::tiny(), wl, "page"),
        std::invalid_argument);

    // Zones so large that fewer than 4 fit on the device.
    ssd::SsdConfig few = ssd::SsdConfig::tinyZns();
    few.zns.blocksPerZone = 30;
    EXPECT_THROW(workload::runZnsWorkload(few, wl, "few-zones"),
                 std::invalid_argument);

    // A closed loop with nothing in flight.
    for (const int qd : {0, -3}) {
        wl.queueDepth = qd;
        EXPECT_THROW(workload::runZnsWorkload(ssd::SsdConfig::tinyZns(),
                                              wl, "qd"),
                     std::invalid_argument)
            << "queue depth " << qd;
    }
}

#ifdef IDA_AUDIT

TEST(ZnsDeath, IllegalTransitionsPanicUnderAudit)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Append to a FULL zone.
    EXPECT_DEATH(
        {
            ZnsFixture f;
            f.append(0, static_cast<std::uint32_t>(f.zns.zoneCapacity()));
            f.zns.zoneAppend(0, noop());
        },
        "append to FULL zone");
    // Open beyond the open-zone budget (tinyZns: 4).
    EXPECT_DEATH(
        {
            ZnsFixture f;
            for (std::uint32_t z = 0; z < 5; ++z)
                f.zns.zoneOpen(z, noop());
        },
        "open-zone limit");
    // Close a zone that is not open.
    EXPECT_DEATH(
        {
            ZnsFixture f;
            f.zns.zoneClose(3, noop());
        },
        "close of a non-OPEN zone");
}

#else // !IDA_AUDIT

TEST(Zns, IllegalOpsAreCountedAndCompletedInDefaultBuilds)
{
    ZnsFixture f;
    f.append(0, static_cast<std::uint32_t>(f.zns.zoneCapacity()));
    bool completed = false;
    f.zns.zoneAppend(0, ftl::PageDone{[&completed](sim::Time) {
        completed = true;
    }});
    f.settle();
    EXPECT_TRUE(completed); // completes as a no-op...
    EXPECT_EQ(f.zns.znsStats().illegalOps, 1u);
    EXPECT_EQ(f.zns.writePointer(0), f.zns.zoneCapacity());

    for (std::uint32_t z = 1; z <= 4; ++z)
        f.zns.zoneOpen(z, noop());
    f.zns.zoneOpen(5, noop()); // budget of 4 exhausted
    EXPECT_EQ(f.zns.znsStats().illegalOps, 2u);
    EXPECT_EQ(f.zns.openZones(), 4u);
}

#endif // IDA_AUDIT

} // namespace
