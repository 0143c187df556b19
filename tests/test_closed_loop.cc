/**
 * @file
 * Tests for the closed-loop (saturation) runner used by the Fig. 10
 * throughput harness.
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "workload/batch.hh"
#include "workload/runner.hh"

namespace ida::workload {
namespace {

WorkloadPreset
quickPreset()
{
    WorkloadPreset p = scaled(presetByName("hm_1"), 0.05);
    return p;
}

TEST(ClosedLoop, SaturatesTheDevice)
{
    const auto r = runClosedLoop(ssd::SsdConfig::paperTlc(),
                                 quickPreset(), 16);
    EXPECT_GT(r.measuredReads, 1000u);
    EXPECT_GT(r.throughputMBps, 0.0);
    // Under saturation the device must be far busier than an open-loop
    // replay: tens of MB/s at least on this geometry.
    EXPECT_GT(r.throughputMBps, 50.0);
}

TEST(ClosedLoop, IdaStateIsPreparedBeforeTraffic)
{
    ssd::SsdConfig ida = ssd::SsdConfig::paperTlc();
    ida.ftl.enableIda = true;
    ida.adjustErrorRate = 0.2;
    const auto r = runClosedLoop(ida, quickPreset(), 16);
    // The preparation phase completed a refresh wave, so measured reads
    // are served from IDA wordlines.
    EXPECT_GT(r.ftl.refresh.idaRefreshes, 0u);
    EXPECT_GT(r.ftl.readClass.idaServed, 0u);
}

TEST(ClosedLoop, DeeperQueueGivesMoreThroughput)
{
    const auto q4 = runClosedLoop(ssd::SsdConfig::paperTlc(),
                                  quickPreset(), 4);
    const auto q32 = runClosedLoop(ssd::SsdConfig::paperTlc(),
                                   quickPreset(), 32);
    EXPECT_GT(q32.throughputMBps, q4.throughputMBps);
}

TEST(ClosedLoop, Deterministic)
{
    const auto a = runClosedLoop(ssd::SsdConfig::paperTlc(),
                                 quickPreset(), 8);
    const auto b = runClosedLoop(ssd::SsdConfig::paperTlc(),
                                 quickPreset(), 8);
    EXPECT_DOUBLE_EQ(a.throughputMBps, b.throughputMBps);
    EXPECT_EQ(a.measuredReads, b.measuredReads);
}

TEST(ClosedLoop, RejectsQueueDepthBelowOneAsInvalidArgument)
{
    // Nothing in flight means nothing ever completes: the run must be
    // refused up front, not simulated for its whole time limit.
    for (const int qd : {0, -1}) {
        EXPECT_THROW(runClosedLoop(ssd::SsdConfig::paperTlc(),
                                   quickPreset(), qd),
                     std::invalid_argument)
            << "queue depth " << qd;
    }
}

TEST(ClosedLoop, MatrixRecordsBadQueueDepthAsCellError)
{
    RunSpec s;
    s.tag = "qd0";
    s.device = ssd::SsdConfig::paperTlc();
    s.preset = quickPreset();
    s.kind = RunKind::ClosedLoop;
    s.queueDepth = 0;
    BatchOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    const BatchOutcome out = runMatrix({s}, opts);
    ASSERT_EQ(out.errors.size(), 1u);
    EXPECT_NE(out.errors[0].find("queueDepth >= 1"), std::string::npos)
        << out.errors[0];
}

} // namespace
} // namespace ida::workload
