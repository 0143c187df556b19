/**
 * @file
 * Zone-aware workload for ZNS devices.
 *
 * A ZNS host cannot replay a page-granular block trace: writes must be
 * appends at a zone's write pointer and invalidation is whole-zone
 * resets. This family models the canonical log-structured ZNS host
 * (e.g. an LSM/ZenFS-style user): it fills a bounded number of open
 * zones by appending, finishes or closes them occasionally, reads
 * uniformly from written data, and when free zones run out resets the
 * oldest full zone — exactly the invalidation regime the IDA ablation
 * contrasts with page-mapped overwrite churn
 * (bench/ablation_zns_vs_page).
 *
 * The run is closed-loop (queue-depth saturation) on the shared host
 * path (workload/host.hh): the host tracks a mirror of every zone's
 * state and only issues transitions that are legal on the device, so
 * IDA_AUDIT builds — where illegal zone ops panic — run it clean.
 */
#pragma once

#include <cstdint>
#include <string>

#include "workload/runner.hh"

namespace ida::workload {

/** Parameters of one synthetic ZNS host. */
struct ZnsWorkloadConfig
{
    /** Requests to issue (reads + appends + zone management). */
    std::uint64_t totalRequests = 20'000;

    /** Fraction of requests that are reads of written data. */
    double readFraction = 0.85;

    /** Mean pages per append request (bursts are uniform around it). */
    std::uint32_t appendBurstPages = 4;

    /** Fraction of zones preloaded full before the run starts. */
    double utilizationTarget = 0.6;

    /** Chance an append turn instead finishes the active zone early. */
    double finishFraction = 0.01;

    /** Chance an append turn instead closes the active zone. */
    double closeFraction = 0.01;

    /** Acquire new zones with an explicit open (vs implicit) at this
     *  rate, to exercise both transition paths. */
    double explicitOpenFraction = 0.5;

    /** Concurrently appended zones; clamped to the device open limit. */
    std::uint32_t activeZones = 2;

    /** First fraction of requests excluded from measurement. */
    double warmupFraction = 0.2;

    /** Outstanding requests kept in flight (closed loop). */
    int queueDepth = 8;

    /** Host-side randomness seed (independent of the device seed). */
    std::uint64_t seed = 7;
};

/**
 * Run the ZNS host against @p device and harvest a RunResult: preload
 * whole zones, complete the initial refresh wave, then saturate at
 * queueDepth with the first warmupFraction of requests unmeasured.
 *
 * @throws std::invalid_argument when @p device does not select the ZNS
 *         backend, has fewer than 4 zones, or wl.queueDepth < 1.
 */
RunResult runZnsWorkload(const ssd::SsdConfig &device,
                         const ZnsWorkloadConfig &wl,
                         const std::string &label);

} // namespace ida::workload
