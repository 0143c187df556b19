/**
 * @file
 * Deterministic sharded multi-device fleet: one flat host LBA space
 * striped over N independent member SSDs, executed as a conservative-
 * lookahead parallel discrete-event simulation.
 *
 * # Execution model
 *
 * Member devices never exchange events mid-flight: a fleet request is
 * split by the StripeMap into per-device sub-requests up front, and
 * each device then simulates its slice on its own private EventQueue.
 * The trace is open-loop, so no arrival depends on a completion, and
 * every member can run far ahead of the others. The fleet advances in
 * chunks of whole epochs (FleetConfig::epoch):
 *
 *   1. stage: the coordinator (the thread calling run()) splits trace
 *      arrivals into one lane per member, epoch by epoch, and stops at
 *      the first epoch boundary after a fixed request budget;
 *   2. run: each member runs its lane as one task, on its own, over
 *      FleetConfig::shards threads. Per epoch it submits that epoch's
 *      sub-requests at the epoch start, runs its queue to the epoch
 *      end, and logs each completion with its epoch;
 *   3. merge: the coordinator merges the logs once per chunk, epoch by
 *      epoch and within an epoch in device-index order, and finishes
 *      fleet requests whose sub-requests have all completed
 *      (completion time = max over the stripes).
 *
 * Once the trace is exhausted the same loop runs one-epoch chunks, so
 * the end test (no open request and every member drained) sees every
 * epoch boundary. Threads meet only at chunk boundaries.
 *
 * # Determinism contract
 *
 * A fleet run is byte-identical (FleetResult::toJson(false), aggregate
 * and per-device) for a fixed config at ANY shard count, including 1:
 * the per-device event streams depend only on the staged sub-requests
 * (identical by construction) and the epoch grid they are submitted on,
 * chunk boundaries depend only on the trace, and all cross-device
 * aggregation happens single-threaded in a fixed order: the order an
 * epoch-at-a-time loop finishes fleet requests in. Three facts pin the
 * shape of the loop:
 *
 *  - sub-requests are submitted per epoch, at its start, never a chunk
 *    at once: an earlier submit would change how same-tick arrivals
 *    tie with device events scheduled before them;
 *  - the merge keeps epoch-major, device-index order, because
 *    stats::Summary is a running sum whose bits depend on the order;
 *  - the end of the run is a fleet-wide property tested at each epoch
 *    boundary of the tail: Ssd::drained() turns false again when a
 *    refresh starts, and the end boundary is the archived simulatedSec.
 *
 * Per-device seeds are derived, not shared: member d runs with
 * `device.seed ^ deviceSeed(fleetSeed, d)` — the same tag-derived-seed
 * discipline as workload::seedFromTag, extended one level down
 * (harnesses put seedFromTag(tag) into FleetConfig::fleetSeed).
 *
 * A sub-request injected into a device that already advanced past its
 * arrival would be a causality violation; the member queues surface
 * exactly that as a past-time schedule (sim::PastSchedulePolicy — a
 * panic under IDA_AUDIT, a counted clamp otherwise), and
 * FleetResult::pastSchedules sums the counters so CI can assert zero.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/stripe.hh"
#include "ssd/ssd.hh"
#include "stats/histogram.hh"
#include "stats/stats.hh"
#include "workload/presets.hh"
#include "workload/runner.hh"
#include "workload/trace.hh"

namespace ida::fleet {

/** Parameters of a fleet: member template plus array shape. */
struct FleetConfig
{
    /** Per-member device configuration (seed is re-derived per device). */
    ssd::SsdConfig device;

    /** Member count (>= 1). */
    std::uint32_t devices = 4;

    /** Stripe unit in pages. */
    std::uint64_t stripePages = 8;

    /**
     * Threads that run the member lanes of a chunk; clamped to
     * [1, devices], and 1 runs them on the calling thread. Affects
     * wall-clock only — results are byte-identical at any value (see
     * the determinism contract above).
     */
    int shards = 1;

    /**
     * The epoch grid: trace arrivals are submitted to the members at
     * the start of their epoch, and the run ends on the first epoch
     * boundary where the fleet is drained (FleetResult::simulatedTime).
     * Members synchronize only once per chunk of epochs, whatever the
     * value.
     */
    sim::Time epoch = 10 * sim::kMsec;

    /**
     * Fleet-level seed, xor-folded into each member's device seed via
     * deviceSeed(). Harnesses set workload::seedFromTag(tag) here to
     * extend the batch layer's tag-derived-seed discipline to fleets.
     */
    std::uint64_t fleetSeed = 0;
};

/**
 * Stable per-member seed component: splitmix64 over (fleet seed,
 * device index), so members get decorrelated device-noise streams that
 * move as a group when the fleet seed changes.
 */
std::uint64_t deviceSeed(std::uint64_t fleet_seed, std::uint32_t device);

/** Knobs for one Fleet::run invocation. */
struct FleetRunOptions
{
    /** Fleet requests arriving before this are warm-up (unmeasured). */
    sim::Time measureStart{};

    /** Expected trace duration; the drain limit builds on it. */
    sim::Time horizon{};

    /** Workload label recorded in the results. */
    std::string label;
};

/** The measurements of one fleet run: aggregate plus per-member. */
struct FleetResult
{
    std::string workload;
    std::string system; ///< member system label, e.g. "IDA-E20"
    std::uint32_t devices = 0;
    std::uint64_t stripePages = 0;

    // Fleet-request-granular (arrival -> max over stripe completions).
    double readRespUs = 0.0;
    double readP99Us = 0.0;
    double writeRespUs = 0.0;
    double throughputMBps = 0.0;
    std::uint64_t measuredReads = 0;
    std::uint64_t measuredWrites = 0;

    /** Sub-requests fanned out / completed (conservation check pair). */
    std::uint64_t subRequestsStaged = 0;
    std::uint64_t subRequestsCompleted = 0;

    /** Sum of member queues' past-time schedule counters (CI: == 0). */
    std::uint64_t pastSchedules = 0;

    /** Device-level read latency, merged across members. */
    double deviceReadRespUs = 0.0;
    double deviceReadP99Us = 0.0;

    sim::Time simulatedTime{};
    double wallSeconds = 0.0; ///< volatile, never in archive JSON

    /** Per-member harvest, index == device index. */
    std::vector<workload::RunResult> perDevice;

    /**
     * Serialize aggregate and per-device measurements as one JSON
     * object. With @p include_volatile false, wall-clock fields are
     * omitted — the byte-comparable archive form (per-device results
     * are always in archive form; their wall clock is meaningless).
     */
    void writeJson(stats::JsonWriter &w, bool include_volatile) const;

    /** writeJson to a string (volatile fields included by default). */
    std::string toJson(bool include_volatile = true) const;
};

/**
 * The fleet itself: owns the member SSDs and their lanes.
 *
 * Usage: construct, preloadSequential(), then run() a trace. device()
 * and the counters are exposed for the cross-shard auditor
 * (fleet_audit.hh); they must only be touched between chunks (run()
 * owns the members while it executes).
 */
class Fleet
{
  public:
    explicit Fleet(const FleetConfig &cfg);

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    const FleetConfig &config() const { return cfg_; }
    const StripeMap &stripes() const { return map_; }
    std::uint32_t deviceCount() const { return map_.devices(); }
    ssd::Ssd &device(std::uint32_t d) { return *devices_[d]; }
    const ssd::Ssd &device(std::uint32_t d) const { return *devices_[d]; }

    /** Exported fleet capacity in pages (sum over members). */
    std::uint64_t logicalPages() const;

    /** Instantly back fleet pages [0, pages) across the stripes. */
    void preloadSequential(std::uint64_t pages);

    /** Instant pre-run write of one fleet page (block aging). */
    void preloadWrite(flash::Lpn fleet_lpn);

    /** Finish preloading (flushes member preload state). */
    void finalizePreload();

    /**
     * Replay @p trace (fleet LBA space, non-decreasing arrivals) to
     * exhaustion, then drain. Addresses are folded into the preloaded
     * footprint like the single-device runner.
     */
    FleetResult run(workload::TraceStream &trace,
                    const FleetRunOptions &opt);

    // Counters for the cross-shard auditor; valid between chunks.
    std::uint64_t stagedSubRequests() const { return stagedSubs_; }
    std::uint64_t completedSubRequests() const { return completedSubs_; }
    std::uint64_t submittedRequests() const { return submittedReqs_; }
    std::uint64_t completedRequests() const { return completedReqs_; }
    std::uint64_t openRequests() const {
        return submittedReqs_ - completedReqs_;
    }
    /** Pending sub-requests summed over open fleet slots. */
    std::uint64_t pendingSubRequests() const;
    /** The fleet clock: the last epoch boundary reached. */
    sim::Time now() const { return fleetNow_; }
    bool allDrained() const;

  private:
    /** One fleet request while any stripe sub-request is in flight. */
    struct Slot
    {
        sim::Time arrival{};
        sim::Time lastDone{};
        std::uint32_t pending = 0;
        std::uint32_t pages = 0;
        bool isRead = true;
        bool isTrim = false;
        std::uint32_t link = kNilSlot; ///< free list
    };

    /** One finished sub-request, logged by its member's lane task. */
    struct SubDone
    {
        std::uint32_t slot;
        std::uint32_t epoch; ///< within the chunk
        sim::Time done;
    };

    /** Where one epoch's sub-requests end in Lane::subs. */
    struct EpochMark
    {
        std::uint32_t epoch; ///< within the chunk
        std::uint32_t end;
    };

    /**
     * One member's share of a chunk. Staged by the coordinator, then
     * owned by the member's task until the chunk's merge. Aligned so
     * that tasks on different threads never share a cache line.
     */
    struct alignas(64) Lane
    {
        std::vector<ssd::HostRequest> subs; ///< in epoch order
        std::vector<EpochMark> marks;       ///< epochs that staged any
        std::vector<SubDone> done;          ///< completion log
        std::uint32_t epoch = 0;            ///< epoch the task is in
    };

    static constexpr std::uint32_t kNilSlot = ~std::uint32_t{0};

    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t slot);
    void stage(const workload::IoRequest &req, std::uint32_t epoch);
    void runLane(std::uint32_t d);
    void mergeCompletions();
    void finishRequest(std::uint32_t slot);

    FleetConfig cfg_;
    StripeMap map_;
    int threads_ = 1; ///< cfg_.shards clamped to [1, devices]
    std::vector<std::unique_ptr<ssd::Ssd>> devices_;
    std::uint64_t footprint_ = 0; ///< preloaded fleet pages (fold base)

    std::vector<Slot> slots_;
    std::uint32_t freeSlot_ = kNilSlot;
    std::vector<Lane> lanes_;
    std::uint32_t chunkEpochs_ = 0; ///< epochs in the current chunk

    std::uint64_t stagedSubs_ = 0;
    std::uint64_t completedSubs_ = 0;
    std::uint64_t submittedReqs_ = 0;
    std::uint64_t completedReqs_ = 0;
    sim::Time fleetNow_{};

    // Fleet-request-granular measurements (coordinator thread only).
    sim::Time measureStart_{};
    sim::Time lastCompletion_{};
    stats::Summary readRespUs_;
    stats::Summary writeRespUs_;
    stats::Histogram readHist_{1.0, 1.25, 96};
    std::uint64_t measuredReads_ = 0;
    std::uint64_t measuredWrites_ = 0;
    std::uint64_t bytesRead_ = 0;
};

/**
 * Run @p preset against a fleet, mirroring the single-device
 * runPreset(): preload 70% of capacity at most, optional pre-aging
 * writes, warm-up fraction unmeasured. The preset's footprint and
 * request addresses span the whole fleet LBA space.
 */
FleetResult runFleetPreset(const FleetConfig &cfg,
                           const workload::WorkloadPreset &preset);

} // namespace ida::fleet
