/**
 * @file
 * Simulation-kernel microbenchmark: the perf trajectory of the hot path.
 *
 * Raw dispatch rate (events/sec): 256 self-rescheduling actors pump
 * IDA_PERF_EVENTS events (default 4M) through one EventQueue with
 * LCG-jittered delays and kernel-sized (40-byte) capture sets — the
 * schedule/pop/invoke cycle and nothing else, i.e. the kernel overhead
 * every simulated flash command pays. End-to-end simulated IOs per
 * second are measured by perfbench (perfbench/README.md), not here.
 *
 * Emits $IDA_RESULTS_DIR/BENCH_kernel.json with the schema
 *   { "bench": "perf_kernel", "commit": <IDA_BENCH_COMMIT or "unknown">,
 *     "events_per_sec": N, "wall_ms": N,
 *     "config": { geometry/coding/build fingerprint } }
 * so every PR can record its numbers next to the committed baseline in
 * bench/baselines/ (see docs/PERF.md for the comparison workflow). The
 * config fingerprint exists so a baseline diff can distinguish "the
 * code got slower" from "the benchmark is measuring a different build"
 * — tools/check_bench_json.sh refuses a baseline comparison when
 * fingerprints disagree. It still names the paper device the removed
 * end-to-end legs ran, so the committed baselines stay comparable.
 *
 * Wall-clock results are machine-dependent by nature; compare only
 * numbers measured on the same machine.
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>

#include "sim/event_queue.hh"
#include "ssd/config.hh"
#include "stats/json_writer.hh"
#include "workload/batch.hh"

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Per-process CPU seconds. The raw-dispatch stage divides by this, not
 * wall time: on a shared machine wall time charges the kernel for every
 * preemption, while CPU time prices exactly the work per event — which
 * is the quantity a kernel change moves.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t
envU64(const char *name, std::uint64_t dflt)
{
    if (const char *env = std::getenv(name)) {
        const long long v = std::atoll(env);
        if (v > 0)
            return static_cast<std::uint64_t>(v);
    }
    return dflt;
}

/**
 * The raw-dispatch harness: a fixed population of actors, each
 * rescheduling itself with a pseudo-random (but seed-deterministic)
 * delay until the shared event budget runs out.
 *
 * Two deliberate choices make this representative of simulator load
 * rather than a best-case toy:
 *  - each callback captures 40 bytes (the shape of the kernel's real
 *    completion chains, e.g. a done-callback plus a this pointer plus
 *    a timestamp) — beyond std::function's 16-byte SBO, i.e. exactly
 *    the capture class the old kernel heap-allocated per event;
 *  - 256 actors with delays spanning ~2k ticks keep a few hundred
 *    events pending, the scale a multi-die simulation sustains, with
 *    regular same-tick collisions exercising the FIFO tie-break.
 */
class ActorBench
{
  public:
    explicit ActorBench(std::uint64_t budget) : remaining_(budget) {}

    double
    run(int actors)
    {
        for (int a = 0; a < actors; ++a)
            step(0x9e3779b9u * static_cast<std::uint32_t>(a + 1),
                 Payload{{1, 2, 3}});
        const double start = cpuSeconds();
        q_.run();
        const double secs = cpuSeconds() - start;
        return static_cast<double>(q_.executed()) / secs;
    }

    std::uint64_t executed() const { return q_.executed(); }
    std::uint64_t checksum() const { return checksum_; }

  private:
    /** Ballast making the capture set kernel-sized (see file header). */
    struct Payload
    {
        std::uint64_t v[3];
    };

    void
    step(std::uint32_t rng, Payload p)
    {
        if (remaining_ == 0) {
            checksum_ += p.v[0] ^ p.v[1] ^ p.v[2];
            return;
        }
        --remaining_;
        rng = rng * 1664525u + 1013904223u;
        p.v[rng % 3] += rng;
        q_.scheduleAfter(ida::sim::Time{1 + (rng >> 21)},
                         [this, rng, p] { step(rng, p); });
    }

    ida::sim::EventQueue q_;
    std::uint64_t remaining_;
    std::uint64_t checksum_ = 0;
};

const char *
codingName(ida::ssd::CodingChoice c)
{
    using ida::ssd::CodingChoice;
    switch (c) {
    case CodingChoice::Tlc124:
        return "Tlc124";
    case CodingChoice::Tlc232:
        return "Tlc232";
    case CodingChoice::Mlc12:
        return "Mlc12";
    case CodingChoice::Qlc1248:
        return "Qlc1248";
    }
    return "unknown";
}

/**
 * The config/build fingerprint: everything that would make two
 * BENCH_kernel.json records incomparable even on the same machine.
 */
void
writeFingerprint(ida::stats::JsonWriter &w, const ida::ssd::SsdConfig &cfg)
{
    using ida::stats::JsonWriter;
    const ida::flash::Geometry &g = cfg.geometry;
    w.key("config");
    w.beginObject();
    w.key("geometry");
    w.beginObject();
    w.field("channels", std::uint64_t{g.channels});
    w.field("chips_per_channel", std::uint64_t{g.chipsPerChannel});
    w.field("dies_per_chip", std::uint64_t{g.diesPerChip});
    w.field("planes_per_die", std::uint64_t{g.planesPerDie});
    w.field("blocks_per_plane", std::uint64_t{g.blocksPerPlane});
    w.field("pages_per_block", std::uint64_t{g.pagesPerBlock});
    w.field("page_size_bytes", std::uint64_t{g.pageSizeBytes});
    w.field("sector_size_bytes", std::uint64_t{g.sectorSizeBytes});
    w.endObject();
    w.field("coding", codingName(cfg.coding));
    w.field("system", cfg.systemLabel());
    w.key("build");
    w.beginObject();
    w.field("compiler", __VERSION__);
#ifdef NDEBUG
    w.field("ndebug", true);
#else
    w.field("ndebug", false);
#endif
#ifdef IDA_AUDIT
    w.field("audit", true);
#else
    w.field("audit", false);
#endif
#ifdef IDA_TRACE
    w.field("trace", true);
#else
    w.field("trace", false);
#endif
    w.endObject();
    w.endObject();
}

} // namespace

int
main()
{
    using namespace ida;

    const std::uint64_t events = envU64("IDA_PERF_EVENTS", 4'000'000);
    const char *commit_env = std::getenv("IDA_BENCH_COMMIT");
    const std::string commit = commit_env ? commit_env : "unknown";

    std::printf("perf_kernel: %llu raw events\n",
                static_cast<unsigned long long>(events));

    const auto total_start = Clock::now();

    ActorBench raw(events);
    const double events_per_sec = raw.run(256);
    std::printf("  events/sec: %.0f  (%llu events)\n", events_per_sec,
                static_cast<unsigned long long>(raw.executed()));

    const double wall_ms = 1000.0 * secondsSince(total_start);
    std::printf("  total wall: %.0f ms\n", wall_ms);

    const std::string path = workload::resultsDir() + "/BENCH_kernel.json";
    {
        const std::filesystem::path p(path);
        std::error_code ec;
        if (p.has_parent_path())
            std::filesystem::create_directories(p.parent_path(), ec);
        std::ofstream os(p);
        if (!os) {
            std::fprintf(stderr, "perf_kernel: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        stats::JsonWriter w(os);
        w.beginObject();
        w.field("bench", "perf_kernel");
        w.field("commit", commit);
        w.field("events_per_sec", events_per_sec);
        w.field("wall_ms", wall_ms);
        ssd::SsdConfig cfg = ssd::SsdConfig::paperTlc();
        cfg.ftl.enableIda = true;
        cfg.adjustErrorRate = 0.20;
        writeFingerprint(w, cfg);
        w.endObject();
        os << "\n";
    }
    std::printf("json: %s\n", path.c_str());
    return 0;
}
