#include "workload/zns_workload.hh"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>
#include <vector>

#include "workload/host.hh"

namespace ida::workload {

namespace {

/** Host-side mirror of a zone's state. `Resetting` covers the window
 *  between submitting a reset and its last erase completing, during
 *  which the host must not touch the zone (the device may also still
 *  be refreshing it, with the reset deferred). */
enum class HostZone : std::uint8_t {
    Empty,
    Active, // open and being appended
    Closed,
    Full,
    Resetting,
};

/** The log-structured ZNS host (see the header). One instance drives
 *  one closed-loop run; every member is host bookkeeping only. */
struct ZnsHost
{
    ssd::Ssd &ssd;
    const ZnsWorkloadConfig &wl;
    sim::Rng rng;

    std::uint32_t zones;
    std::uint64_t zoneCap;
    std::uint32_t maxActive;

    std::vector<HostZone> state;
    std::vector<std::uint64_t> wp;   // host view of the write pointer
    std::vector<std::uint64_t> prog; // host view of programmed pages
    std::deque<std::uint32_t> fullFifo;   // reset victims, oldest first
    std::deque<std::uint32_t> closedPool; // reopen candidates
    std::vector<std::uint32_t> active;
    std::uint32_t nextEmpty = 0; // scan hint over `state`
    ClosedLoop &loop;

    ZnsHost(ssd::Ssd &ssd_, const ZnsWorkloadConfig &wl_,
            std::uint32_t preloaded_zones, ClosedLoop &loop_)
        : ssd(ssd_), wl(wl_), rng(wl_.seed), loop(loop_)
    {
        const ftl::zns::ZnsFtl &z = ssd.backend().zns();
        zones = z.zones();
        zoneCap = z.zoneCapacity();
        maxActive = std::max<std::uint32_t>(
            1, std::min(wl.activeZones,
                        ssd.config().zns.maxOpenZones));
        state.assign(zones, HostZone::Empty);
        wp.assign(zones, 0);
        prog.assign(zones, 0);
        for (std::uint32_t zn = 0; zn < preloaded_zones; ++zn) {
            state[zn] = HostZone::Full;
            wp[zn] = prog[zn] = zoneCap;
            fullFifo.push_back(zn);
        }
    }

    /** One closed-loop turn: submit exactly one request, completing
     *  back into pump(). Returns false when the budget is spent. */
    bool pump()
    {
        if (!loop.admit(ssd, loop.submitted() < wl.totalRequests))
            return false;
        if (rng.chance(wl.readFraction) && submitRead())
            return true;
        submitAppendTurn();
        return true;
    }

    /** Submit @p hr now; its completion pumps the next turn unless
     *  @p on_complete is given. */
    void submit(ssd::HostRequest hr,
                std::function<void(sim::Time)> on_complete = {})
    {
        hr.arrival = ssd.events().now();
        hr.onComplete = on_complete ? std::move(on_complete)
                                    : [this](sim::Time) { pump(); };
        ssd.submit(hr);
    }

    void submitZoneOp(ftl::zns::ZoneOp op, std::uint32_t zone,
                      std::uint32_t page_count,
                      std::function<void(sim::Time)> on_complete = {})
    {
        ssd::HostRequest hr;
        hr.isRead = false;
        hr.zoneOp = op;
        hr.zone = zone;
        hr.pageCount = page_count;
        submit(hr, std::move(on_complete));
    }

    /** Read a burst of written pages; false when nothing is readable
     *  (the caller falls through to an append turn). */
    bool submitRead()
    {
        // Prefer settled (full) zones; fall back to a zone mid-append.
        std::uint32_t zone = zones;
        if (!fullFifo.empty()) {
            zone = fullFifo[static_cast<std::size_t>(
                rng.uniformInt(0, fullFifo.size() - 1))];
        } else {
            for (std::uint32_t cand : active)
                if (prog[cand] > 0) {
                    zone = cand;
                    break;
                }
        }
        if (zone == zones || prog[zone] == 0)
            return false;
        // Mostly within the programmed prefix; rarely beyond it, to
        // exercise the unmapped-read path of finished zones.
        const bool probe = prog[zone] < zoneCap && rng.chance(0.02);
        const std::uint64_t limit = probe ? zoneCap : prog[zone];
        const std::uint64_t off = rng.uniformInt(0, limit - 1);
        const std::uint32_t count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(1 + rng.uniformInt(0, 3),
                                    limit - off));
        ssd::HostRequest hr;
        hr.startPage = std::uint64_t{zone} * zoneCap + off;
        hr.pageCount = count;
        submit(hr);
        return true;
    }

    /** A write turn: usually an append, sometimes a finish/close, and
     *  when no zone is appendable, the acquisition step (open or
     *  reset) that makes one so. */
    void submitAppendTurn()
    {
        if (!active.empty() && rng.chance(wl.finishFraction)) {
            finishZone(takeActive());
            return;
        }
        if (!active.empty() && rng.chance(wl.closeFraction)) {
            closeZone(takeActive());
            return;
        }
        if (active.size() < maxActive && acquireZone())
            return; // the acquisition op consumed this turn
        if (active.empty()) {
            // Nothing appendable and nothing acquirable right now
            // (e.g. every candidate is mid-reset): keep the loop
            // alive with a read — legal in every zone state, even of
            // never-written offsets (the unmapped-read path).
            if (!submitRead()) {
                ssd::HostRequest hr;
                hr.startPage = rng.uniformInt(0, zones - 1) * zoneCap;
                submit(hr);
            }
            return;
        }
        appendTo(active[static_cast<std::size_t>(
            rng.uniformInt(0, active.size() - 1))]);
    }

    std::uint32_t takeActive()
    {
        const std::size_t i = static_cast<std::size_t>(
            rng.uniformInt(0, active.size() - 1));
        const std::uint32_t zone = active[i];
        active[i] = active.back();
        active.pop_back();
        return zone;
    }

    void appendTo(std::uint32_t zone)
    {
        const std::uint32_t burst = std::max(1u, wl.appendBurstPages);
        const std::uint64_t room = zoneCap - wp[zone];
        const std::uint32_t count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(1 + rng.uniformInt(0, 2 * burst - 2),
                                    room));
        submitZoneOp(ftl::zns::ZoneOp::Append, zone, count);
        wp[zone] += count;
        prog[zone] = wp[zone];
        if (wp[zone] == zoneCap) {
            // The device transitions OPEN -> FULL on the last append.
            state[zone] = HostZone::Full;
            fullFifo.push_back(zone);
            active.erase(std::find(active.begin(), active.end(), zone));
        }
    }

    void finishZone(std::uint32_t zone)
    {
        submitZoneOp(ftl::zns::ZoneOp::Finish, zone, 1);
        state[zone] = HostZone::Full;
        wp[zone] = zoneCap; // programmed pages stay where they were
        fullFifo.push_back(zone);
    }

    void closeZone(std::uint32_t zone)
    {
        submitZoneOp(ftl::zns::ZoneOp::Close, zone, 1);
        if (wp[zone] == 0) {
            state[zone] = HostZone::Empty; // the device falls to EMPTY
        } else {
            state[zone] = HostZone::Closed;
            closedPool.push_back(zone);
        }
    }

    /** Activate @p zone with an explicit open or, spending the turn
     *  on it, its first (implicitly opening) append. */
    bool claim(std::uint32_t zone)
    {
        state[zone] = HostZone::Active;
        active.push_back(zone);
        if (rng.chance(wl.explicitOpenFraction))
            submitZoneOp(ftl::zns::ZoneOp::Open, zone, 1);
        else
            appendTo(zone);
        return true;
    }

    /**
     * Make a zone appendable, spending this turn's request on the
     * transition op: reopen a closed zone, open/claim an empty one, or
     * reset the oldest full zone. Returns false when nothing could be
     * acquired without an op (the claimed zone appends right away).
     */
    bool acquireZone()
    {
        if (!closedPool.empty()) {
            const std::uint32_t zone = closedPool.front();
            closedPool.pop_front();
            return claim(zone);
        }
        for (std::uint32_t n = 0; n < zones; ++n) {
            const std::uint32_t zone = (nextEmpty + n) % zones;
            if (state[zone] == HostZone::Empty) {
                nextEmpty = (zone + 1) % zones;
                return claim(zone);
            }
        }
        if (!fullFifo.empty()) {
            const std::uint32_t zone = fullFifo.front();
            fullFifo.pop_front();
            state[zone] = HostZone::Resetting;
            // Resetting a zone the device is refreshing is legal (the
            // device defers it); the host just stays away until the
            // completion marks the zone empty again.
            submitZoneOp(ftl::zns::ZoneOp::Reset, zone, 1,
                         [this, zone](sim::Time) {
                             state[zone] = HostZone::Empty;
                             wp[zone] = prog[zone] = 0;
                             pump();
                         });
            return true;
        }
        return false;
    }
};

} // namespace

RunResult
runZnsWorkload(const ssd::SsdConfig &device, const ZnsWorkloadConfig &wl,
               const std::string &label)
{
    ClosedLoop loop(wl.queueDepth, wl.warmupFraction, wl.totalRequests);
    if (device.backend != ftl::BackendKind::Zns)
        throw std::invalid_argument(
            "runZnsWorkload: device does not select the ZNS backend");
    const auto dev = makeDevice(
        hostConfig(device, Arrivals::Closed, std::nullopt));
    ssd::Ssd &ssd = *dev;
    const ftl::zns::ZnsFtl &z = ssd.backend().zns();
    if (z.zones() < 4)
        throw std::invalid_argument("runZnsWorkload: need at least 4 zones");

    // Preload whole zones up to the utilization target, always leaving
    // room for the active zones plus one spare empty zone.
    const auto headroom = std::max<std::uint32_t>(wl.activeZones + 1, 2);
    const std::uint32_t preloaded = std::min<std::uint32_t>(
        static_cast<std::uint32_t>(wl.utilizationTarget *
                                   static_cast<double>(z.zones())),
        z.zones() - headroom);
    const std::uint64_t footprint = std::uint64_t{preloaded} * z.zoneCapacity();
    ssd.preloadSequential(footprint);

    ZnsHost host(ssd, wl, preloaded, loop);
    return loop.run(ssd, [&host] { return host.pump(); }, label, footprint);
}

} // namespace ida::workload
