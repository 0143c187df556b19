/**
 * @file
 * Cross-shard extension of the invariant auditor (src/audit).
 *
 * The single-device Auditor closes the gap between a device's layers;
 * a fleet adds one more seam: the boundary between the coordinator's
 * fleet-level accounting and the N member devices running their lanes
 * on the fleet's threads. FleetAuditor audits both sides — it runs every member's
 * full default catalog (audit::Auditor) and then checks the
 * conservation equations that span the shard boundaries:
 *
 *  - sub-request conservation: every sub-request the coordinator
 *    fanned out is either completed or pending in exactly one live
 *    fleet slot (staged == completed + pending);
 *  - device/fleet agreement: the members' summed in-flight request
 *    counts equal the fleet's pending sub-requests;
 *  - request conservation: submitted fleet requests == completed +
 *    open;
 *  - clock alignment: every member queue sits exactly on the fleet's
 *    clock, the last chunk's end boundary (a device ahead of or behind
 *    it would break conservative lookahead);
 *  - causality: no member queue ever counted a past-time schedule
 *    (under IDA_AUDIT the kernel panics before this check could see
 *    one; in default builds this is where a clamped horizon violation
 *    becomes visible).
 *
 * Like the device auditor, this is a debug tool: O(devices * pages)
 * per run, touches nothing, and must only run between chunks (the
 * members belong to their lane tasks while Fleet::run is inside one).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.hh"
#include "fleet/fleet.hh"

namespace ida::fleet {

/** Audits a Fleet: member catalogs plus cross-shard conservation. */
class FleetAuditor
{
  public:
    /** Attach to @p fleet; one audit::Auditor per member is created. */
    explicit FleetAuditor(Fleet &fleet);

    /**
     * Run every member's catalog and the cross-shard checks; returns
     * the number of new violations (member + fleet-level).
     */
    std::size_t runAll();

    /** Fleet-level (cross-shard) violations only. */
    const std::vector<audit::Violation> &violations() const {
        return violations_;
    }

    /** Total violations across members and fleet-level checks. */
    std::uint64_t totalViolations() const;

    /** Completed runAll() passes. */
    std::uint64_t runs() const { return runs_; }

    /** One-line status plus leading violations, for loggers. */
    std::string summary() const;

    audit::Auditor &deviceAuditor(std::uint32_t d) { return *members_[d]; }

  private:
    void fail(const std::string &check, std::string detail);
    void checkCrossShard();

    Fleet &fleet_;
    std::vector<std::unique_ptr<audit::Auditor>> members_;
    std::vector<audit::Violation> violations_;
    std::uint64_t fleetViolations_ = 0;
    std::uint64_t runs_ = 0;
};

} // namespace ida::fleet
