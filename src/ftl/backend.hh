/**
 * @file
 * The multi-backend FTL facade.
 *
 * FtlBackend owns exactly one translation-layer implementation — the
 * page-mapped ftl::Ftl (the paper's FTL: mapping table, CWDP
 * allocation, GC, IDA refresh) or the zoned ftl::zns::ZnsFtl — and
 * routes every host-visible operation to it through a switch on
 * BackendKind. Dispatch is deliberately virtual-free: a two-way enum
 * switch inlines and branch-predicts where a vtable call would not,
 * keeps both implementations final and non-polymorphic, and stays
 * inside the hot-path lint rules (IDA001–IDA009: no std::function, no
 * raw allocation, no exceptions on src/ftl paths).
 *
 * The interface contract — which operations each backend accepts, the
 * zone state machine, and how to add a third backend — is documented in
 * docs/BACKENDS.md.
 */
#pragma once

#include <memory>

#include "ftl/ftl.hh"
#include "ftl/zns/zns_config.hh"
#include "ftl/zns/zns_ftl.hh"
#include "ftl/zns/zone_types.hh"

namespace ida::ftl {

/** Which translation layer a device runs. */
enum class BackendKind : std::uint8_t {
    /** Page-mapped FTL: L2P table, GC, IDA refresh (the paper's). */
    PageMapped,
    /** Zoned namespace: append/reset zones, refresh-only migration. */
    Zns,
};

/** Human-readable backend name (config labels, result JSON). */
inline const char *
backendName(BackendKind k)
{
    return k == BackendKind::PageMapped ? "page" : "zns";
}

/**
 * Owns one backend and dispatches to it. See the file comment for the
 * dispatch model; accessor pairs (pageMapped()/zns()) are fatal when
 * the other backend is active, so call sites that are inherently
 * backend-specific fail loudly instead of reading junk.
 */
class FtlBackend
{
  public:
    FtlBackend(BackendKind kind, const flash::Geometry &geom,
               const FtlConfig &cfg, const zns::ZnsConfig &zcfg,
               flash::ChipArray &chips, ecc::EccModel ecc,
               sim::EventQueue &events, sim::Rng &rng)
        : kind_(kind)
    {
        if (kind_ == BackendKind::PageMapped)
            page_ = std::make_unique<Ftl>(geom, cfg, chips,
                                          std::move(ecc), events, rng);
        else
            zns_ = std::make_unique<zns::ZnsFtl>(geom, cfg, zcfg, chips,
                                                 std::move(ecc), events,
                                                 rng);
    }

    BackendKind kind() const { return kind_; }

    /** The page-mapped implementation (fatal on a ZNS device). */
    Ftl &pageMapped() {
        if (kind_ != BackendKind::PageMapped)
            sim::fatal("FtlBackend: page-mapped access on a ZNS device");
        return *page_;
    }
    const Ftl &pageMapped() const {
        if (kind_ != BackendKind::PageMapped)
            sim::fatal("FtlBackend: page-mapped access on a ZNS device");
        return *page_;
    }

    /** The ZNS implementation (fatal on a page-mapped device). */
    zns::ZnsFtl &zns() {
        if (kind_ != BackendKind::Zns)
            sim::fatal("FtlBackend: ZNS access on a page-mapped device");
        return *zns_;
    }
    const zns::ZnsFtl &zns() const {
        if (kind_ != BackendKind::Zns)
            sim::fatal("FtlBackend: ZNS access on a page-mapped device");
        return *zns_;
    }

    // ---- The backend-agnostic operation surface. ----------------------

    std::uint64_t logicalPages() const {
        return kind_ == BackendKind::PageMapped ? page_->logicalPages()
                                                : zns_->logicalPages();
    }

    void start() {
        if (kind_ == BackendKind::PageMapped)
            page_->start();
        else
            zns_->start();
    }

    void hostRead(flash::Lpn lpn, flash::SectorMask sectors,
                  PageDone done) {
        if (kind_ == BackendKind::PageMapped)
            page_->hostRead(lpn, sectors, std::move(done));
        else
            zns_->hostRead(lpn, sectors, std::move(done));
    }

    /** Page-granular host write; illegal on ZNS (hosts must append). */
    void hostWrite(flash::Lpn lpn, flash::SectorMask sectors,
                   PageDone done) {
        if (kind_ == BackendKind::PageMapped)
            page_->hostWrite(lpn, sectors, std::move(done));
        else
            sim::fatal("FtlBackend: page write on a ZNS device (use "
                       "zone append)");
    }

    /** Page/sector TRIM; illegal on ZNS (invalidity is whole-zone). */
    void hostTrim(flash::Lpn lpn, flash::SectorMask sectors) {
        if (kind_ == BackendKind::PageMapped)
            page_->hostTrim(lpn, sectors);
        else
            sim::fatal("FtlBackend: TRIM on a ZNS device (use zone "
                       "reset)");
    }

    /** Instant preload of logical pages [0, pages). */
    void preload(std::uint64_t pages) {
        if (kind_ == BackendKind::PageMapped) {
            for (flash::Lpn lpn = 0; lpn < pages; ++lpn)
                page_->preloadWrite(lpn);
            page_->finalizePreload();
        } else {
            zns_->preloadFill(pages);
            zns_->finalizePreload();
        }
    }

    bool quiescent() const {
        return kind_ == BackendKind::PageMapped ? page_->quiescent()
                                                : zns_->quiescent();
    }

    /**
     * True once the initial refresh wave is over: the backend is
     * quiescent and no block (zone) is due its first refresh. Blocks
     * an IDA refresh already coded re-expire a full period later, long
     * after a closed-loop run ends, so they do not count.
     */
    bool refreshWaveDone(sim::Time now) const {
        if (!quiescent())
            return false;
        if (kind_ == BackendKind::PageMapped) {
            const BlockManager &bm = page_->blocks();
            for (flash::BlockId b :
                 bm.refreshCandidates(now, page_->config().refreshPeriod))
                if (!bm.meta(b).forceMigrateNextRefresh())
                    return false;
            return true;
        }
        for (std::uint32_t zn = 0; zn < zns_->zones(); ++zn)
            if (zns_->state(zn) == zns::ZoneState::Full &&
                !zns_->refreshing(zn) && zns_->programmedPages(zn) > 0 &&
                now - zns_->refreshedAt(zn) > zns_->config().refreshPeriod)
                return false;
        return true;
    }

    const FtlStats &stats() const {
        return kind_ == BackendKind::PageMapped ? page_->stats()
                                                : zns_->stats();
    }

    void resetReadClassification() {
        if (kind_ == BackendKind::PageMapped)
            page_->resetReadClassification();
        else
            zns_->resetReadClassification();
    }

    void setTracer(trace::Recorder *tracer) {
        if (kind_ == BackendKind::PageMapped)
            page_->setTracer(tracer);
        else
            zns_->setTracer(tracer);
    }

    // ---- Zone operations (ZNS; fatal on the page-mapped backend). -----

    void zoneAppend(std::uint32_t zone, PageDone done) {
        zns().zoneAppend(zone, std::move(done));
    }
    void zoneReset(std::uint32_t zone, PageDone done) {
        zns().zoneReset(zone, std::move(done));
    }
    void zoneOpen(std::uint32_t zone, PageDone done) {
        zns().zoneOpen(zone, std::move(done));
    }
    void zoneClose(std::uint32_t zone, PageDone done) {
        zns().zoneClose(zone, std::move(done));
    }
    void zoneFinish(std::uint32_t zone, PageDone done) {
        zns().zoneFinish(zone, std::move(done));
    }

  private:
    BackendKind kind_;
    // Exactly one is non-null, selected once at construction; the
    // unique_ptrs keep the facade movable-free and allocation happens
    // once per device, never on an operation path.
    std::unique_ptr<Ftl> page_;
    std::unique_ptr<zns::ZnsFtl> zns_;
};

} // namespace ida::ftl
