/**
 * @file
 * MigrationManager: pre-copy live migration (Clark et al. style, the
 * mechanism underneath paper Section 6.7).
 *
 * Rounds of memory copying run over the migration link while the
 * guest keeps executing and dirtying pages (real dirty pages come from
 * the domain's dirty log — e.g. netback grant-copies — plus a
 * configurable background rate for kernel bookkeeping). When the dirty
 * set is small enough (or rounds are exhausted) the guest is paused
 * for the stop-and-copy phase; service resumes after the remaining
 * pages and device state are transferred.
 *
 * DNIS (core/dnis) wraps this manager with the VF hot-remove /
 * bonding-failover step the paper adds for SR-IOV guests.
 */

#ifndef SRIOV_VMM_MIGRATION_HPP
#define SRIOV_VMM_MIGRATION_HPP

#include <functional>

#include "vmm/hypervisor.hpp"

namespace sriov::vmm {

class MigrationManager
{
  public:
    struct Params
    {
        /** Migration network (the testbed's 1 GbE management link). */
        double link_bps = 1e9;
        unsigned max_rounds = 30;
        /** Stop-and-copy when the dirty set shrinks below this. */
        std::size_t downtime_threshold_pages = 4000;
        /**
         * Device re-init, ARP announcement and network re-settling on
         * the target (the bulk of the ~1.4 s outage in Figs. 20/21).
         */
        sim::Time resume_overhead = sim::Time::ms(1250);
        /** Synthetic dirtying beyond the tracked dirty log. */
        double background_dirty_pps = 1500;
        /** Cap on how many distinct pages the guest redirties. */
        std::size_t working_set_pages = 8192;
    };

    struct Result
    {
        unsigned rounds = 0;
        std::uint64_t pages_sent = 0;
        sim::Time started;
        sim::Time paused_at;
        sim::Time resumed_at;

        sim::Time downtime() const { return resumed_at - paused_at; }
        sim::Time total() const { return resumed_at - started; }
    };

    using Callback = std::function<void()>;
    using DoneFn = std::function<void(const Result &)>;

    explicit MigrationManager(Hypervisor &hv) : hv_(hv) {}

    /**
     * Begin migrating @p dom. @p on_pause fires at stop-and-copy,
     * @p on_resume when the guest runs again on the "target", and
     * @p on_done with the final statistics.
     */
    void migrate(Domain &dom, const Params &p, Callback on_pause,
                 Callback on_resume, DoneFn on_done);

    bool inProgress() const { return in_progress_; }

  private:
    struct Session
    {
        Domain *dom;
        Params p;
        Callback on_pause;
        Callback on_resume;
        DoneFn on_done;
        Result result;
        std::uint64_t total_pages;
    };

    void sendRound(Session s, std::uint64_t pages, unsigned round);
    void stopAndCopy(Session s, std::uint64_t dirty_pages);
    sim::Time copyTime(const Params &p, std::uint64_t pages) const;

    Hypervisor &hv_;
    bool in_progress_ = false;
    /** dom0's migration helper: page mapping and sending. */
    sim::CpuServer::Tag migr_tag_{"dom0-migr"};
};

} // namespace sriov::vmm

#endif // SRIOV_VMM_MIGRATION_HPP
