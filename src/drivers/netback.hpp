/**
 * @file
 * NetbackDriver: the dom0 half of the Xen PV split network driver.
 *
 * Bridges the physical NIC to per-guest netfronts. Every frame in
 * either direction is grant-copied by a backend worker thread — the
 * per-packet CPU cost that caps the original single-threaded driver
 * at one saturated core / ~3.6 Gb/s and motivates both the
 * multi-thread enhancement of Section 6.5 and SR-IOV itself.
 *
 * Workers are modelled as dom0 kernel threads pinned to dom0 VCPUs 1..N
 * (VCPU 0 takes the physical NIC's interrupts); a guest's traffic
 * always lands on the same worker.
 */

#ifndef SRIOV_DRIVERS_NETBACK_HPP
#define SRIOV_DRIVERS_NETBACK_HPP

#include <utility>
#include <vector>

#include "drivers/netfront.hpp"
#include "nic/sriov_nic.hpp"

namespace sriov::drivers {

class NetbackDriver : public guest::GuestKernel::IrqClient
{
  public:
    struct Config
    {
        /** 1 = the original Xen driver; up to 7 for the enhanced one. */
        unsigned num_threads = 1;
        /** Physical NIC interrupt moderation in dom0. */
        double phys_itr_hz = 8000;
        std::size_t rx_buffers = 1024;
        /** Per-worker backlog cap; beyond it frames are dropped. */
        std::size_t worker_queue_cap = 2048;
    };

    NetbackDriver(guest::GuestKernel &dom0_kern, Config cfg);

    /**
     * Take ownership of the physical port: bus mastering, buffers,
     * default-pool bridging, IRQ on dom0 VCPU 0.
     */
    void attachPhysical(nic::NicPort &nic);

    /** Register a guest interface on the software bridge. */
    void connectGuest(NetfrontDriver &nf);
    void disconnectGuest(NetfrontDriver &nf);
    bool connected(const NetfrontDriver &nf) const;

    /** Frontend transmit entry. False = backlog full (drop). */
    bool guestTx(NetfrontDriver &src, const nic::Packet &pkt);

    /** @name IrqClient for the physical NIC. @{ */
    double irqTop() override;
    void irqBottom() override;
    /** @} */

    std::uint64_t copies() const { return copies_.value(); }
    std::uint64_t backlogDrops() const { return backlog_drops_.value(); }
    std::uint64_t forwardedToWire() const { return to_wire_.value(); }
    std::uint64_t forwardedToGuests() const { return to_guests_.value(); }
    unsigned threadCount() const { return cfg_.num_threads; }

    /** Fluid-mode state walk (sim/fluid.hpp). */
    void
    fluidVisit(sim::FluidVisitor &v)
    {
        copies_.fluidVisit(v, "nb.copies");
        backlog_drops_.fluidVisit(v, "nb.backlog_drops");
        to_wire_.fluidVisit(v, "nb.to_wire");
        to_guests_.fluidVisit(v, "nb.to_guests");
        v.inv("nb.guests", guests_.size());
        v.inv("nb.pending", pending_.size());
        for (auto &c : pending_)
            nic::fluidVisitPacket(v, "nb.pending_pkt", c.pkt);
    }

  private:
    struct GuestCtx
    {
        NetfrontDriver *nf;
        unsigned worker;
    };

    sim::CpuServer &workerCpu(unsigned idx);
    GuestCtx *guestByMac(nic::MacAddr mac);
    /** Per-frame backend cost for @p nf's traffic (SMP/PVM aware). */
    double perPacketCost(NetfrontDriver &nf);
    /** Copy a batch into @p guest and notify it. */
    void deliverToGuest(GuestCtx &g, std::vector<nic::Packet> &&pkts);
    /** An empty packet vector, reusing a recycled one's capacity. */
    std::vector<nic::Packet> takeSpare();
    /** Return a delivered or dropped batch's vector to the spares. */
    void recycle(std::vector<nic::Packet> &&pkts);

    guest::GuestKernel &kern_;
    Config cfg_;
    nic::NicPort *nic_ = nullptr;
    /** Bridged guests sorted by MAC: a batch or a TX frame finds its
     *  guest by binary search over one flat array, no hashing. */
    std::vector<std::pair<std::uint64_t, GuestCtx>> guests_;
    sim::CpuServer::Tag tag_{"dom0-netback"};
    std::vector<nic::RxCompletion> pending_;
    /** irqBottom()'s per-guest grouping, kept for its capacity. */
    std::vector<std::pair<std::uint64_t, std::vector<nic::Packet>>>
        by_guest_;
    std::vector<std::vector<nic::Packet>> spare_pkts_;
    sim::Counter copies_;
    sim::Counter backlog_drops_;
    sim::Counter to_wire_;
    sim::Counter to_guests_;
};

} // namespace sriov::drivers

#endif // SRIOV_DRIVERS_NETBACK_HPP
