#include "drivers/netback.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/fluid.hpp"
#include "sim/log.hpp"

namespace sriov::drivers {

namespace {

/** First entry of the MAC-sorted @p guests not below @p mac. */
template <typename Guests>
auto
lowerBoundMac(Guests &guests, std::uint64_t mac)
{
    return std::lower_bound(
        guests.begin(), guests.end(), mac,
        [](const auto &e, std::uint64_t m) { return e.first < m; });
}

} // namespace

NetbackDriver::NetbackDriver(guest::GuestKernel &dom0_kern, Config cfg)
    : kern_(dom0_kern), cfg_(cfg)
{
    if (cfg_.num_threads == 0)
        sim::fatal("netback needs at least one worker thread");
}

sim::CpuServer &
NetbackDriver::workerCpu(unsigned idx)
{
    // VCPU 0 services the physical NIC IRQ; workers start at VCPU 1.
    return kern_.hv().dom0Cpu(1 + (idx % cfg_.num_threads));
}

void
NetbackDriver::attachPhysical(nic::NicPort &nic)
{
    nic_ = &nic;
    pci::PciFunction &pf = nic.functionOf(0);
    std::uint16_t cmd = pf.config().read(pci::cfg::kCommand, 2);
    pf.config().write(pci::cfg::kCommand,
                      cmd | pci::cfg::kCmdMemEnable
                          | pci::cfg::kCmdBusMaster,
                      2);

    mem::Addr base = kern_.allocBuffer(mem::Addr(cfg_.rx_buffers) * 2048);
    auto &ring = nic.rxRing(0);
    for (std::size_t i = 0; i < cfg_.rx_buffers; ++i)
        ring.post(base + i * 2048);

    nic.setDefaultPool(nic::Pool(0));
    nic.setItr(0, cfg_.phys_itr_hz);
    kern_.hv().assignDevice(kern_.domain(), pf);
    kern_.attachDeviceIrq(pf, *this);
}

void
NetbackDriver::connectGuest(NetfrontDriver &nf)
{
    // Hash the MAC so guests spread across workers even when several
    // NetbackDriver instances (one per port) share the worker pool.
    GuestCtx ctx{&nf, unsigned(nf.mac().value % cfg_.num_threads)};
    auto it = lowerBoundMac(guests_, nf.mac().value);
    if (it != guests_.end() && it->first == nf.mac().value)
        it->second = ctx;
    else
        guests_.insert(it, {nf.mac().value, ctx});
    sim::fluidTransitionAll(sim::FluidTransition::VmChurn);
    nf.setBackend(this);
    // Pin the backend's mapping of the guest RX grant.
    nf.grants().mapGrant(nf.rxGrantRef(), /*domid=*/0);
}

void
NetbackDriver::disconnectGuest(NetfrontDriver &nf)
{
    nf.grants().unmapGrant(nf.rxGrantRef());
    auto it = lowerBoundMac(guests_, nf.mac().value);
    if (it != guests_.end() && it->first == nf.mac().value)
        guests_.erase(it);
    sim::fluidTransitionAll(sim::FluidTransition::VmChurn);
}

bool
NetbackDriver::connected(const NetfrontDriver &nf) const
{
    auto it = lowerBoundMac(guests_, nf.mac().value);
    return it != guests_.end() && it->first == nf.mac().value
           && it->second.nf == &nf;
}

NetbackDriver::GuestCtx *
NetbackDriver::guestByMac(nic::MacAddr mac)
{
    auto it = lowerBoundMac(guests_, mac.value);
    return it != guests_.end() && it->first == mac.value ? &it->second
                                                         : nullptr;
}

double
NetbackDriver::irqTop()
{
    nic_->drainRxInto(0, pending_);
    return double(pending_.size())
        * kern_.hv().costs().dom0_bridge_per_packet;
}

void
NetbackDriver::irqBottom()
{
    if (pending_.empty())
        return;
    auto &ring = nic_->rxRing(0);
    // Group the batch per destination guest. Guests are delivered in
    // first-arrival order (not hash order: iterating an unordered_map
    // here once let bucket layout pick the kthread submission order,
    // which leaks into the event schedule and the determinism digest).
    // A batch reaches a handful of guests at most, so the linear key
    // scan beats hashing anyway. The grouping vector is a member and
    // the per-guest packet vectors come from a spare list, so a
    // steady-state batch allocates nothing.
    for (const auto &c : pending_) {
        ring.post(c.buffer_gpa);
        std::vector<nic::Packet> *pkts = nullptr;
        for (auto &e : by_guest_)
            if (e.first == c.pkt.dst.value) {
                pkts = &e.second;
                break;
            }
        if (pkts == nullptr) {
            by_guest_.emplace_back(c.pkt.dst.value, takeSpare());
            pkts = &by_guest_.back().second;
        }
        pkts->push_back(c.pkt);
    }
    pending_.clear();
    for (auto &[mac, pkts] : by_guest_) {
        GuestCtx *g = guestByMac(nic::MacAddr{mac});
        if (g)
            deliverToGuest(*g, std::move(pkts));
        else    // not bridged (e.g. dom0's own traffic)
            recycle(std::move(pkts));
    }
    by_guest_.clear();
}

std::vector<nic::Packet>
NetbackDriver::takeSpare()
{
    if (spare_pkts_.empty())
        return {};
    std::vector<nic::Packet> v = std::move(spare_pkts_.back());
    spare_pkts_.pop_back();
    return v;
}

void
NetbackDriver::recycle(std::vector<nic::Packet> &&pkts)
{
    pkts.clear();
    spare_pkts_.push_back(std::move(pkts));
}

double
NetbackDriver::perPacketCost(NetfrontDriver &nf)
{
    const auto &cm = kern_.hv().costs();
    double c = cm.netback_per_packet;
    bool pvm = nf.kernel().domain().type() == vmm::DomainType::Pvm;
    // The SMP surcharge is the per-frame bill of the PV-on-HVM
    // delivery path once workers contend: the event-channel-to-LAPIC
    // conversion runs under the per-domain event lock, so every frame
    // bounces that lock (plus the injection IPI) across cores. A PVM
    // frontend is notified by a lockless evtchn set-bit and skips the
    // whole surcharge — Fig. 18's dom0 stays ~100% below Fig. 17's
    // even though both run the same 4-thread backend.
    if (cfg_.num_threads > 1 && !pvm)
        c += cm.netback_smp_extra;
    if (pvm)
        c -= cm.netback_pvm_discount;
    return c;
}

void
NetbackDriver::deliverToGuest(GuestCtx &g, std::vector<nic::Packet> &&pkts)
{
    sim::CpuServer &cpu = workerCpu(g.worker);
    if (cpu.queueDepth() > cfg_.worker_queue_cap) {
        backlog_drops_.inc(pkts.size());
        sim::fluidTransitionAll(sim::FluidTransition::Drop);
        recycle(std::move(pkts));
        return;
    }
    const auto &cm = kern_.hv().costs();
    // Kthread wakeup is paid only on an idle-to-busy transition — a
    // worker that still has queued batches never went back to sleep.
    // The per-batch erosion as more VMs split the traffic into ever
    // smaller batches (Figs. 17/18's decay) comes from the wakeups
    // that *do* happen plus the per-guest notify in raiseRxIrq.
    double cycles = double(pkts.size()) * perPacketCost(*g.nf);
    if (!cpu.busyNow())
        cycles += cm.netback_wakeup;
    NetfrontDriver *nf = g.nf;
    cpu.submit(cycles, tag_,
               [this, nf, pkts = std::move(pkts), &cpu]() mutable {
                   // Grant-copy each frame into the guest RX region and
                   // log the dirtied pages for live migration.
                   auto &dom_map = nf->kernel().domain().gpmap();
                   for (const auto &p : pkts) {
                       (void)p;
                       copies_.inc();
                       nf->grants().countCopy();
                       dom_map.markDirty(nf->nextRxPageGpa());
                   }
                   to_guests_.inc(pkts.size());
                   nf->backendDeliver(pkts);
                   recycle(std::move(pkts));
                   nf->raiseRxIrq(cpu);
               });
}

bool
NetbackDriver::guestTx(NetfrontDriver &src, const nic::Packet &pkt)
{
    GuestCtx *g = guestByMac(src.mac());
    if (!g)
        return false;
    sim::CpuServer &cpu = workerCpu(g->worker);
    if (cpu.queueDepth() > cfg_.worker_queue_cap) {
        backlog_drops_.inc();
        sim::fluidTransitionAll(sim::FluidTransition::Drop);
        return false;
    }
    const auto &cm = kern_.hv().costs();
    double cycles = perPacketCost(src);
    if (!cpu.busyNow())
        cycles += cm.netback_wakeup;    // TX side batches upstream
    cpu.submit(cycles, tag_, [this, pkt]() {
        copies_.inc();
        if (GuestCtx *dst = guestByMac(pkt.dst)) {
            // Inter-VM: one grant copy moved the payload; deliver.
            to_guests_.inc();
            std::vector<nic::Packet> batch{pkt};
            dst->nf->backendDeliver(batch);
            dst->nf->raiseRxIrq(workerCpu(dst->worker));
        } else if (nic_) {
            to_wire_.inc();
            nic_->transmit(0, pkt);
        }
    });
    return true;
}

} // namespace sriov::drivers
