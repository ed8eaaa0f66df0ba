#include "guest/kernel.hpp"

#include "sim/log.hpp"

namespace sriov::guest {

GuestKernel::GuestKernel(vmm::Hypervisor &hv, vmm::Domain &dom,
                         KernelVersion kv)
    : hv_(hv), dom_(dom), kv_(kv)
{
}

void
GuestKernel::attachDeviceIrq(pci::PciFunction &fn, IrqClient &client,
                             unsigned msix_entry)
{
    std::size_t idx = irq_slots_.size();
    for (std::size_t i = 0; i < irq_slots_.size(); ++i) {
        IrqSlot &s = irq_slots_[i];
        if (s.used && s.fn == &fn && s.msix_entry == msix_entry)
            sim::fatal("IRQ for %s entry %u already attached",
                       fn.name().c_str(), msix_entry);
        if (!s.used && idx == irq_slots_.size())
            idx = i;
    }
    if (idx == irq_slots_.size())
        irq_slots_.emplace_back();
    IrqSlot &s = irq_slots_[idx];
    s.fn = &fn;
    s.msix_entry = msix_entry;
    s.client = &client;
    s.used = true;
    std::uint32_t gen = s.gen;
    s.handle = hv_.bindDeviceIrq(
        dom_, fn, vcpu0(),
        [this, idx, gen]() { handleIrqFor(idx, gen); }, msix_entry);
}

void
GuestKernel::detachDeviceIrq(pci::PciFunction &fn, unsigned msix_entry)
{
    for (IrqSlot &s : irq_slots_) {
        if (s.used && s.fn == &fn && s.msix_entry == msix_entry) {
            hv_.unbindDeviceIrq(fn, msix_entry);
            s.used = false;
            // Invalidate bound handlers and in-flight retry events.
            ++s.gen;
            return;
        }
    }
}

GuestKernel::VirtualIrq
GuestKernel::attachVirtualIrq(IrqClient &client)
{
    VirtIrqState st;
    st.client = &client;
    unsigned id = unsigned(virt_irqs_.size());
    if (dom_.isHvm()) {
        // PV-on-HVM: the event ultimately arrives as a LAPIC vector.
        static constexpr intr::Vector kPvHvmBase = 0xe0;
        st.virt_vec = intr::Vector(kPvHvmBase + (id & 0x0f));
        vcpu0().bindVirtualVector(st.virt_vec,
                                  [this, id]() { handleVirtualIrq(id); });
    } else {
        st.port = dom_.evtchn().bind(
            [this, id](intr::EventChannelBank::Port) {
                handleVirtualIrq(id);
            });
    }
    virt_irqs_.push_back(st);
    return VirtualIrq{id};
}

void
GuestKernel::raiseVirtualIrq(VirtualIrq irq, sim::CpuServer &notifier_cpu)
{
    VirtIrqState &st = virt_irqs_.at(irq.id);
    const auto &cm = hv_.costs();
    notifier_cpu.charge(cm.evtchn_send, xen_tag_);
    if (dom_.isHvm()) {
        notifier_cpu.charge(cm.evtchn_hvm_conversion, xen_tag_);
        vcpu0().vlapic().inject(st.virt_vec);
    } else {
        dom_.evtchn().send(st.port);
    }
}

void
GuestKernel::handleIrqFor(std::size_t slot, std::uint32_t gen)
{
    // Re-validate on every (re)entry: the device may have been hot
    // removed (generation bumped) while a retry was pending.
    if (slot >= irq_slots_.size())
        return;
    IrqSlot &st = irq_slots_[slot];
    if (!st.used || st.gen != gen)
        return;

    if (dom_.paused()) {
        // The VCPU is not running (stop-and-copy); retry after resume.
        hv_.eq().scheduleIn(sim::Time::ms(10), [this, slot, gen]() {
            handleIrqFor(slot, gen);
        });
        return;
    }
    bool hvm = dom_.isHvm();
    bool mask_msi = hvm && kv_ == KernelVersion::v2_6_18;
    runIrqWork(st.client, hvm, mask_msi, dom_.isPv(), st.handle.port);
}

void
GuestKernel::handleVirtualIrq(unsigned id)
{
    if (id >= virt_irqs_.size())
        return;
    VirtIrqState &st = virt_irqs_[id];
    if (dom_.paused()) {
        hv_.eq().scheduleIn(sim::Time::ms(10),
                            [this, id]() { handleVirtualIrq(id); });
        return;
    }
    // PV event sources never mask the (virtual) MSI; HVM conversions
    // still owe the LAPIC an EOI.
    runIrqWork(st.client, dom_.isHvm(), false, !dom_.isHvm(), st.port);
}

void
GuestKernel::runIrqWork(IrqClient *client, bool do_eoi, bool mask_msi,
                        bool pv_port, intr::EventChannelBank::Port port)
{
    irqs_.inc();
    vmm::Vcpu &vcpu = vcpu0();

    if (mask_msi)
        hv_.guestMsiMaskWrite(dom_, vcpu, true);
    if (pv_port)
        dom_.evtchn().mask(port);

    double cycles = hv_.costs().guest_irq_entry + client->irqTop();
    vcpu.submitGuestWork(cycles, [this, client, &vcpu, do_eoi, mask_msi,
                                  pv_port, port]() {
        client->irqBottom();
        if (do_eoi) {
            hv_.guestApicNoise(vcpu, hv_.costs().apic_other_per_irq);
            hv_.guestEoi(vcpu);
            if (mask_msi)
                hv_.guestMsiMaskWrite(dom_, vcpu, false);
        }
        if (pv_port)
            hv_.guestEvtchnUnmask(vcpu, port);
    });
}

} // namespace sriov::guest
