/**
 * @file
 * GuestKernel: the Linux-like OS personality of a domain.
 *
 * Centralizes the interrupt-handling protocol around device drivers,
 * because that protocol is where the paper's results come from:
 *
 *  - KernelVersion::v2_6_18 (RHEL5U1) masks the MSI at the start of
 *    every interrupt and unmasks at the end — each a trapped register
 *    write (Section 5.1). v2_6_28 dropped the runtime mask/unmask.
 *  - HVM kernels EOI the virtual LAPIC (plus assorted other APIC
 *    traffic); PV kernels mask/unmask event-channel ports instead.
 *
 * Drivers implement IrqClient: irqTop() runs at delivery and returns
 * the cycles of guest work the batch needs; irqBottom() runs when that
 * work completes (deliver to sockets, refill rings, retune ITR).
 */

#ifndef SRIOV_GUEST_KERNEL_HPP
#define SRIOV_GUEST_KERNEL_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "vmm/hypervisor.hpp"

namespace sriov::guest {

enum class KernelVersion
{
    v2_6_18,    ///< RHEL5U1: runtime MSI mask/unmask
    v2_6_28,    ///< no runtime mask/unmask, tickless idle
};

class GuestKernel
{
  public:
    class IrqClient
    {
      public:
        virtual ~IrqClient() = default;

        /** Top half: drain the device; return guest cycles needed. */
        virtual double irqTop() = 0;
        /** Bottom half: runs after the work is charged/serialized. */
        virtual void irqBottom() = 0;
    };

    GuestKernel(vmm::Hypervisor &hv, vmm::Domain &dom,
                KernelVersion kv = KernelVersion::v2_6_28);

    vmm::Hypervisor &hv() { return hv_; }
    vmm::Domain &domain() { return dom_; }
    vmm::Vcpu &vcpu0() { return dom_.vcpu(0); }
    KernelVersion version() const { return kv_; }

    /**
     * Bind @p fn's interrupt (MSI-X entry @p msix_entry) to @p client
     * with the full kernel protocol (mask/EOI/unmask per domain type
     * and kernel version).
     */
    void attachDeviceIrq(pci::PciFunction &fn, IrqClient &client,
                         unsigned msix_entry = 0);
    void detachDeviceIrq(pci::PciFunction &fn, unsigned msix_entry = 0);

    /**
     * A paravirtual interrupt source with no PCI function behind it
     * (netfront's event channel). In a PV domain the upcall is the
     * cheap event-channel path; in an HVM domain it is additionally
     * converted into a virtual LAPIC interrupt with the full EOI
     * protocol (PV-on-HVM, paper Section 6.5).
     */
    struct VirtualIrq
    {
        unsigned id = 0;
    };
    VirtualIrq attachVirtualIrq(IrqClient &client);

    /**
     * Raise a virtual IRQ from outside the domain (backend notify).
     * @p notifier_cpu is charged the hypervisor-side delivery cost.
     */
    void raiseVirtualIrq(VirtualIrq irq, sim::CpuServer &notifier_cpu);

    /** Allocate guest memory backed by machine memory. */
    mem::Addr allocBuffer(mem::Addr bytes)
    {
        return hv_.allocGuestBuffer(dom_, bytes);
    }

    /** Charge transmit-path cycles in guest context. */
    void chargeTx(double cycles) { vcpu0().chargeGuest(cycles); }

    /** Account @p n receive syscalls (PVM pays the pt switch). */
    void accountRecvSyscalls(double n)
    {
        hv_.chargeGuestSyscalls(vcpu0(), n);
    }

    /** Syscall surcharge only; the caller serializes the bodies. */
    void accountRecvSyscallTransitions(double n)
    {
        hv_.chargeGuestSyscalls(vcpu0(), n, /*include_guest_cycles=*/false);
    }

    std::uint64_t irqsHandled() const { return irqs_.value(); }

    /** Fluid-mode state walk (sim/fluid.hpp). IRQ slot bindings are
     *  control-plane state; their generations pin the topology. */
    void
    fluidVisit(sim::FluidVisitor &v)
    {
        irqs_.fluidVisit(v, "kern.irqs");
        v.inv("kern.slots", irq_slots_.size());
        for (const IrqSlot &s : irq_slots_)
            v.inv("kern.slot_gen",
                  std::uint64_t(s.gen) | std::uint64_t(s.used) << 32);
        v.inv("kern.virt_irqs", virt_irqs_.size());
    }

  private:
    /**
     * One bound device IRQ. Dispatch is dense: the bound handler
     * captures the slot index plus a generation, and every delivery
     * (including a paused-domain retry event still in flight) is an
     * array index + generation compare — stale after detach — instead
     * of the old per-delivery std::map walk keyed on (function, entry).
     * Attach/detach are control-path rare and scan linearly.
     */
    struct IrqSlot
    {
        pci::PciFunction *fn = nullptr;
        unsigned msix_entry = 0;
        IrqClient *client = nullptr;
        vmm::Hypervisor::GuestIrqHandle handle;
        std::uint32_t gen = 0;
        bool used = false;
    };

    struct VirtIrqState
    {
        IrqClient *client = nullptr;
        intr::EventChannelBank::Port port = 0;
        intr::Vector virt_vec = 0;    // HVM conversion vector
    };

    void handleIrqFor(std::size_t slot, std::uint32_t gen);
    void handleVirtualIrq(unsigned id);
    void runIrqWork(IrqClient *client, bool do_eoi, bool mask_msi,
                    bool pv_port, intr::EventChannelBank::Port port);

    vmm::Hypervisor &hv_;
    vmm::Domain &dom_;
    KernelVersion kv_;
    std::vector<IrqSlot> irq_slots_;
    std::vector<VirtIrqState> virt_irqs_;
    sim::Counter irqs_;
    /** Event-channel sends are billed to the hypervisor. */
    sim::CpuServer::Tag xen_tag_{"xen"};
};

} // namespace sriov::guest

#endif // SRIOV_GUEST_KERNEL_HPP
