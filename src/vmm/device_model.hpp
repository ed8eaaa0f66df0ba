/**
 * @file
 * DeviceModel: the per-HVM-guest user-level emulator (qemu-dm / the
 * IOVM application of paper Section 4.1), running as a dom0 process.
 *
 * Emulation requests forwarded here cost dom0 CPU: a domain context
 * switch out of the guest, a task switch inside dom0, the emulation
 * itself. The paper's Fig. 6 shows this process at the top of dom0's
 * profile until the mask/unmask acceleration moves MSI emulation into
 * the hypervisor.
 */

#ifndef SRIOV_VMM_DEVICE_MODEL_HPP
#define SRIOV_VMM_DEVICE_MODEL_HPP

#include <string>

#include "sim/cpu_server.hpp"
#include "sim/inplace_fn.hpp"
#include "sim/stats.hpp"
#include "vmm/cost_model.hpp"

namespace sriov::vmm {

class Domain;

class DeviceModel
{
  public:
    DeviceModel(Domain &guest, sim::CpuServer &host_cpu,
                const CostModel &cm);

    Domain &guest() { return guest_; }
    sim::CpuServer &hostCpu() { return host_cpu_; }

    /** Accounting tag for the emulator process ("dom0-dm"). */
    static const char *tag() { return "dom0-dm"; }

    /**
     * Forward an emulation request costing @p cycles of dom0 time.
     * @p on_done (optional) runs when emulation completes.
     */
    void submitEmulation(double cycles, sim::InplaceFn on_done = {});

    /** Emulate a guest write to the virtual MSI mask register. */
    void emulateMsiMaskWrite(bool masked);

    std::uint64_t requests() const { return requests_.value(); }
    std::uint64_t maskWrites() const { return mask_writes_.value(); }

    /** Fluid-mode state walk (sim/fluid.hpp). The host CpuServer is a
     *  hypervisor pcpu, visited once by the hypervisor. */
    void
    fluidVisit(sim::FluidVisitor &v)
    {
        requests_.fluidVisit(v, "dm.requests");
        mask_writes_.fluidVisit(v, "dm.mask_writes");
    }

  private:
    Domain &guest_;
    sim::CpuServer &host_cpu_;
    const CostModel &cm_;
    sim::CpuServer::Tag tag_{tag()};
    sim::Counter requests_;
    sim::Counter mask_writes_;
};

} // namespace sriov::vmm

#endif // SRIOV_VMM_DEVICE_MODEL_HPP
