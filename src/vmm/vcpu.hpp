/**
 * @file
 * Vcpu: a virtual CPU pinned to one physical CpuServer.
 *
 * Guest computation is work submitted to the pinned server under the
 * domain's accounting tag; hypervisor work done on the guest's behalf
 * (VM-exit handling) is charged on the same server under "xen", which
 * is how the paper's per-component CPU breakdowns are assembled.
 */

#ifndef SRIOV_VMM_VCPU_HPP
#define SRIOV_VMM_VCPU_HPP

#include <functional>
#include <vector>

#include "intr/virtual_lapic.hpp"
#include "sim/cpu_server.hpp"
#include "sim/inplace_fn.hpp"

namespace sriov::vmm {

class Domain;

class Vcpu
{
  public:
    Vcpu(unsigned id, Domain &dom, sim::CpuServer &pcpu);

    unsigned id() const { return id_; }
    Domain &domain() { return dom_; }
    sim::CpuServer &pcpu() { return pcpu_; }
    intr::VirtualLapic &vlapic() { return vlapic_; }

    /** Submit guest-context work (serialized on the physical CPU). */
    void submitGuestWork(double cycles, sim::InplaceFn on_done);

    /** Charge guest-context cycles without serialization. */
    void chargeGuest(double cycles) { pcpu_.charge(cycles, guest_tag_); }

    /** Charge hypervisor cycles spent on this VCPU's behalf. */
    void chargeXen(double cycles) { pcpu_.charge(cycles, xen_tag_); }

    /** @name Virtual interrupt dispatch. @{ */
    using IrqHandler = std::function<void()>;
    void bindVirtualVector(intr::Vector v, IrqHandler h);
    void unbindVirtualVector(intr::Vector v);
    /** @} */

    /** Fluid-mode state walk (sim/fluid.hpp). The pinned CpuServer is
     *  shared with other VCPUs and visited once by its owner (the
     *  hypervisor), not per VCPU. */
    void fluidVisit(sim::FluidVisitor &v) { vlapic_.fluidVisit(v); }

  private:
    void dispatch(intr::Vector v);

    unsigned id_;
    Domain &dom_;
    sim::CpuServer &pcpu_;
    /** The domain's and the hypervisor's accounting tags, resolved
     *  once: every guest packet charges one of them. */
    sim::CpuServer::Tag guest_tag_;
    sim::CpuServer::Tag xen_tag_;
    intr::VirtualLapic vlapic_;
    /** Dense dispatch: indexed by vector (intr::Vector is 8-bit). */
    std::vector<IrqHandler> handlers_;
};

} // namespace sriov::vmm

#endif // SRIOV_VMM_VCPU_HPP
