#include "vmm/vcpu.hpp"

#include "sim/log.hpp"
#include "vmm/domain.hpp"

namespace sriov::vmm {

Vcpu::Vcpu(unsigned id, Domain &dom, sim::CpuServer &pcpu)
    : id_(id), dom_(dom), pcpu_(pcpu), guest_tag_(dom.name()),
      xen_tag_("xen"), handlers_(std::size_t(intr::VectorAllocator::kLast) + 1)
{
    vlapic_.chip().setDeliver([this](intr::Vector v) { dispatch(v); });
}

void
Vcpu::submitGuestWork(double cycles, sim::InplaceFn on_done)
{
    pcpu_.submit(cycles, guest_tag_, std::move(on_done));
}

void
Vcpu::bindVirtualVector(intr::Vector v, IrqHandler h)
{
    handlers_[v] = std::move(h);
}

void
Vcpu::unbindVirtualVector(intr::Vector v)
{
    handlers_[v] = nullptr;
}

void
Vcpu::dispatch(intr::Vector v)
{
    IrqHandler &h = handlers_[v];
    if (!h) {
        sim::warn("%s vcpu%u: unhandled virtual vector %u",
                  dom_.name().c_str(), id_, v);
        return;
    }
    h();
}

} // namespace sriov::vmm
