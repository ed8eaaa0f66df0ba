#include "vmm/device_model.hpp"

#include "vmm/domain.hpp"

namespace sriov::vmm {

DeviceModel::DeviceModel(Domain &guest, sim::CpuServer &host_cpu,
                         const CostModel &cm)
    : guest_(guest), host_cpu_(host_cpu), cm_(cm)
{
}

void
DeviceModel::submitEmulation(double cycles, sim::InplaceFn on_done)
{
    requests_.inc();
    host_cpu_.submit(cycles, tag_, std::move(on_done));
}

void
DeviceModel::emulateMsiMaskWrite(bool)
{
    mask_writes_.inc();
    submitEmulation(cm_.msi_mask_devmodel_dom0);
}

} // namespace sriov::vmm
