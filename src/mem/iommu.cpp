#include "mem/iommu.hpp"

#include "sim/log.hpp"

namespace sriov::mem {

void
Iommu::attach(pci::Rid rid, GuestPhysMap &domain)
{
    std::unique_ptr<ContextTable> &ct = root_[rid >> 8];
    if (!ct)
        ct = std::make_unique<ContextTable>();
    (*ct)[rid & 0xff] = &domain;
}

void
Iommu::detach(pci::Rid rid)
{
    if (ContextTable *ct = root_[rid >> 8].get())
        (*ct)[rid & 0xff] = nullptr;
}

// simlint: hot
Iommu::Result
Iommu::translate(pci::Rid rid, Addr gpa, bool is_write)
{
    translations_.inc();
    GuestPhysMap *dom = context(rid);
    if (dom == nullptr) {
        faults_.inc();
        return Result{Fault::NoContext, 0};
    }
    GuestPhysMap::Walk w = dom->access(gpa, is_write);
    if (w.access == GuestPhysMap::Access::Ok)
        return Result{Fault::None, w.mpa};
    faults_.inc();
    return Result{w.access == GuestPhysMap::Access::NotPresent
                      ? Fault::NotPresent
                      : Fault::WriteProtected,
                  0};
}

Iommu::Result
Iommu::translateRange(pci::Rid rid, Addr gpa, Addr len, bool is_write)
{
    Result first{};
    for (Addr off = 0; off < len; off += kPageSize) {
        Result r = translate(rid, gpa + off, is_write);
        if (!r.ok())
            return r;
        if (off == 0)
            first = r;
    }
    if (len == 0)
        return translate(rid, gpa, is_write);
    return first;
}

} // namespace sriov::mem
