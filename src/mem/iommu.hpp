/**
 * @file
 * Iommu: DMA remapping hardware (VT-d style).
 *
 * Context entries map each Requester ID to the owning domain's page
 * table, so a VF programmed with guest-physical DMA addresses is
 * remapped to machine-physical addresses, and a VF can never touch
 * memory outside its guest (paper Sections 1, 2). Faults are counted
 * and reported, never silently dropped.
 *
 * The context lookup is VT-d's: a 256-entry root table indexed by the
 * RID's bus, each present entry pointing at a 256-entry context table
 * indexed by devfn, whose entry names the domain's page table. A DMA
 * translation is that two-step index plus one GuestPhysMap walk.
 */

#ifndef SRIOV_MEM_IOMMU_HPP
#define SRIOV_MEM_IOMMU_HPP

#include <array>
#include <cstdint>
#include <memory>

#include "mem/guest_phys_map.hpp"
#include "pci/types.hpp"
#include "sim/stats.hpp"

namespace sriov::mem {

class Iommu
{
  public:
    enum class Fault
    {
        None,
        NoContext,        ///< RID has no context entry
        NotPresent,       ///< address unmapped in the domain table
        WriteProtected,   ///< DMA write to a read-only mapping
    };

    struct Result
    {
        Fault fault = Fault::None;
        Addr mpa = 0;

        bool ok() const { return fault == Fault::None; }
    };

    /** Bind @p rid to @p domain's page table (context entry). */
    void attach(pci::Rid rid, GuestPhysMap &domain);
    void detach(pci::Rid rid);
    bool attached(pci::Rid rid) const { return context(rid) != nullptr; }
    GuestPhysMap *domainOf(pci::Rid rid) { return context(rid); }

    /**
     * Translate one DMA access. Writes mark the target page dirty in
     * the domain's dirty log (when enabled).
     */
    Result translate(pci::Rid rid, Addr gpa, bool is_write);

    /** Translate a buffer; fails if any page faults. */
    Result translateRange(pci::Rid rid, Addr gpa, Addr len, bool is_write);

    const sim::Counter &faults() const { return faults_; }
    const sim::Counter &translations() const { return translations_; }

    /** Fluid-mode state walk (sim/fluid.hpp). */
    void
    fluidVisit(sim::FluidVisitor &v)
    {
        faults_.fluidVisit(v, "iommu.faults");
        translations_.fluidVisit(v, "iommu.translations");
    }

  private:
    /** One bus's context entries, indexed by devfn. */
    using ContextTable = std::array<GuestPhysMap *, 256>;

    // simlint: hot
    GuestPhysMap *
    context(pci::Rid rid) const
    {
        const ContextTable *ct = root_[rid >> 8].get();
        return ct == nullptr ? nullptr : (*ct)[rid & 0xff];
    }

    /** Root table, indexed by bus; a bus's table exists once any of
     *  its RIDs was attached. */
    std::array<std::unique_ptr<ContextTable>, 256> root_;
    sim::Counter faults_;
    sim::Counter translations_;
};

} // namespace sriov::mem

#endif // SRIOV_MEM_IOMMU_HPP
