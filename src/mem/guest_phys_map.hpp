/**
 * @file
 * GuestPhysMap: a guest-physical → machine-physical page table.
 *
 * The same structure serves three roles: the EPT-like second-level
 * translation for an HVM guest, the IOMMU page table indexed by the
 * guest's VF RID (paper Section 2 — "RID is used to index the IOMMU
 * page table, so that different VMs can use different page tables"),
 * and the dirty-page log driving pre-copy live migration.
 *
 * Shaped like a VT-d second-level table: 512-entry leaf tables of
 * 64-bit entries (present, writable and dirty bits beside the machine
 * page address) under a flat directory indexed by the upper GPA bits.
 * A translation is one walk — directory slot, leaf entry — with no
 * hashing. The directory grows only to the highest mapped GPA and the
 * guest-physical space is capped at kGpaBits (VT-d's 39-bit, 3-level
 * width), so the footprint stays bounded: a mapping beyond the cap is
 * fatal, never a directory of many gigabytes.
 */

#ifndef SRIOV_MEM_GUEST_PHYS_MAP_HPP
#define SRIOV_MEM_GUEST_PHYS_MAP_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/machine_memory.hpp"

namespace sriov::mem {

class GuestPhysMap
{
  public:
    /** Guest-physical address width: 512 GiB, a 2 MiB directory. */
    static constexpr unsigned kGpaBits = 39;
    /** Entries per leaf table (one 4 KiB table covers 2 MiB). */
    static constexpr unsigned kLeafBits = 9;
    static constexpr Addr kLeafEntries = Addr(1) << kLeafBits;

    explicit GuestPhysMap(std::string name = "guest")
        : name_(std::move(name))
    {}

    GuestPhysMap(const GuestPhysMap &) = delete;
    GuestPhysMap &operator=(const GuestPhysMap &) = delete;

    const std::string &name() const { return name_; }

    /** Map [gpa, gpa+len) to [mpa, mpa+len); page aligned. Fatal if
     *  the range reaches past the kGpaBits guest-physical space. */
    void mapRange(Addr gpa, Addr mpa, Addr len, bool writable = true);
    void unmapRange(Addr gpa, Addr len);

    /** Translate one address. std::nullopt on unmapped. */
    std::optional<Addr> translate(Addr gpa) const;
    bool writable(Addr gpa) const;

    /** Outcome of one DMA access walk. */
    enum class Access : std::uint8_t
    {
        Ok,
        NotPresent,
        ReadOnly,    ///< write to a read-only mapping
    };
    struct Walk
    {
        Access access;
        Addr mpa;    ///< valid when access == Ok
    };

    /**
     * One page walk for a DMA access (Iommu::translate). A permitted
     * write marks the page dirty when the dirty log is on.
     */
    // simlint: hot
    Walk
    access(Addr gpa, bool is_write)
    {
        Pte *e = entry(pageOf(gpa));
        if (e == nullptr || !(*e & kPresent))
            return Walk{Access::NotPresent, 0};
        if (is_write) {
            if (!(*e & kWritable))
                return Walk{Access::ReadOnly, 0};
            if (dirty_log_ && !(*e & kDirty))
                logDirty(*e, pageOf(gpa));
        }
        return Walk{Access::Ok, (*e & kFrameMask) | (gpa & kOffsetMask)};
    }

    std::size_t mappedPages() const { return mapped_pages_; }
    /** Leaf tables allocated (each covers 2 MiB of guest-physical). */
    std::size_t leafTables() const { return leaves_; }

    /** @name Dirty logging (pre-copy migration). @{ */
    void enableDirtyLog();
    void disableDirtyLog();
    bool dirtyLogEnabled() const { return dirty_log_; }
    void markDirty(Addr gpa);
    void markDirtyRange(Addr gpa, Addr len);
    std::size_t dirtyPageCount() const { return dirty_.size(); }
    /**
     * Returns the dirty pages (sorted ascending) and clears the log —
     * one pre-copy round. Sorted so that consumers iterating the
     * snapshot (page send order, reports) are deterministic.
     */
    std::vector<Addr> drainDirty();
    /** @} */

  private:
    /**
     * A leaf entry: the machine page's address in bits 12..63, flags
     * in the low bits. The dirty bit is the log's membership test and
     * outlives unmap and remap, as a log entry did when it was a set.
     */
    using Pte = std::uint64_t;
    static constexpr Pte kPresent = 1;
    static constexpr Pte kWritable = 2;
    static constexpr Pte kDirty = 4;
    static constexpr Addr kOffsetMask = kPageSize - 1;
    static constexpr Pte kFrameMask = ~Pte(kOffsetMask);
    static constexpr Addr kMaxPages = Addr(1) << (kGpaBits - 12);

    struct Leaf
    {
        Pte e[kLeafEntries] = {};
    };

    /** The entry for guest page @p page; nullptr if no leaf covers
     *  it (then the page is neither mapped nor dirty). */
    // simlint: hot
    Pte *
    entry(Addr page) const
    {
        Addr d = page >> kLeafBits;
        if (d >= dir_.size())
            return nullptr;
        Leaf *l = dir_[d].get();
        return l == nullptr ? nullptr : &l->e[page & (kLeafEntries - 1)];
    }
    /** The entry for @p page, allocating its leaf; fatal beyond the
     *  kGpaBits space. */
    Pte &entryAlloc(Addr page);
    /** Set @p e's dirty bit and append @p page to the log. */
    void logDirty(Pte &e, Addr page);
    void clearDirtyBits();

    std::string name_;
    std::vector<std::unique_ptr<Leaf>> dir_;    // gpa page >> 9 -> leaf
    std::size_t mapped_pages_ = 0;
    std::size_t leaves_ = 0;
    bool dirty_log_ = false;
    /** Dirty pages in first-dirtied order; each has kDirty set. */
    std::vector<Addr> dirty_;
};

} // namespace sriov::mem

#endif // SRIOV_MEM_GUEST_PHYS_MAP_HPP
