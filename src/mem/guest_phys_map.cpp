#include "mem/guest_phys_map.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace sriov::mem {

GuestPhysMap::Pte &
GuestPhysMap::entryAlloc(Addr page)
{
    if (page >= kMaxPages)
        sim::fatal("%s: guest-physical address 0x%llx is beyond the "
                   "%u-bit IOMMU/EPT address width",
                   name_.c_str(),
                   static_cast<unsigned long long>(page * kPageSize),
                   kGpaBits);
    Addr d = page >> kLeafBits;
    if (d >= dir_.size())
        dir_.resize(d + 1);
    if (!dir_[d]) {
        dir_[d] = std::make_unique<Leaf>();
        ++leaves_;
    }
    return dir_[d]->e[page & (kLeafEntries - 1)];
}

void
GuestPhysMap::mapRange(Addr gpa, Addr mpa, Addr len, bool writable)
{
    if (gpa % kPageSize || mpa % kPageSize)
        sim::panic("%s: unaligned mapping", name_.c_str());
    Pte flags = kPresent | (writable ? kWritable : 0);
    for (Addr off = 0; off < len; off += kPageSize) {
        Pte &e = entryAlloc(pageOf(gpa + off));
        if (!(e & kPresent))
            ++mapped_pages_;
        e = (e & kDirty) | ((mpa + off) & kFrameMask) | flags;
    }
}

void
GuestPhysMap::unmapRange(Addr gpa, Addr len)
{
    for (Addr off = 0; off < len; off += kPageSize) {
        Pte *e = entry(pageOf(gpa + off));
        if (e == nullptr || !(*e & kPresent))
            continue;
        *e &= kDirty;
        --mapped_pages_;
    }
}

std::optional<Addr>
GuestPhysMap::translate(Addr gpa) const
{
    const Pte *e = entry(pageOf(gpa));
    if (e == nullptr || !(*e & kPresent))
        return std::nullopt;
    return (*e & kFrameMask) | (gpa & kOffsetMask);
}

bool
GuestPhysMap::writable(Addr gpa) const
{
    const Pte *e = entry(pageOf(gpa));
    return e != nullptr && (*e & kPresent) && (*e & kWritable);
}

void
GuestPhysMap::logDirty(Pte &e, Addr page)
{
    e |= kDirty;
    dirty_.push_back(page);
}

void
GuestPhysMap::clearDirtyBits()
{
    for (Addr page : dirty_)
        *entry(page) &= ~kDirty;
    dirty_.clear();
}

void
GuestPhysMap::enableDirtyLog()
{
    dirty_log_ = true;
    clearDirtyBits();
}

void
GuestPhysMap::disableDirtyLog()
{
    dirty_log_ = false;
    clearDirtyBits();
}

void
GuestPhysMap::markDirty(Addr gpa)
{
    if (!dirty_log_)
        return;
    Pte &e = entryAlloc(pageOf(gpa));
    if (!(e & kDirty))
        logDirty(e, pageOf(gpa));
}

void
GuestPhysMap::markDirtyRange(Addr gpa, Addr len)
{
    if (!dirty_log_)
        return;
    for (Addr off = 0; off < len; off += kPageSize)
        markDirty(gpa + off);
    if (len % kPageSize == 0 && len > 0)
        markDirty(gpa + len - 1);
}

std::vector<Addr>
GuestPhysMap::drainDirty()
{
    std::vector<Addr> out = dirty_;
    clearDirtyBits();
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace sriov::mem
