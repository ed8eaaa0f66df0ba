/**
 * @file
 * Unit tests for the memory subsystem: machine memory, guest-physical
 * maps with dirty logging, IOMMU translation/faults, DMA engine.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mem/dma_engine.hpp"
#include "mem/guest_phys_map.hpp"
#include "mem/iommu.hpp"
#include "mem/machine_memory.hpp"
#include "sim/random.hpp"
#include "sim/thinning.hpp"

using namespace sriov;
using namespace sriov::mem;

TEST(MachineMemory, AllocatesDisjointRegions)
{
    MachineMemory mm(1 << 20);
    Addr a = mm.allocate(8192, "a");
    Addr b = mm.allocate(4096, "b");
    EXPECT_NE(a, b);
    EXPECT_GE(b, a + 8192);
    EXPECT_EQ(mm.ownerOf(a), "a");
    EXPECT_EQ(mm.ownerOf(a + 8191), "a");
    EXPECT_EQ(mm.ownerOf(b), "b");
    EXPECT_EQ(mm.ownerOf(b + 4096), "");
}

TEST(MachineMemory, RoundsToPages)
{
    MachineMemory mm(1 << 20);
    Addr a = mm.allocate(1, "tiny");
    Addr b = mm.allocate(1, "tiny2");
    EXPECT_EQ(b - a, kPageSize);
}

TEST(MachineMemoryDeathTest, ExhaustionIsFatal)
{
    MachineMemory mm(4 * kPageSize);
    mm.allocate(2 * kPageSize, "x");
    EXPECT_DEATH(mm.allocate(4 * kPageSize, "y"), "exhausted");
}

TEST(MachineMemory, PokePeek)
{
    MachineMemory mm(1 << 20);
    mm.poke64(0x1000, 0xabcd);
    EXPECT_EQ(mm.peek64(0x1000), 0xabcdu);
    EXPECT_EQ(mm.peek64(0x2000), 0u);
}

TEST(GuestPhysMap, TranslateWithinPage)
{
    GuestPhysMap m("g");
    m.mapRange(0x10000, 0x500000, 2 * kPageSize);
    EXPECT_EQ(m.translate(0x10000), 0x500000u);
    EXPECT_EQ(m.translate(0x10123), 0x500123u);
    EXPECT_EQ(m.translate(0x11000), 0x501000u);
    EXPECT_FALSE(m.translate(0x12000).has_value());
}

TEST(GuestPhysMap, UnmapRemovesPages)
{
    GuestPhysMap m("g");
    m.mapRange(0, 0x100000, 4 * kPageSize);
    m.unmapRange(kPageSize, kPageSize);
    EXPECT_TRUE(m.translate(0).has_value());
    EXPECT_FALSE(m.translate(kPageSize).has_value());
    EXPECT_TRUE(m.translate(2 * kPageSize).has_value());
}

TEST(GuestPhysMap, ReadOnlyMappings)
{
    GuestPhysMap m("g");
    m.mapRange(0, 0x100000, kPageSize, /*writable=*/false);
    EXPECT_FALSE(m.writable(0));
    EXPECT_TRUE(m.translate(0).has_value());
}

TEST(GuestPhysMap, DirtyLogTracksAndDrains)
{
    GuestPhysMap m("g");
    m.mapRange(0, 0x100000, 8 * kPageSize);
    m.markDirty(0);    // log disabled: ignored
    EXPECT_EQ(m.dirtyPageCount(), 0u);

    m.enableDirtyLog();
    m.markDirty(0);
    m.markDirty(123);    // same page
    m.markDirty(2 * kPageSize);
    EXPECT_EQ(m.dirtyPageCount(), 2u);

    auto drained = m.drainDirty();
    EXPECT_EQ(drained.size(), 2u);
    EXPECT_EQ(m.dirtyPageCount(), 0u);

    m.markDirtyRange(0, 3 * kPageSize);
    EXPECT_EQ(m.dirtyPageCount(), 3u);
    m.disableDirtyLog();
    EXPECT_EQ(m.dirtyPageCount(), 0u);
}

class IommuTest : public ::testing::Test
{
  protected:
    IommuTest()
    {
        map.mapRange(0, 0x100000, 4 * kPageSize);
        map.mapRange(0x10000, 0x200000, kPageSize, /*writable=*/false);
        iommu.attach(0x100, map);
    }

    GuestPhysMap map{"guest"};
    Iommu iommu;
};

TEST_F(IommuTest, TranslatesAttachedRid)
{
    auto r = iommu.translate(0x100, 0x1234, false);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.mpa, 0x101234u);
}

TEST_F(IommuTest, NoContextFault)
{
    auto r = iommu.translate(0x200, 0, false);
    EXPECT_EQ(r.fault, Iommu::Fault::NoContext);
    EXPECT_EQ(iommu.faults().value(), 1u);
}

TEST_F(IommuTest, NotPresentFault)
{
    auto r = iommu.translate(0x100, 0x900000, true);
    EXPECT_EQ(r.fault, Iommu::Fault::NotPresent);
}

TEST_F(IommuTest, WriteProtectionFault)
{
    EXPECT_TRUE(iommu.translate(0x100, 0x10000, false).ok());
    auto r = iommu.translate(0x100, 0x10000, true);
    EXPECT_EQ(r.fault, Iommu::Fault::WriteProtected);
}

TEST_F(IommuTest, DmaWriteMarksDirty)
{
    map.enableDirtyLog();
    iommu.translate(0x100, 0x42, true);
    EXPECT_EQ(map.dirtyPageCount(), 1u);
    iommu.translate(0x100, 0x43, false);    // reads do not dirty
    EXPECT_EQ(map.dirtyPageCount(), 1u);
}

TEST_F(IommuTest, DetachRestoresNoContext)
{
    iommu.detach(0x100);
    EXPECT_FALSE(iommu.attached(0x100));
    EXPECT_EQ(iommu.translate(0x100, 0, false).fault,
              Iommu::Fault::NoContext);
}

TEST_F(IommuTest, TranslateRangeChecksEveryPage)
{
    // Pages 0..3 mapped; a 5-page range must fault.
    EXPECT_TRUE(iommu.translateRange(0x100, 0, 4 * kPageSize, false).ok());
    EXPECT_EQ(iommu.translateRange(0x100, 0, 5 * kPageSize, false).fault,
              Iommu::Fault::NotPresent);
}

// ---------------------------------------------------------------------------
// Differential: the radix table and the root/context tables against a
// std::map reference of pages, dirty log and context entries.

namespace {

/** One domain's page table as a plain ordered map of pages. */
struct RefMap
{
    struct Entry
    {
        Addr mpa_page;
        bool writable;
    };
    std::map<Addr, Entry> pages;
    bool log = false;
    std::set<Addr> dirty;

    void
    map(Addr gpa, Addr mpa, Addr len, bool w)
    {
        for (Addr off = 0; off < len; off += kPageSize)
            pages[pageOf(gpa + off)] = Entry{pageOf(mpa + off), w};
    }
    void
    unmap(Addr gpa, Addr len)
    {
        for (Addr off = 0; off < len; off += kPageSize)
            pages.erase(pageOf(gpa + off));
    }
    std::optional<Addr>
    translate(Addr gpa) const
    {
        auto it = pages.find(pageOf(gpa));
        if (it == pages.end())
            return std::nullopt;
        return it->second.mpa_page * kPageSize + gpa % kPageSize;
    }
    bool
    writable(Addr gpa) const
    {
        auto it = pages.find(pageOf(gpa));
        return it != pages.end() && it->second.writable;
    }
    void
    markDirty(Addr gpa)
    {
        if (log)
            dirty.insert(pageOf(gpa));
    }
    void
    markDirtyRange(Addr gpa, Addr len)
    {
        for (Addr off = 0; off < len; off += kPageSize)
            markDirty(gpa + off);
        if (len % kPageSize == 0 && len > 0)
            markDirty(gpa + len - 1);
    }
    std::vector<Addr>
    drain()
    {
        std::vector<Addr> out(dirty.begin(), dirty.end());
        dirty.clear();
        return out;
    }
};

/** A GPA in one of three regions: low memory spanning several leaf
 *  tables, 1 GiB up, and the last 4 MiB of the 39-bit space (leaving
 *  room for the longest range an operation draws). */
Addr
randomGpa(sim::Random &rng)
{
    static const Addr kBases[] = {
        0, Addr(1) << 30,
        (Addr(1) << GuestPhysMap::kGpaBits) - (Addr(4) << 20)};
    Addr base = kBases[rng.uniformInt(0, 2)];
    return base + rng.uniformInt(0, 959) * kPageSize
           + (rng.uniformInt(0, 3) == 0 ? rng.uniformInt(0, kPageSize - 1)
                                        : 0);
}

} // namespace

TEST(GuestPhysMapDifferential, MatchesStdMapReference)
{
    constexpr int kDomains = 3;
    // RIDs on five buses, including bus 0 devfn 0 and bus 0xff.
    const pci::Rid kRids[] = {0x0000, 0x0100, 0x0101, 0x01ff,
                              0x0208, 0x8010, 0xff07};
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        sim::Random rng(seed);
        std::vector<std::unique_ptr<GuestPhysMap>> maps;
        std::vector<RefMap> ref(kDomains);
        for (int d = 0; d < kDomains; ++d) {
            std::string name = "d";
            name += std::to_string(d);
            maps.push_back(std::make_unique<GuestPhysMap>(name));
        }
        Iommu iommu;
        std::map<pci::Rid, int> ref_ctx;
        std::uint64_t ref_faults = 0, ref_xlates = 0;

        auto refTranslate = [&](pci::Rid rid, Addr gpa, bool w) {
            ++ref_xlates;
            auto c = ref_ctx.find(rid);
            if (c == ref_ctx.end()) {
                ++ref_faults;
                return Iommu::Result{Iommu::Fault::NoContext, 0};
            }
            RefMap &m = ref[c->second];
            auto mpa = m.translate(gpa);
            if (!mpa) {
                ++ref_faults;
                return Iommu::Result{Iommu::Fault::NotPresent, 0};
            }
            if (w) {
                if (!m.writable(gpa)) {
                    ++ref_faults;
                    return Iommu::Result{Iommu::Fault::WriteProtected, 0};
                }
                m.markDirty(gpa);
            }
            return Iommu::Result{Iommu::Fault::None, *mpa};
        };

        for (int step = 0; step < 20000; ++step) {
            int d = int(rng.uniformInt(0, kDomains - 1));
            GuestPhysMap &m = *maps[d];
            RefMap &r = ref[d];
            Addr gpa = randomGpa(rng);
            switch (rng.uniformInt(0, 11)) {
            case 0: case 1: {
                Addr page_gpa = pageBase(gpa);
                Addr len = rng.uniformInt(1, 40) * kPageSize;
                Addr mpa = rng.uniformInt(1, 1u << 20) * kPageSize;
                bool w = rng.uniformInt(0, 3) != 0;
                m.mapRange(page_gpa, mpa, len, w);
                r.map(page_gpa, mpa, len, w);
                break;
            }
            case 2: {
                Addr len = rng.uniformInt(1, 20) * kPageSize;
                m.unmapRange(pageBase(gpa), len);
                r.unmap(pageBase(gpa), len);
                break;
            }
            case 3:
                ASSERT_EQ(m.translate(gpa), r.translate(gpa));
                ASSERT_EQ(m.writable(gpa), r.writable(gpa));
                break;
            case 4:
                if (rng.uniformInt(0, 7) == 0) {
                    if (r.log) {
                        m.disableDirtyLog();
                        r.log = false;
                    } else {
                        m.enableDirtyLog();
                        r.log = true;
                    }
                    r.dirty.clear();
                } else if (rng.uniformInt(0, 1) == 0) {
                    m.markDirty(gpa);
                    r.markDirty(gpa);
                } else {
                    Addr len = rng.uniformInt(0, 5) * kPageSize
                               + rng.uniformInt(0, 1);
                    m.markDirtyRange(gpa, len);
                    r.markDirtyRange(gpa, len);
                }
                break;
            case 5:
                ASSERT_EQ(m.drainDirty(), r.drain());
                break;
            case 6: {
                pci::Rid rid = kRids[rng.uniformInt(0, std::size(kRids) - 1)];
                if (rng.uniformInt(0, 2) == 0) {
                    iommu.detach(rid);
                    ref_ctx.erase(rid);
                } else {
                    iommu.attach(rid, m);    // attach or re-attach
                    ref_ctx[rid] = d;
                }
                break;
            }
            default: {
                pci::Rid rid = kRids[rng.uniformInt(0, std::size(kRids) - 1)];
                bool w = rng.uniformInt(0, 1) == 0;
                Iommu::Result got, want;
                if (rng.uniformInt(0, 4) == 0) {
                    Addr len = rng.uniformInt(0, 4) * kPageSize;
                    got = iommu.translateRange(rid, gpa, len, w);
                    // The reference range walk: first fault, else
                    // the first page's result.
                    Iommu::Result first{};
                    bool faulted = false;
                    for (Addr off = 0; off < len && !faulted;
                         off += kPageSize) {
                        Iommu::Result x = refTranslate(rid, gpa + off, w);
                        if (!x.ok()) {
                            first = x;
                            faulted = true;
                        } else if (off == 0) {
                            first = x;
                        }
                    }
                    want = len == 0 ? refTranslate(rid, gpa, w) : first;
                } else {
                    got = iommu.translate(rid, gpa, w);
                    want = refTranslate(rid, gpa, w);
                }
                ASSERT_EQ(got.fault, want.fault) << "step " << step;
                ASSERT_EQ(got.mpa, want.mpa) << "step " << step;
                break;
            }
            }
            ASSERT_EQ(iommu.faults().value(), ref_faults);
            ASSERT_EQ(iommu.translations().value(), ref_xlates);
            for (pci::Rid rid : kRids) {
                auto c = ref_ctx.find(rid);
                ASSERT_EQ(iommu.domainOf(rid),
                          c == ref_ctx.end() ? nullptr
                                             : maps[c->second].get());
            }
            ASSERT_EQ(m.mappedPages(), r.pages.size());
            ASSERT_EQ(m.dirtyPageCount(), r.dirty.size());
            ASSERT_EQ(m.dirtyLogEnabled(), r.log);
        }
        // Final full sweep of every page either side touched.
        for (int d = 0; d < kDomains; ++d) {
            for (const auto &[page, e] : ref[d].pages) {
                ASSERT_EQ(maps[d]->translate(page * kPageSize),
                          e.mpa_page * kPageSize);
                ASSERT_EQ(maps[d]->writable(page * kPageSize), e.writable);
            }
            ASSERT_EQ(maps[d]->drainDirty(), ref[d].drain());
        }
    }
}

TEST(GuestPhysMap, TopOfTheAddressSpaceMapsWithOneLeaf)
{
    // The last page below 2^39 maps with a single 4 KiB leaf; the
    // directory grows to 2^18 slots (2 MiB), not gigabytes.
    GuestPhysMap m("g");
    const Addr top = (Addr(1) << GuestPhysMap::kGpaBits) - kPageSize;
    m.mapRange(top, 0x7000, kPageSize);
    EXPECT_EQ(m.translate(top + 0x10), 0x7010u);
    EXPECT_EQ(m.leafTables(), 1u);
    EXPECT_EQ(m.mappedPages(), 1u);
    m.mapRange(0, 0x9000, 3 * kPageSize);
    EXPECT_EQ(m.leafTables(), 2u);
}

TEST(GuestPhysMapDeathTest, FarGpaIsFatalWithTheAddress)
{
    GuestPhysMap m("far");
    EXPECT_DEATH(m.mapRange(Addr(1) << 47, 0x1000, kPageSize),
                 "far: guest-physical address 0x800000000000 is beyond");
    EXPECT_DEATH(m.mapRange(Addr(1) << GuestPhysMap::kGpaBits, 0x1000,
                            kPageSize),
                 "0x8000000000 is beyond the 39-bit");
    m.enableDirtyLog();
    EXPECT_DEATH(m.markDirty(Addr(1) << 47), "0x800000000000");
    // Out-of-range lookups are plain misses, not faults of the model.
    EXPECT_FALSE(m.translate(Addr(1) << 47).has_value());
    m.unmapRange(Addr(1) << 47, kPageSize);
    EXPECT_EQ(m.mappedPages(), 0u);
}

TEST(DmaEngine, ServiceTimeMatchesLinkRate)
{
    sim::EventQueue eq;
    DmaEngine::Params p;
    p.link_bps = 8e9;
    p.per_dma_overhead = sim::Time::ns(1000);
    DmaEngine dma(eq, "d", p);
    // 1000 bytes at 8 Gb/s = 1 us + 1 us overhead.
    EXPECT_EQ(dma.serviceTime(1000), sim::Time::us(2));
}

TEST(DmaEngine, SerializesTransfersFifo)
{
    sim::EventQueue eq;
    DmaEngine::Params p;
    p.link_bps = 8e9;
    p.per_dma_overhead = sim::Time::ns(0);
    DmaEngine dma(eq, "d", p);
    std::vector<int> order;
    std::vector<sim::Time> at;
    dma.transfer(1000, [&]() { order.push_back(1); at.push_back(eq.now()); });
    dma.transfer(1000, [&]() { order.push_back(2); at.push_back(eq.now()); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(at[0], sim::Time::us(1));
    EXPECT_EQ(at[1], sim::Time::us(2));
    EXPECT_EQ(dma.bytesMoved(), 2000u);
    EXPECT_EQ(dma.transfers(), 2u);
}

TEST(DmaEngine, DefaultsModelThe82576Link)
{
    sim::EventQueue eq;
    DmaEngine dma(eq, "d");
    // A 1518-byte frame takes ~0.94us overhead + ~1.81us payload: the
    // double crossing of the inter-VM path lands near 2.8 Gb/s at
    // 4000-byte messages (paper Section 6.3).
    sim::Time one = dma.serviceTime(4092);
    double inter_vm_bps = 4000 * 8 / (2 * one.toSeconds());
    EXPECT_NEAR(inter_vm_bps / 1e9, 2.8, 0.4);
}

// ---------------------------------------------------------------------------
// DmaEngine event thinning: analytic completions must match the exact
// one-transfer-in-service implementation instant for instant.
// ---------------------------------------------------------------------------

TEST(DmaEngine, ThinCompletionInstantsMatchExactMode)
{
    auto run = [](bool thin) {
        sim::ThinningScope scope(thin);
        sim::EventQueue eq;
        DmaEngine::Params p;
        p.link_bps = 8e9;
        p.per_dma_overhead = sim::Time::ns(100);
        DmaEngine dma(eq, "d", p);
        std::vector<sim::Time> at;
        auto submit = [&](std::uint64_t bytes) {
            dma.transfer(bytes, [&]() { at.push_back(eq.now()); });
        };
        // A backlog burst, then a transfer after the link went idle.
        submit(1000);
        submit(64);
        submit(4000);
        eq.scheduleAt(sim::Time::ms(1), [&submit] { submit(500); });
        eq.runAll();
        EXPECT_EQ(dma.bytesMoved(), 5564u);
        EXPECT_EQ(dma.transfers(), 4u);
        EXPECT_EQ(dma.busyTime(), dma.serviceTime(1000)
                                      + dma.serviceTime(64)
                                      + dma.serviceTime(4000)
                                      + dma.serviceTime(500));
        return at;
    };
    std::vector<sim::Time> thin = run(true);
    std::vector<sim::Time> exact = run(false);
    ASSERT_EQ(thin.size(), 4u);
    EXPECT_EQ(thin, exact);
}

TEST(DmaEngine, ReserveReturnsFifoCompletionInstants)
{
    sim::ThinningScope scope(true);
    sim::EventQueue eq;
    DmaEngine::Params p;
    p.link_bps = 8e9;
    p.per_dma_overhead = sim::Time::ns(0);
    DmaEngine dma(eq, "d", p);
    // Back-to-back reservations serialize on the link.
    EXPECT_EQ(dma.reserve(1000), sim::Time::us(1));
    EXPECT_EQ(dma.reserve(1000), sim::Time::us(2));
    // The backlog is visible as queue depth until instants pass.
    EXPECT_EQ(dma.queueDepth(), 1u);
    eq.scheduleAt(sim::Time::us(3), [&dma] {
        EXPECT_EQ(dma.queueDepth(), 0u);
        // The link is idle again: service restarts from now.
        EXPECT_EQ(dma.reserve(1000), sim::Time::us(4));
    });
    eq.runAll();
    EXPECT_EQ(dma.transfers(), 3u);
}

TEST(DmaEngineDeathTest, ReservePanicsInExactMode)
{
    sim::ThinningScope scope(false);
    sim::EventQueue eq;
    DmaEngine dma(eq, "d");
    EXPECT_DEATH(dma.reserve(100), "reserve");
}
