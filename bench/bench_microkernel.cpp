/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate itself:
 * how fast the event queue, LAPIC, IOMMU and L2 classifier run. These
 * bound how much simulated traffic the figure benches can push per
 * wall-clock second.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "heap_allocs.hpp"
#include "intr/interrupt_router.hpp"
#include "intr/lapic.hpp"
#include "mem/iommu.hpp"
#include "nic/l2_switch.hpp"
#include "nic/sriov_nic.hpp"
#include "nic/wire.hpp"
#include "obs/histogram.hpp"
#include "obs/metric.hpp"
#include "obs/pathtrace.hpp"
#include "obs/profiler.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

using namespace sriov;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(sim::Time::ns(i), []() {});
        benchmark::DoNotOptimize(eq.runAll());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// Steady-state schedule→run→complete: the queue is reused across
// iterations, so slot chunks, heap storage and tag-digest caches are
// warm — the cost a long-running simulation actually pays per event,
// without the construct/teardown of the bench above.
static void
BM_EventQueueSteadyState(benchmark::State &state)
{
    sim::EventQueue eq;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(sim::Time::ns(i), []() {});
        benchmark::DoNotOptimize(eq.runAll());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueSteadyState);

// Schedule+cancel churn: timers armed and disarmed without firing
// (the TCP-retransmit pattern). Each iteration arms a window, cancels
// it, then drains so cancelled heap keys are reclaimed.
static void
BM_EventQueueScheduleCancel(benchmark::State &state)
{
    sim::EventQueue eq;
    sim::EventHandle handles[64];
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            handles[i] = eq.scheduleIn(sim::Time::us(1 + i), []() {});
        for (int i = 0; i < 64; ++i)
            eq.cancel(handles[i]);
        eq.runAll();
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleCancel);

// A 64-byte capture — the InplaceFn inline ceiling for a realistic
// payload (e.g. a packet descriptor). The allocs_per_event counter
// proves the inline path never touches the heap once the queue's
// storage is warm.
static void
BM_EventQueueInlineCapture(benchmark::State &state)
{
    sim::EventQueue eq;
    struct Payload
    {
        char bytes[56];
        std::uint64_t *sink;
    };
    static_assert(sizeof(Payload) == 64, "bench models a 64-byte capture");
    std::uint64_t sink = 0;
    Payload p{};
    p.sink = &sink;
    // Warm the slot chunks and event heap with one full batch so the
    // measured region only sees steady-state behaviour.
    for (int i = 0; i < 1000; ++i)
        eq.scheduleIn(sim::Time::ns(i), [p]() { *p.sink += p.bytes[0]; });
    eq.runAll();
    std::uint64_t allocs_before = heapAllocs();
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(sim::Time::ns(i),
                          [p]() { *p.sink += p.bytes[0]; });
        benchmark::DoNotOptimize(eq.runAll());
    }
    double events = double(state.iterations()) * 1000.0;
    state.counters["allocs_per_event"] =
        double(heapAllocs() - allocs_before) / (events > 0 ? events : 1);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueInlineCapture);

// The hold model: N pending events, and every pop reschedules itself
// at now plus a pseudo-random delay. Unlike the time-ordered batches
// above, whose sift-down stops at once, a random key lands at a random
// depth, so this prices the heap's compare-and-select per level.
// Hold draws distinct picosecond delays, so due times almost never
// tie; HoldTies draws whole multiples of 100 ns (0..6.3 us), so many
// events share an instant, as paced senders and timer grids do in the
// figure runs, and the (when, seq) order must fall back on seq.
namespace {

struct HoldModel
{
    sim::EventQueue eq;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    bool ties;

    HoldModel(std::int64_t pending, bool ties_) : ties(ties_)
    {
        for (std::int64_t i = 0; i < pending; ++i)
            fire();
    }

    void
    fire()
    {
        // xorshift64: deterministic, allocation-free.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        sim::Time delay = ties
            ? sim::Time::ns(100 * std::int64_t(rng % 64))
            : sim::Time::ps(1 + std::int64_t(rng % 1000000));
        eq.scheduleIn(delay, [this]() { fire(); }, "hold");
    }
};

void
runHold(benchmark::State &state, bool ties)
{
    HoldModel hm(state.range(0), ties);
    hm.eq.runAll(4 * std::uint64_t(state.range(0)));    // warm
    std::uint64_t allocs_before = heapAllocs();
    for (auto _ : state)
        benchmark::DoNotOptimize(hm.eq.runAll(1000));
    double events = double(state.iterations()) * 1000.0;
    state.counters["allocs_per_event"] =
        double(heapAllocs() - allocs_before) / (events > 0 ? events : 1);
    state.SetItemsProcessed(state.iterations() * 1000);
}

} // namespace

static void
BM_EventQueueHold(benchmark::State &state)
{
    runHold(state, false);
}
BENCHMARK(BM_EventQueueHold)->Arg(150)->Arg(4096);

static void
BM_EventQueueHoldTies(benchmark::State &state)
{
    runHold(state, true);
}
BENCHMARK(BM_EventQueueHoldTies)->Arg(150)->Arg(4096);

static void
BM_LapicAcceptEoi(benchmark::State &state)
{
    intr::Lapic lapic;
    lapic.setDeliver([](intr::Vector) {});
    for (auto _ : state) {
        lapic.accept(0x41);
        lapic.eoi();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LapicAcceptEoi);

static void
BM_IommuTranslate(benchmark::State &state)
{
    mem::GuestPhysMap map("bench");
    map.mapRange(0, 1 << 20, 64 * mem::kPageSize);
    mem::Iommu iommu;
    iommu.attach(0x100, map);
    sim::Random rng;
    for (auto _ : state) {
        mem::Addr gpa = (rng.next() % 64) * mem::kPageSize;
        benchmark::DoNotOptimize(iommu.translate(0x100, gpa, true));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IommuTranslate);

// The hot-path cost the observability layer adds when a tap IS
// installed: one log-bucket binary search per sample.
static void
BM_HistogramRecord(benchmark::State &state)
{
    obs::Histogram h;
    sim::Random rng;
    for (auto _ : state)
        h.record(double(rng.next() % 100000) * 0.01);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

static void
BM_RegistrySnapshot(benchmark::State &state)
{
    obs::MetricRegistry reg;
    std::vector<sim::Counter> counters(64);
    for (std::size_t i = 0; i < counters.size(); ++i) {
        counters[i].inc(i);
        reg.add("server.nic0.vf" + std::to_string(i) + ".rx_frames",
                &counters[i]);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(reg.snapshot());
    state.SetItemsProcessed(state.iterations() * counters.size());
}
BENCHMARK(BM_RegistrySnapshot);

// Per-event overhead of an attached ExecHook vs the bare queue: the
// disabled path is one null check, the enabled path two virtual calls.
static void
BM_EventQueueWithProfiler(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        obs::SimProfiler prof;
        if (state.range(0))
            prof.attach(eq);
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(sim::Time::ns(i), []() {});
        benchmark::DoNotOptimize(eq.runAll());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueWithProfiler)->Arg(0)->Arg(1);

static void
BM_L2Classify(benchmark::State &state)
{
    nic::L2Switch l2;
    for (unsigned i = 0; i < 64; ++i)
        l2.setFilter(nic::MacAddr::make(1, std::uint16_t(i)), 0,
                     nic::Pool(i % 8));
    nic::Packet pkt;
    sim::Random rng;
    for (auto _ : state) {
        pkt.dst = nic::MacAddr::make(1, std::uint16_t(rng.next() % 64));
        benchmark::DoNotOptimize(l2.classify(pkt));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2Classify);

// ---------------------------------------------------------------------
// Packet hop: the full RX datapath of one SR-IOV frame — wire
// serialization, L2 classification, descriptor-ring take, IOMMU
// translation, DMA crossing, MSI-X raise, router dispatch, and a
// driver-style drain + buffer repost. This is the composite path the
// figure benches spend their time on; the flat ring buffers and
// inline event captures must keep it allocation-free once warm.
// ---------------------------------------------------------------------

namespace {

struct NullEndpoint final : nic::WireEndpoint
{
    void receive(const nic::Packet &) override {}
};

struct PacketHop
{
    static constexpr unsigned kBatch = 256;

    sim::EventQueue eq;
    nic::Wire wire;
    nic::SriovNic nic;
    mem::GuestPhysMap map{"hop"};
    mem::Iommu iommu;
    intr::InterruptRouter router;
    NullEndpoint host;
    /** Full-export path tracer riding the hop: its record() calls sit
     *  on the exact instrumented path the figure benches run, so the
     *  allocs_per_packet gate below also proves the tracer hot path
     *  allocation-free. (Construct under a PathTraceScope{Full}.) */
    obs::PathTracer pt;
    std::uint16_t origin_comp = 0;
    std::uint16_t drv_comp = 0;
    std::uint64_t next_id = 0;
    std::vector<nic::RxCompletion> drained;
    std::uint64_t irqs = 0;
    std::uint64_t packets = 0;
    nic::Packet pkt;

    PacketHop()
        : wire(eq, nic::Wire::Params{10e9, sim::Time::ns(500)}),
          nic(eq, "hop0", pci::Bdf{1, 0, 0})
    {
        wire.connect(host, nic);
        nic.attachWire(wire);
        origin_comp = pt.registerComponent("host");
        drv_comp = pt.registerComponent("drv");
        wire.setPathTracer(&pt, pt.registerComponent("wire"));
        nic.setPathTracer(&pt);
        map.mapRange(0, 0x100000, 1024 * mem::kPageSize);
        nic.setIommu(&iommu);
        iommu.attach(nic.pf().rid(), map);

        nic.pf().config().write(pci::cfg::kCommand,
                                pci::cfg::kCmdMemEnable
                                    | pci::cfg::kCmdBusMaster,
                                2);
        for (unsigned i = 0; i < 512; ++i)
            nic.rxRing(0).post(mem::Addr(i) * 2048);
        nic.setPoolFilter(0, nic::MacAddr::make(7, 1));
        nic.setItr(0, 0);    // interrupt per frame: the hop under test

        router.attachFunction(nic.pf());
        intr::Vector v =
            router.allocateAndBind([this](intr::Vector, pci::Rid) {
                ++irqs;
                nic.drainRxInto(0, drained);
                auto &ring = nic.rxRing(0);
                for (const auto &c : drained) {
                    pt.record(drv_comp, obs::PathStage::LapicDeliver,
                              c.pkt.trace_id, eq.now());
                    ring.post(c.buffer_gpa);
                    ++packets;
                }
            });
        nic.pf().msix()->programEntry(0,
                                      pci::MsiMessage::forVector(0, v));
        nic.pf().msix()->maskEntry(0, false);
        nic.pf().msix()->setEnable(true);

        pkt.dst = nic::MacAddr::make(7, 1);
        pkt.src = nic::MacAddr::make(7, 2);
        pkt.bytes = nic::frame::udpFrame(1472);
    }

    /** Push one batch of frames through the full hop and drain. */
    void
    sendBatch()
    {
        for (unsigned i = 0; i < kBatch; ++i) {
            pkt.trace_id = ++next_id;
            pt.record(origin_comp, obs::PathStage::Origin, pkt.trace_id,
                      eq.now());
            wire.send(host, pkt);
        }
        eq.runAll();
    }
};

} // namespace

// ---------------------------------------------------------------------
// Cross-shard ping: one frame bouncing between two islands over a
// sharded Wire. Every crossing pays the full conservative-sync bill —
// promise publication, floor refresh, channel push/pop — with almost
// no event work to amortize it, so this is the worst case for the
// shard engine and bounds its per-message overhead. The same topology
// on a single queue (legacy wire) is the no-sync baseline.
// ---------------------------------------------------------------------

namespace {

struct PingEnd final : nic::WireEndpoint
{
    nic::Wire *wire = nullptr;
    nic::Packet pong;

    void
    receive(const nic::Packet &) override
    {
        wire->send(*this, pong);
    }
};

constexpr nic::Wire::Params kPingWire{10e9, sim::Time::us(5)};

nic::Packet
pingPacket()
{
    nic::Packet pkt;
    pkt.dst = nic::MacAddr::make(9, 1);
    pkt.src = nic::MacAddr::make(9, 2);
    pkt.bytes = nic::frame::udpFrame(64);
    return pkt;
}

/** Bounce a frame on one queue for @p sim_t; returns crossings. */
std::uint64_t
pingLegacy(sim::Time sim_t, std::uint64_t *events)
{
    sim::EventQueue eq;
    nic::Wire wire(eq, kPingWire);
    PingEnd a, b;
    a.wire = b.wire = &wire;
    a.pong = b.pong = pingPacket();
    wire.connect(a, b);
    wire.send(a, a.pong);
    eq.runUntil(sim_t);
    if (events != nullptr)
        *events = eq.executed();
    return wire.delivered();
}

/** Same topology across two islands; @p workers = engine threads. */
std::uint64_t
pingSharded(sim::Time sim_t, unsigned workers, std::uint64_t *events)
{
    sim::EventQueue eq_a, eq_b;
    sim::ShardEngine engine(workers);
    unsigned ia = engine.addIsland(eq_a);
    unsigned ib = engine.addIsland(eq_b);
    nic::Wire wire(eq_a, eq_b, engine, ia, ib, kPingWire);
    PingEnd a, b;
    a.wire = b.wire = &wire;
    a.pong = b.pong = pingPacket();
    wire.connect(a, b);
    wire.send(a, a.pong);
    engine.runUntil(sim_t);
    if (events != nullptr)
        *events = engine.executedEvents();
    return wire.delivered();
}

} // namespace

static void
BM_CrossShardPing(benchmark::State &state)
{
    // Arg 0: legacy single queue; arg 1: two islands, sequential
    // oracle. Items = wire crossings, so the per-item delta between
    // the two is the conservative-sync overhead per message.
    const bool sharded = state.range(0) != 0;
    std::uint64_t crossings = 0;
    for (auto _ : state) {
        crossings += sharded ? pingSharded(sim::Time::ms(5), 1, nullptr)
                             : pingLegacy(sim::Time::ms(5), nullptr);
    }
    state.SetItemsProcessed(std::int64_t(crossings));
}
BENCHMARK(BM_CrossShardPing)->Arg(0)->Arg(1);

static void
BM_PacketHop(benchmark::State &state)
{
    // Full export: every packet pushes ring records through the whole
    // hop, and the allocation gate must still read zero.
    obs::PathTraceScope pt_full(obs::PathTraceMode::Full);
    PacketHop hop;
    hop.sendBatch();    // warm queues, rings and scratch buffers
    std::uint64_t allocs_before = heapAllocs();
    std::uint64_t pkts_before = hop.packets;
    for (auto _ : state)
        hop.sendBatch();
    std::uint64_t pkts = hop.packets - pkts_before;
    state.counters["allocs_per_packet"] =
        double(heapAllocs() - allocs_before) / (pkts ? double(pkts) : 1);
    state.SetItemsProcessed(pkts);
}
BENCHMARK(BM_PacketHop);

// ---------------------------------------------------------------------
// Perf-smoke report. With --out=<dir>, after the google-benchmark
// pass the binary times a fixed set of event-core kernels with
// steady_clock and writes microkernel.json + microkernel.perf.json so
// CI can archive events/sec over time (tools/bench_summary --perf
// folds the sidecars into BENCH_perf.json). The zero-allocation
// contract of the inline-capture path is enforced here as a hard
// failure, not just reported.
// ---------------------------------------------------------------------

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

/** Time @p batches×1000 empty events through a reused queue. */
void
perfSteadyState(core::FigReport &fr, std::uint64_t batches)
{
    sim::EventQueue eq;
    for (int i = 0; i < 1000; ++i)
        eq.scheduleIn(sim::Time::ns(i), []() {});
    eq.runAll();
    std::uint64_t before = eq.executed();
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t b = 0; b < batches; ++b) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(sim::Time::ns(i), []() {});
        eq.runAll();
    }
    double s = secondsSince(t0);
    std::uint64_t events = eq.executed() - before;
    fr.addPerf("steady-state", events, s);
    fr.report().addMetric("steady_state.events_per_sec",
                          s > 0 ? double(events) / s : 0);
}

/** Schedule+cancel churn; ops = armed-and-disarmed timers. */
void
perfScheduleCancel(core::FigReport &fr, std::uint64_t batches)
{
    sim::EventQueue eq;
    sim::EventHandle handles[64];
    std::uint64_t ops = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t b = 0; b < batches; ++b) {
        for (int i = 0; i < 64; ++i)
            handles[i] = eq.scheduleIn(sim::Time::us(1 + i), []() {});
        for (int i = 0; i < 64; ++i)
            eq.cancel(handles[i]);
        eq.runAll();
        ops += 64;
    }
    double s = secondsSince(t0);
    fr.addPerf("schedule-cancel", ops, s);
    fr.report().addMetric("schedule_cancel.ops_per_sec",
                          s > 0 ? double(ops) / s : 0);
}

/**
 * The zero-allocation gate: 64-byte captures through a warm queue
 * must not touch the heap. Returns false (and complains) on any
 * allocation.
 */
bool
perfInlineAllocGate(core::FigReport &fr, std::uint64_t batches)
{
    sim::EventQueue eq;
    struct Payload
    {
        char bytes[56];
        std::uint64_t *sink;
    };
    std::uint64_t sink = 0;
    Payload p{};
    p.sink = &sink;
    for (int i = 0; i < 1000; ++i)
        eq.scheduleIn(sim::Time::ns(i), [p]() { *p.sink += p.bytes[0]; });
    eq.runAll();

    std::uint64_t allocs_before = heapAllocs();
    std::uint64_t before = eq.executed();
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t b = 0; b < batches; ++b) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(sim::Time::ns(i),
                          [p]() { *p.sink += p.bytes[0]; });
        eq.runAll();
    }
    double s = secondsSince(t0);
    std::uint64_t events = eq.executed() - before;
    std::uint64_t allocs = heapAllocs() - allocs_before;
    fr.addPerf("inline-capture", events, s);
    fr.report().addMetric("inline_capture.events_per_sec",
                          s > 0 ? double(events) / s : 0);
    fr.report().addMetric("inline_capture.heap_allocs", double(allocs));
    if (allocs != 0) {
        std::fprintf(stderr,
                     "perf-smoke: FAIL: %llu heap allocation(s) on the "
                     "inline-capture path (%llu events); InplaceFn "
                     "inline contract broken\n",
                     static_cast<unsigned long long>(allocs),
                     static_cast<unsigned long long>(events));
        return false;
    }
    std::printf("perf-smoke: inline-capture path: 0 heap allocations "
                "over %llu events\n",
                static_cast<unsigned long long>(events));
    return true;
}

/**
 * The hold-model gate: @p pending random-delay events, each pop
 * rescheduling itself, must not allocate once the queue is warm.
 * Its rate is reported as a metric but kept out of the perf sidecar,
 * whose events/s the committed baseline compares.
 */
bool
perfHoldAllocGate(core::FigReport &fr, std::int64_t pending,
                  std::uint64_t events)
{
    HoldModel hm(pending, false);
    hm.eq.runAll(4 * std::uint64_t(pending));
    std::uint64_t allocs_before = heapAllocs();
    auto t0 = std::chrono::steady_clock::now();
    hm.eq.runAll(events);
    double s = secondsSince(t0);
    std::uint64_t allocs = heapAllocs() - allocs_before;
    fr.report().addMetric("hold_" + std::to_string(pending)
                              + ".events_per_sec",
                          s > 0 ? double(events) / s : 0);
    if (allocs != 0) {
        std::fprintf(stderr,
                     "perf-smoke: FAIL: %llu heap allocation(s) on the "
                     "hold model (%lld pending, %llu events)\n",
                     static_cast<unsigned long long>(allocs),
                     static_cast<long long>(pending),
                     static_cast<unsigned long long>(events));
        return false;
    }
    std::printf("perf-smoke: hold model, %lld pending: 0 heap "
                "allocations over %llu events\n",
                static_cast<long long>(pending),
                static_cast<unsigned long long>(events));
    return true;
}

/**
 * The packet-path gate: frames through the wire→switch→ring→IRQ hop
 * must not allocate once rings and scratch buffers are warm, and the
 * rate is archived so CI can compare against the committed baseline.
 */
bool
perfPacketHop(core::FigReport &fr, std::uint64_t batches)
{
    PacketHop hop;
    hop.sendBatch();    // warm-up batch absorbs one-time growth
    std::uint64_t events_before = hop.eq.executed();
    std::uint64_t pkts_before = hop.packets;
    std::uint64_t allocs_before = heapAllocs();
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t b = 0; b < batches; ++b)
        hop.sendBatch();
    double s = secondsSince(t0);
    std::uint64_t events = hop.eq.executed() - events_before;
    std::uint64_t pkts = hop.packets - pkts_before;
    std::uint64_t allocs = heapAllocs() - allocs_before;
    fr.addPerf("packet-hop", events, s);
    fr.report().addMetric("packet_hop.packets_per_sec",
                          s > 0 ? double(pkts) / s : 0);
    fr.report().addMetric("packet_hop.irqs", double(hop.irqs));
    fr.report().addMetric("packet_hop.heap_allocs", double(allocs));
    if (allocs != 0) {
        std::fprintf(stderr,
                     "perf-smoke: FAIL: %llu heap allocation(s) on the "
                     "packet-hop path (%llu packets); datapath "
                     "steady-state must be allocation-free\n",
                     static_cast<unsigned long long>(allocs),
                     static_cast<unsigned long long>(pkts));
        return false;
    }
    std::printf("perf-smoke: packet-hop path: 0 heap allocations over "
                "%llu packets (%.0f pkts/s)\n",
                static_cast<unsigned long long>(pkts),
                s > 0 ? double(pkts) / s : 0);
    return true;
}

/**
 * The shard-sync gate: a frame ping-ponging between two islands pays
 * conservative sync on every crossing. The per-message overhead —
 * sharded-sequential host time minus the single-queue baseline,
 * divided by crossings — must stay under a generous ceiling, and the
 * sharded run must deliver the exact crossing count of the legacy one
 * (same simulated schedule, per DESIGN.md §13). Bounds are loose
 * because CI hosts jitter; the archived metrics carry the trend.
 */
bool
perfCrossShardPing(core::FigReport &fr)
{
    const sim::Time sim_t = sim::Time::ms(200);

    std::uint64_t legacy_events = 0, shard_events = 0;
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t legacy_msgs = pingLegacy(sim_t, &legacy_events);
    double legacy_s = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    std::uint64_t shard_msgs = pingSharded(sim_t, 1, &shard_events);
    double shard_s = secondsSince(t0);

    fr.addPerf("xshard-ping", shard_events, shard_s);
    double msgs = double(shard_msgs ? shard_msgs : 1);
    double overhead_us = (shard_s - legacy_s) * 1e6 / msgs;
    fr.report().addMetric("xshard_ping.messages", double(shard_msgs));
    fr.report().addMetric("xshard_ping.legacy_host_s", legacy_s);
    fr.report().addMetric("xshard_ping.sharded_host_s", shard_s);
    fr.report().addMetric("xshard_ping.sync_overhead_us_per_msg",
                          overhead_us);

    if (shard_msgs != legacy_msgs) {
        std::fprintf(stderr,
                     "perf-smoke: FAIL: cross-shard ping delivered "
                     "%llu crossings, single-queue baseline %llu — "
                     "the sharded wire changed the schedule\n",
                     static_cast<unsigned long long>(shard_msgs),
                     static_cast<unsigned long long>(legacy_msgs));
        return false;
    }
    // ~40k crossings over 200 simulated ms: the sync bill per message
    // is a handful of atomic ops plus a channel push/pop, i.e. well
    // under a microsecond. 25 us/message means something is pathologic
    // (a yield per crossing, floors re-derived from scratch, ...).
    if (overhead_us > 25.0) {
        std::fprintf(stderr,
                     "perf-smoke: FAIL: conservative sync costs %.2f us "
                     "per cross-shard message (bound 25 us)\n",
                     overhead_us);
        return false;
    }
    std::printf("perf-smoke: cross-shard ping: %llu crossings, sync "
                "overhead %.3f us/message (single-queue baseline "
                "%.3f us/message)\n",
                static_cast<unsigned long long>(shard_msgs),
                overhead_us, legacy_s * 1e6 / msgs);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // google-benchmark consumes its --benchmark_* flags; FigReport's
    // parser takes --out/--jobs and ignores what it doesn't know.
    benchmark::Initialize(&argc, argv);
    core::FigReport fr(argc, argv, "microkernel",
                       "Simulator substrate microbenchmarks");
    if (fr.helpShown())
        return 0;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!fr.options().wantReport())
        return 0;

    perfSteadyState(fr, 2000);
    perfScheduleCancel(fr, 2000);
    bool inline_ok = perfInlineAllocGate(fr, 1000);
    bool hold_ok = perfHoldAllocGate(fr, 150, 1000000)
                   && perfHoldAllocGate(fr, 4096, 1000000);
    bool hop_ok = perfPacketHop(fr, 400);
    bool ping_ok = perfCrossShardPing(fr);
    int rc = fr.finish();
    return inline_ok && hold_ok && hop_ok && ping_ok ? rc : 1;
}
