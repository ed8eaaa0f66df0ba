/**
 * @file
 * Unit tests for the simulation kernel: Time, EventQueue, CpuServer,
 * stats helpers and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/cpu_server.hpp"
#include "sim/deferred_timer.hpp"
#include "sim/event_queue.hpp"
#include "sim/inplace_fn.hpp"
#include "sim/random.hpp"
#include "sim/ring_buf.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

using namespace sriov::sim;

namespace sriov::sim {

/** Test-only seam into EventQueue's 16-byte heap key limits. */
struct EventQueueTestPeer
{
    static std::uint64_t maxSeq() { return EventQueue::kMaxSeq; }
    static std::uint32_t maxSlots() { return EventQueue::kMaxSlots; }
    static void
    setNextSeq(EventQueue &eq, std::uint64_t seq)
    {
        eq.next_seq_ = seq;
    }
    /** Pretend @p n slots exist; only safe when the next allocation
     *  is expected to die. */
    static void
    setSlotCount(EventQueue &eq, std::uint32_t n)
    {
        eq.slot_count_ = n;
    }
};

} // namespace sriov::sim

TEST(Time, UnitConstructorsAgree)
{
    EXPECT_EQ(Time::ns(1).picos(), 1000);
    EXPECT_EQ(Time::us(1), Time::ns(1000));
    EXPECT_EQ(Time::ms(1), Time::us(1000));
    EXPECT_EQ(Time::sec(1), Time::ms(1000));
    EXPECT_DOUBLE_EQ(Time::sec(2).toSeconds(), 2.0);
}

TEST(Time, CycleArithmeticAt2p8GHz)
{
    constexpr double hz = 2.8e9;
    Time t = Time::cycles(2.8e9, hz);
    EXPECT_EQ(t, Time::sec(1));
    EXPECT_NEAR(Time::sec(1).toCycles(hz), 2.8e9, 1);
    // One cycle is 357.14 ps; integer picoseconds keep it exact enough
    // that a million cycles round-trips to under a nanosecond of skew.
    Time million = Time::cycles(1e6, hz);
    EXPECT_NEAR(million.toCycles(hz), 1e6, 0.01);
}

TEST(Time, TransferMatchesLineRate)
{
    // 1538 bytes at 1 Gb/s = 12.304 us.
    Time t = Time::transfer(1538 * 8, 1e9);
    EXPECT_EQ(t, Time::ns(12304));
}

TEST(Time, ComparisonAndArithmetic)
{
    EXPECT_LT(Time::ns(5), Time::us(1));
    EXPECT_EQ(Time::us(3) - Time::us(1), Time::us(2));
    EXPECT_EQ(Time::us(1) * 4, Time::us(4));
    EXPECT_EQ(Time::us(4) / 2, Time::us(2));
}

TEST(Time, ToStringPicksUnits)
{
    EXPECT_EQ(Time::sec(2).toString(), "2s");
    EXPECT_EQ(Time::ms(3).toString(), "3ms");
    EXPECT_EQ(Time::us(7).toString(), "7us");
    EXPECT_EQ(Time::ns(9).toString(), "9ns");
}

// ---------------------------------------------------------------------------
// Inline rounding: Time's constructors must equal std::llround bit for bit.

namespace {

std::int64_t
libmRound(double v)
{
    return std::int64_t(std::llround(v));
}

} // namespace

TEST(TimeRounding, EdgeValuesMatchLlround)
{
    const double edges[] = {
        0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1e-300, -1e-300,
        0.49999999999999994, -0.49999999999999994,
        std::nextafter(0.5, 1.0), std::nextafter(-0.5, -1.0),
        // Around 2^52, where the spacing reaches 1 (no fraction left).
        0x1p52, -0x1p52, 0x1p52 - 0.5, -(0x1p52 - 0.5), 0x1p52 - 1.5,
        0x1p52 + 1, std::nextafter(0x1p52, 0.0),
        0x1p51 + 0.5, -(0x1p51 + 0.5), 0x1p51 + 1.5,
        // Around 2^53, where the spacing reaches 2.
        0x1p53, -0x1p53, 0x1p53 + 2, std::nextafter(0x1p53, 0.0),
        std::nextafter(0x1p53, 0x1p54),
        // The extremes of the inline path: the largest double below
        // 2^63 (Time's largest representable span) and -2^63.
        std::nextafter(0x1p63, 0.0), -0x1p63,
        std::nextafter(-0x1p63, 0.0),
    };
    for (double v : edges)
        EXPECT_EQ(Time::roundPs(v), libmRound(v)) << std::hexfloat << v;
    EXPECT_EQ(Time::roundPs(0.49999999999999994), 0);
    EXPECT_EQ(Time::roundPs(2.5), 3);
    EXPECT_EQ(Time::roundPs(-2.5), -3);
    EXPECT_EQ(Time::roundPs(std::nextafter(0x1p63, 0.0)),
              std::int64_t(0x7ffffffffffffc00));
    // Past the int64 range the inline path hands over to libm, whose
    // result it returns unchanged.
    EXPECT_EQ(Time::roundPs(0x1p63), libmRound(0x1p63));
    EXPECT_EQ(Time::roundPs(-0x1p64), libmRound(-0x1p64));
}

TEST(TimeRounding, RandomInputsMatchLlround)
{
    Random rng(0x5eed);
    for (int i = 0; i < 200000; ++i) {
        // Random magnitudes from 2^-4 to 2^62 and random mantissas,
        // plus values snapped to exact halves.
        double mag = std::ldexp(1.0, int(rng.uniformInt(0, 66)) - 4);
        double v = mag * (rng.uniform() + 1.0);
        if (i % 4 == 1)
            v = std::floor(v) + 0.5;
        if (rng.uniformInt(0, 1) != 0)
            v = -v;
        ASSERT_EQ(Time::roundPs(v), libmRound(v)) << std::hexfloat << v;
    }
}

TEST(TimeRounding, ConstructorsMatchLlroundOfTheSameExpression)
{
    Random rng(7);
    for (int i = 0; i < 50000; ++i) {
        double a = rng.uniform() * std::ldexp(1.0, int(rng.uniformInt(0, 40)));
        double b = 1e3 + rng.uniform() * 1e10;
        ASSERT_EQ(Time::cycles(a, b).picos(), libmRound(a / b * 1e12));
        ASSERT_EQ(Time::transfer(a, b).picos(), libmRound(a / b * 1e12));
        ASSERT_EQ(Time::seconds(a / b).picos(),
                  libmRound(a / b * 1e12));
    }
    // A 1.5 ps service at 1 Hz: an exact half, rounded away from zero.
    EXPECT_EQ(Time::cycles(1.5e-12, 1.0).picos(),
              libmRound(1.5e-12 / 1.0 * 1e12));
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(Time::us(3), [&order]() { order.push_back(3); });
    eq.scheduleAt(Time::us(1), [&order]() { order.push_back(1); });
    eq.scheduleAt(Time::us(2), [&order]() { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), Time::us(3));
}

TEST(EventQueue, SimultaneousEventsAreFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(Time::us(1), [&order, i]() { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
    EventQueue eq;
    int ran = 0;
    eq.scheduleAt(Time::us(1), [&ran]() { ++ran; });
    eq.scheduleAt(Time::us(10), [&ran]() { ++ran; });
    EXPECT_EQ(eq.runUntil(Time::us(5)), 1u);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.now(), Time::us(5));
    eq.runAll();
    EXPECT_EQ(ran, 2);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 5)
            eq.scheduleIn(Time::us(1), chain);
    };
    eq.scheduleIn(Time::us(1), chain);
    eq.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), Time::us(5));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    EventHandle h = eq.scheduleAt(Time::us(1), [&ran]() { ran = true; });
    eq.cancel(h);
    EXPECT_FALSE(h.valid());
    eq.runAll();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsSelective)
{
    EventQueue eq;
    int ran = 0;
    EventHandle h1 = eq.scheduleAt(Time::us(1), [&ran]() { ran += 1; });
    eq.scheduleAt(Time::us(1), [&ran]() { ran += 10; });
    eq.cancel(h1);
    eq.runAll();
    EXPECT_EQ(ran, 10);
}

TEST(EventQueue, CancelBookkeepingIsPurgedOnPop)
{
    EventQueue eq;
    EventHandle h = eq.scheduleAt(Time::us(1), []() {});
    eq.scheduleAt(Time::us(2), []() {});
    eq.cancel(h);
    EXPECT_EQ(eq.cancelledPending(), 1u);
    eq.runAll();
    // The cancelled entry was popped and its bookkeeping purged.
    EXPECT_EQ(eq.cancelledPending(), 0u);
}

TEST(EventQueue, CancellingStaleHandlesDoesNotAccumulate)
{
    // Regression: long-running scale experiments (fig15-fig19) cancel
    // throttle timers whose events often fired long ago; the stale
    // cancellations must not grow the bookkeeping unboundedly.
    EventQueue eq;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 1000; ++i)
        handles.push_back(eq.scheduleIn(Time::us(i), []() {}));
    eq.runAll();
    for (auto &h : handles)
        eq.cancel(h);    // all stale: every event already fired
    EXPECT_EQ(eq.cancelledPending(), 0u);
}

TEST(EventQueue, CancelledEventsDoNotCountAsLive)
{
    EventQueue eq;
    EventHandle h = eq.scheduleAt(Time::us(1), []() {});
    EXPECT_EQ(eq.liveEvents(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.cancel(h);
    EXPECT_EQ(eq.liveEvents(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunUntilIgnoresCancelledTopBeyondDeadline)
{
    // Regression: a cancelled event at the heap top must not let
    // runUntil() execute the *next* event past the deadline.
    EventQueue eq;
    bool late_ran = false;
    EventHandle h = eq.scheduleAt(Time::us(1), []() {});
    eq.scheduleAt(Time::us(10), [&late_ran]() { late_ran = true; });
    eq.cancel(h);
    EXPECT_EQ(eq.runUntil(Time::us(5)), 0u);
    EXPECT_FALSE(late_ran);
    EXPECT_EQ(eq.now(), Time::us(5));
    eq.runAll();
    EXPECT_TRUE(late_ran);
}

TEST(EventQueue, OrderDigestIsReproducible)
{
    auto run = []() {
        EventQueue eq;
        for (int i = 0; i < 50; ++i)
            eq.scheduleAt(Time::us(50 - i), []() {}, "tick");
        eq.runAll();
        return eq.orderDigest();
    };
    std::uint64_t a = run();
    EXPECT_EQ(a, run());

    EventQueue other;
    other.scheduleAt(Time::us(1), []() {}, "tick");
    other.runAll();
    EXPECT_NE(a, other.orderDigest());
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.scheduleAt(Time::us(5), []() {});
    eq.runAll();
    EXPECT_DEATH(eq.scheduleAt(Time::us(1), []() {}), "past");
}

TEST(CpuServer, SerializesWork)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9);    // 1 GHz: 1 cycle = 1 ns
    std::vector<int> order;
    cpu.submit(1000, "a", [&]() { order.push_back(1); });
    cpu.submit(1000, "a", [&]() { order.push_back(2); });
    EXPECT_TRUE(cpu.busyNow());
    EXPECT_EQ(cpu.queueDepth(), 1u);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    // Two back-to-back 1000-cycle items finish at 2 us.
    EXPECT_EQ(eq.now(), Time::us(2));
}

TEST(CpuServer, UtilizationWindow)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9);
    auto snap = cpu.snapshot();
    cpu.submit(500000, "x");    // 0.5 ms busy
    eq.runUntil(Time::ms(1));
    EXPECT_NEAR(cpu.utilizationSince(snap), 0.5, 1e-9);
}

TEST(CpuServer, TagAccounting)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9);
    auto snap = cpu.snapshot();
    cpu.submit(100, "alpha");
    cpu.charge(250, "beta");
    cpu.charge(50, "alpha");
    eq.runAll();
    EXPECT_DOUBLE_EQ(cpu.cyclesSince(snap, "alpha"), 150.0);
    EXPECT_DOUBLE_EQ(cpu.cyclesSince(snap, "beta"), 250.0);
    EXPECT_DOUBLE_EQ(cpu.cyclesSince(snap, "gamma"), 0.0);
}

TEST(CpuServer, ChargeDoesNotDelayCompletion)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9);
    cpu.charge(1e9, "heavy");    // instant accounting
    bool done = false;
    cpu.submit(10, "x", [&]() { done = true; });
    eq.runUntil(Time::us(1));
    EXPECT_TRUE(done);
    // Busy time reflects both, though.
    EXPECT_EQ(cpu.busyTime(), Time::sec(1) + Time::ns(10));
}

TEST(CpuServerTags, MixedWorkMatchesAStringKeyedReference)
{
    // Random submit()/charge() by name and by resolved handle, on two
    // servers; the reference keys plain strings. Tags enter a snapshot
    // on first charge or when submitted work starts service.
    EventQueue eq;
    CpuServer a(eq, "a", 1e9), b(eq, "b", 2.5e9);
    const std::vector<std::string> names = {"vm0", "vm1", "xen",
                                            "dom0-netback", "dom0-dm",
                                            "vm12", ""};
    std::vector<CpuServer::Tag> handles;
    for (const auto &n : names)
        handles.emplace_back(n);
    std::map<std::string, double> ref_a, ref_b;
    Random rng(99);
    for (int i = 0; i < 4000; ++i) {
        bool on_a = rng.uniformInt(0, 1) == 0;
        CpuServer &cpu = on_a ? a : b;
        auto &ref = on_a ? ref_a : ref_b;
        std::size_t k = rng.uniformInt(0, names.size() - 1);
        double cycles = double(rng.uniformInt(0, 5000));
        bool by_handle = rng.uniformInt(0, 1) == 0;
        if (rng.uniformInt(0, 2) == 0) {
            if (by_handle)
                cpu.submit(cycles, handles[k]);
            else
                cpu.submit(cycles, names[k]);
        } else if (by_handle) {
            cpu.charge(cycles, handles[k]);
        } else {
            cpu.charge(cycles, names[k]);
        }
        ref[names[k]] += cycles;
        if (i % 97 == 0)
            eq.runAll();
    }
    eq.runAll();
    EXPECT_EQ(a.snapshot().cycles_by_tag, ref_a);
    EXPECT_EQ(b.snapshot().cycles_by_tag, ref_b);
    CpuSnapshot zero;
    for (const auto &[name, cycles] : ref_a)
        EXPECT_EQ(a.cyclesSince(zero, name), cycles) << name;
}

TEST(CpuServerTags, ReusedTemporaryBufferNamesADifferentTag)
{
    // The same buffer, rewritten in place, names two tags: whatever
    // keys the table must be the content, not the pointer.
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9);
    std::string buf = "tmp-tag-number-one-long-enough-for-the-heap";
    const char *addr = buf.data();
    cpu.charge(10, std::string_view(buf));
    CpuServer::Tag first(buf);
    buf.replace(0, buf.size(), "tmp-tag-number-two-long-enough-for-the-heap");
    ASSERT_EQ(buf.data(), addr);
    cpu.charge(20, std::string_view(buf));
    CpuServer::Tag second(buf);
    EXPECT_NE(first, second);
    EXPECT_EQ(first.name(), "tmp-tag-number-one-long-enough-for-the-heap");
    cpu.charge(1, first);
    auto snap = cpu.snapshot().cycles_by_tag;
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap.at("tmp-tag-number-one-long-enough-for-the-heap"), 11.0);
    EXPECT_EQ(snap.at("tmp-tag-number-two-long-enough-for-the-heap"), 20.0);

    // Temporaries destroyed between resolutions: equal content, equal
    // tag; different content, different tag.
    auto make = [](const char *s) { return CpuServer::Tag(std::string(s)); };
    EXPECT_EQ(make("tmp-a"), make("tmp-a"));
    EXPECT_NE(make("tmp-a"), make("tmp-b"));
}

TEST(CpuServerTags, ResolvedButUnchargedTagStaysOutOfSnapshots)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9);
    CpuServer::Tag idle("resolved-never-charged");
    CpuServer::Tag zero("charged-zero");
    CpuServer::Tag queued("queued-behind-busy");
    cpu.submit(100, "busy");
    cpu.submit(5, queued);
    cpu.charge(0, zero);
    auto snap = cpu.snapshot().cycles_by_tag;
    EXPECT_EQ(snap.count("resolved-never-charged"), 0u);
    EXPECT_EQ(snap.count("queued-behind-busy"), 0u);    // not started yet
    EXPECT_EQ(snap.at("charged-zero"), 0.0);
    EXPECT_TRUE(cpu.hasWorkTagged(queued));
    EXPECT_FALSE(cpu.hasWorkTagged(idle));
    eq.runAll();
    EXPECT_EQ(cpu.snapshot().cycles_by_tag.at("queued-behind-busy"), 5.0);
    EXPECT_FALSE(cpu.hasWorkTagged(queued));
    EXPECT_EQ(CpuServer::Tag::find("resolved-never-charged"), idle);
    EXPECT_FALSE(CpuServer::Tag::find("never-resolved-anywhere"));
}

TEST(CpuServerDeathTest, NegativeWorkPanics)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9);
    EXPECT_DEATH(cpu.submit(-1, "x"), "negative");
    EXPECT_DEATH(cpu.charge(-1, "x"), "negative");
}

TEST(Stats, RateWindow)
{
    EventQueue eq;
    RateWindow w;
    w.take(eq.now());
    w.add(1000);
    eq.runUntil(Time::sec(2));
    EXPECT_DOUBLE_EQ(w.take(eq.now()), 500.0);
    // Window re-marks: nothing new means zero.
    eq.runUntil(Time::sec(3));
    EXPECT_DOUBLE_EQ(w.take(eq.now()), 0.0);
}

TEST(Stats, RateWindowZeroWidthDoesNotDiscard)
{
    RateWindow w;
    w.take(Time::sec(1));
    w.add(100);
    // Sampling again at the same instant (or earlier) yields 0 and
    // must NOT re-mark: the 100 stays in the open window.
    EXPECT_DOUBLE_EQ(w.take(Time::sec(1)), 0.0);
    EXPECT_DOUBLE_EQ(w.take(Time::ms(500)), 0.0);
    EXPECT_DOUBLE_EQ(w.take(Time::sec(2)), 100.0);
}

TEST(Trace, RingWraparoundCountsDrops)
{
    Tracer t(/*capacity=*/4);
    t.enable(TraceCat::Nic);
    for (int i = 0; i < 10; ++i)
        t.recordf(TraceCat::Nic, "r%d", i);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.totalRecorded(), 10u);
    EXPECT_EQ(t.droppedRecords(), 6u);
    // The ring keeps the NEWEST records.
    EXPECT_EQ(t.records().front().text, "r6");
    EXPECT_EQ(t.records().back().text, "r9");
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.droppedRecords(), 0u);
}

TEST(Trace, DisabledCategoryRecordsNothing)
{
    Tracer t;
    t.enable(TraceCat::Irq);
    t.record(TraceCat::Nic, "dropped");
    t.record(TraceCat::Irq, "kept");
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.records().front().text, "kept");
}

TEST(Trace, GlobalClockAdoptedAndDisownedByQueue)
{
    auto &g = Tracer::global();
    const Time *before = g.clock();
    {
        EventQueue eq;
        const Time *bound = g.clock();
        // A fresh queue adopts the clock only when none is bound.
        if (before == nullptr)
            EXPECT_NE(bound, nullptr);
        else
            EXPECT_EQ(bound, before);
        {
            EventQueue second;
            // A second queue must not steal an existing binding...
            EXPECT_EQ(g.clock(), bound);
        }
        // ...and destroying it must not clear someone else's binding.
        EXPECT_EQ(g.clock(), bound);
    }
    // Regression for the dangling-clock hazard: after the owning queue
    // dies, the global tracer must not keep pointing into it.
    EXPECT_EQ(g.clock(), before);
}

TEST(Trace, RecordAfterQueueDestructionIsSafe)
{
    auto &g = Tracer::global();
    const Time *before = g.clock();
    if (before != nullptr)
        GTEST_SKIP() << "another queue owns the global clock";
    {
        EventQueue eq;
        eq.scheduleAt(Time::us(5), []() {});
        eq.runAll();
        g.enable(TraceCat::Irq);
        g.record(TraceCat::Irq, "live");
        EXPECT_EQ(g.records().back().when, Time::us(5));
    }
    // The queue is gone; recording must not touch freed memory and
    // timestamps degrade to 0.
    g.record(TraceCat::Irq, "after");
    EXPECT_EQ(g.records().back().when, Time());
    g.disable(TraceCat::Irq);
    g.clear();
}

namespace {

class CountingHook : public EventQueue::ExecHook
{
  public:
    void
    onEventStart(Time, std::uint64_t, const char *tag) override
    {
        ++starts;
        if (tag != nullptr && tag[0] != '\0')
            last_tag = tag;
    }
    void
    onEventEnd(Time when, std::uint64_t, const char *) override
    {
        ++ends;
        last_end = when;
    }

    int starts = 0;
    int ends = 0;
    std::string last_tag;
    Time last_end;
};

} // namespace

TEST(EventQueueHooks, BracketEveryExecutedEvent)
{
    EventQueue eq;
    CountingHook hook;
    eq.addExecHook(&hook);
    EXPECT_EQ(eq.execHookCount(), 1u);
    eq.scheduleAt(Time::us(1), []() {}, "alpha");
    eq.scheduleAt(Time::us(2), []() {});
    eq.runAll();
    EXPECT_EQ(hook.starts, 2);
    EXPECT_EQ(hook.ends, 2);
    EXPECT_EQ(hook.last_tag, "alpha");
    EXPECT_EQ(hook.last_end, Time::us(2));

    eq.removeExecHook(&hook);
    EXPECT_EQ(eq.execHookCount(), 0u);
    eq.scheduleAt(Time::us(3), []() {});
    eq.runAll();
    EXPECT_EQ(hook.starts, 2);
}

TEST(EventQueueHooks, HookDoesNotPerturbOrderOrClock)
{
    auto run = [](bool hooked) {
        EventQueue eq;
        CountingHook hook;
        if (hooked)
            eq.addExecHook(&hook);
        std::vector<int> order;
        for (int i = 0; i < 5; ++i)
            eq.scheduleAt(Time::us(5 - i), [&order, i]() {
                order.push_back(i);
            });
        eq.runAll();
        return order;
    };
    EXPECT_EQ(run(false), run(true));
}

namespace {

class RecordingTap : public CpuServer::SpanTap
{
  public:
    void
    onCpuSpan(const CpuServer &, const std::string &tag, Time start,
              Time end) override
    {
        spans.emplace_back(tag, end - start);
    }

    std::vector<std::pair<std::string, Time>> spans;
};

} // namespace

TEST(CpuServerSpanTap, ReportsWorkSpans)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9); // 1 GHz: 1 cycle = 1 ns
    RecordingTap tap;
    cpu.setSpanTap(&tap);
    cpu.submit(100, "guest-1");
    cpu.submit(50, "xen");
    eq.runAll();
    ASSERT_EQ(tap.spans.size(), 2u);
    EXPECT_EQ(tap.spans[0].first, "guest-1");
    EXPECT_EQ(tap.spans[0].second, Time::ns(100));
    EXPECT_EQ(tap.spans[1].first, "xen");
    EXPECT_EQ(tap.spans[1].second, Time::ns(50));

    cpu.setSpanTap(nullptr);
    cpu.submit(10, "dom0");
    eq.runAll();
    EXPECT_EQ(tap.spans.size(), 2u);
}

TEST(Stats, AccumulatorMean)
{
    Accumulator a;
    a.add(2);
    a.add(4);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.samples(), 2u);
}

TEST(Random, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

class RandomDistribution : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomDistribution, UniformInUnitInterval)
{
    Random r(GetParam());
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST_P(RandomDistribution, ExponentialMean)
{
    Random r(GetParam());
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += r.exponential(3.0);
    EXPECT_NEAR(sum / 20000, 3.0, 0.15);
}

TEST_P(RandomDistribution, UniformIntInRange)
{
    Random r(GetParam());
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(5, 9);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 9u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDistribution,
                         ::testing::Values(1, 7, 42, 1234567, 0xdeadbeef));

// ---------------------------------------------------------------------------
// InplaceFn: the event queue's inline-capture callback type.

TEST(InplaceFn, SmallTrivialCaptureStoresInline)
{
    auto before = detail::capturePoolStats();
    int x = 41;
    InplaceFn fn([&x]() { ++x; });
    EXPECT_TRUE(fn.storedInline());
    fn();
    EXPECT_EQ(x, 42);
    auto after = detail::capturePoolStats();
    EXPECT_EQ(after.allocs, before.allocs);    // never touched the pool
}

TEST(InplaceFn, CaptureAtCapacityBoundaryStoresInline)
{
    struct Fits
    {
        char bytes[InplaceFn::kCapacity];
        void operator()() {}
    };
    struct Oversize
    {
        char bytes[InplaceFn::kCapacity + 1];
        void operator()() {}
    };
    EXPECT_TRUE(InplaceFn(Fits{}).storedInline());
    EXPECT_FALSE(InplaceFn(Oversize{}).storedInline());
}

TEST(InplaceFn, OversizedCaptureUsesPoolAndReturnsBlock)
{
    auto before = detail::capturePoolStats();
    {
        std::array<char, 200> big{};
        big[0] = 7;
        InplaceFn fn([big]() { ASSERT_EQ(big[0], 7); });
        EXPECT_FALSE(fn.storedInline());
        auto during = detail::capturePoolStats();
        EXPECT_EQ(during.live, before.live + 1);
        fn();
    }
    auto after = detail::capturePoolStats();
    EXPECT_EQ(after.live, before.live);
    EXPECT_EQ(after.frees, before.frees + 1);
}

TEST(InplaceFn, PoolReusesReturnedBlocks)
{
    // Warm the pool, then cycle: after the first allocation the same
    // size class must be served from the free list, not operator new.
    std::array<char, 300> big{};
    { InplaceFn warm([big]() {}); }
    auto before = detail::capturePoolStats();
    for (int i = 0; i < 100; ++i) {
        InplaceFn fn([big]() {});
        fn();
    }
    auto after = detail::capturePoolStats();
    EXPECT_EQ(after.allocs, before.allocs + 100);
    EXPECT_EQ(after.fresh, before.fresh);    // all reuses
}

TEST(InplaceFn, MoveTransfersCallableAndEmptiesSource)
{
    int hits = 0;
    InplaceFn a([&hits]() { ++hits; });
    InplaceFn b = std::move(a);
    EXPECT_FALSE(bool(a));    // NOLINT: post-move state is part of the API
    ASSERT_TRUE(bool(b));
    b();
    EXPECT_EQ(hits, 1);

    InplaceFn c;
    c = std::move(b);
    ASSERT_TRUE(bool(c));
    c();
    EXPECT_EQ(hits, 2);
}

TEST(InplaceFn, NonTrivialCaptureDestructsExactlyOnce)
{
    auto counter = std::make_shared<int>(0);
    {
        InplaceFn fn([counter]() { ++*counter; });
        EXPECT_EQ(counter.use_count(), 2);
        InplaceFn moved = std::move(fn);
        EXPECT_EQ(counter.use_count(), 2);    // moved, not copied
        moved();
    }
    EXPECT_EQ(counter.use_count(), 1);
    EXPECT_EQ(*counter, 1);
}

TEST(InplaceFn, EmplaceBuildsCaptureInPlace)
{
    int hits = 0;
    InplaceFn fn;
    EXPECT_FALSE(bool(fn));
    fn.emplace([&hits]() { ++hits; });
    ASSERT_TRUE(bool(fn));
    fn();
    EXPECT_EQ(hits, 1);
    // Re-emplacing replaces the old callable.
    fn.emplace([&hits]() { hits += 10; });
    fn();
    EXPECT_EQ(hits, 11);
}

// ---------------------------------------------------------------------------
// Slot-map cancellation: generation safety and churn behaviour.

TEST(EventQueue, StaleHandleCannotCancelSlotReuse)
{
    EventQueue eq;
    bool a = false, b = false;
    EventHandle ha = eq.scheduleIn(Time::ns(1), [&a]() { a = true; });
    eq.runAll();
    ASSERT_TRUE(a);
    // B reuses A's slot (freed on execution). The stale handle keeps
    // A's generation and must not cancel B.
    EventHandle hb = eq.scheduleIn(Time::ns(1), [&b]() { b = true; });
    EventHandle stale = ha;    // would-be double cancel via old copy
    (void)hb;
    eq.cancel(stale);
    eq.runAll();
    EXPECT_TRUE(b);
}

TEST(EventQueue, SelfCancelFromInsideCallbackIsNoOp)
{
    EventQueue eq;
    int runs = 0;
    EventHandle h;
    h = eq.scheduleIn(Time::ns(1), [&runs, &eq, &h]() {
        ++runs;
        eq.cancel(h);    // the event has already fired: no-op
    });
    eq.runAll();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(eq.liveEvents(), 0u);
    EXPECT_EQ(eq.cancelledPending(), 0u);
}

TEST(EventQueue, MillionEventCancelChurnStaysBounded)
{
    // Scale-experiment pattern at 10x stress: every event re-arms a
    // timer and cancels the oldest outstanding one. Purging is lazy
    // (cancelled keys are reclaimed when they reach the heap top), so
    // the bound is per drain cycle: between drains the bookkeeping
    // never exceeds the events scheduled since the last drain, and
    // each drain — which pops every key at or before its deadline —
    // returns it to exactly zero. Live/executed accounting must
    // balance throughout.
    constexpr std::uint64_t kChurn = 1'000'000;
    constexpr std::uint64_t kWindow = 64;
    constexpr std::uint64_t kDrainEvery = 1024;
    EventQueue eq;
    std::vector<EventHandle> window;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < kChurn; ++i) {
        window.push_back(
            eq.scheduleIn(Time::ns(100 + i % 37), [&fired]() { ++fired; }));
        if (window.size() > kWindow) {
            eq.cancel(window.front());
            window.erase(window.begin());
        }
        ASSERT_LE(eq.cancelledPending(), kDrainEvery + kWindow);
        if ((i + 1) % kDrainEvery == 0) {
            // The drain deadline is past every outstanding event, so
            // all cancelled keys pop and purge.
            eq.runUntil(eq.now() + Time::us(1));
            ASSERT_EQ(eq.cancelledPending(), 0u);
            window.clear();    // survivors fired; handles now stale
        }
    }
    eq.runAll();
    EXPECT_EQ(eq.liveEvents(), 0u);
    EXPECT_EQ(eq.cancelledPending(), 0u);
    EXPECT_EQ(eq.executed(), fired);
    // The churn genuinely exercised both outcomes.
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, kChurn);
}

// ---------------------------------------------------------------------------
// Order digest: the memoized tag fold must match plain FNV-1a.

namespace {

/** Reference implementation: byte-wise FNV-1a over (when, seq, tag). */
struct ReferenceDigest
{
    std::uint64_t d = 0xcbf29ce484222325ull;

    void
    byte(std::uint8_t b)
    {
        d ^= b;
        d *= 0x100000001b3ull;
    }

    void
    event(Time when, std::uint64_t seq, const char *tag)
    {
        auto u64 = [this](std::uint64_t v) {
            for (int i = 0; i < 8; ++i)
                byte((v >> (8 * i)) & 0xff);
        };
        u64(std::uint64_t(when.picos()));
        u64(seq);
        if (tag != nullptr)
            for (const char *p = tag; *p != '\0'; ++p)
                byte(std::uint8_t(*p));
    }
};

} // namespace

TEST(EventQueue, DigestMatchesReferenceFnv1a)
{
    // Tags repeat (exercising the per-tag memo and its index),
    // interleave, and include the empty tag; seq is assigned in
    // scheduling order, execution order is (when, seq).
    static const char *const kTags[] = {"wire.rx", "cpu", "", "wire.rx",
                                        "itr.timer", "cpu", "wire.rx", ""};
    EventQueue eq;
    ReferenceDigest ref;
    std::uint64_t seq = 1;
    for (int round = 0; round < 50; ++round)
        for (std::size_t t = 0; t < std::size(kTags); ++t) {
            // All events of a round share a timestamp: FIFO by seq.
            Time when = Time::us(round + 1);
            eq.scheduleAt(when, []() {}, kTags[t]);
            ref.event(when, seq++, kTags[t]);
        }
    eq.runAll();
    EXPECT_EQ(eq.orderDigest(), ref.d);
}

TEST(EventQueue, DigestMatchesReferenceAcrossManyTags)
{
    // More distinct tags than the fold index's first size, so the
    // index is rebuilt mid-run and probes past occupied cells.
    std::vector<std::string> tags;
    for (int i = 0; i < 300; ++i) {
        std::string tag = "tag.";
        tag += std::to_string(i * 7919 % 1000);
        tags.push_back(tag);
    }
    EventQueue eq;
    ReferenceDigest ref;
    std::uint64_t seq = 1;
    Random rng(3);
    for (int i = 0; i < 5000; ++i) {
        const char *tag = tags[rng.uniformInt(0, i < 100 ? 9 : 299)].c_str();
        Time when = Time::ns(i);
        eq.scheduleAt(when, []() {}, tag);
        ref.event(when, seq++, tag);
    }
    eq.runAll();
    EXPECT_EQ(eq.orderDigest(), ref.d);
}

TEST(EventQueue, DigestHashesTagContentNotPointer)
{
    // Two distinct arrays with equal content must fold identically:
    // the memo is keyed by pointer, but the digest is content-based.
    static const char tag_a[] = "same.tag";
    static const char tag_b[] = "same.tag";
    auto run = [](const char *tag) {
        EventQueue eq;
        for (int i = 0; i < 10; ++i)
            eq.scheduleIn(Time::ns(i), []() {}, tag);
        eq.runAll();
        return eq.orderDigest();
    };
    EXPECT_EQ(run(tag_a), run(tag_b));
}

// ---------------------------------------------------------------------------
// Differential event core: the heap against a reference ordered set.

namespace {

/**
 * Drives an EventQueue with seeded random schedule / cancel /
 * self-cancel / same-instant ties / fluidWarp shifts, and mirrors
 * every operation on a std::set of (when, seq): the queue must pop
 * exactly the set's minimum each time, and its order digest must be
 * the FNV-1a of that sequence.
 */
class DifferentialCore
{
  public:
    explicit DifferentialCore(std::uint64_t seed) : rng_(seed) {}

    void
    run(std::uint64_t events)
    {
        for (int i = 0; i < 64; ++i)
            schedule(eq_.now() + delay());
        // Alternate runUntil() slices with top-level scheduling and
        // cancels, then drain without further actions.
        while (eq_.executed() < events) {
            eq_.runUntil(eq_.now() + Time::ns(rng_.uniformInt(1, 400)));
            if (rng_.uniformInt(0, 3) == 0)
                schedule(eq_.now() + delay());
            if (rng_.uniformInt(0, 3) == 0)
                cancelRandom();
        }
        draining_ = true;
        eq_.runAll();
    }

    EventQueue eq_;
    std::vector<std::pair<std::int64_t, std::uint64_t>> expected_;
    std::vector<std::pair<std::int64_t, std::uint64_t>> actual_;
    ReferenceDigest ref_digest_;
    std::uint64_t warps_ = 0;
    std::uint64_t cancels_ = 0;
    std::uint64_t ties_ = 0;

  private:
    static constexpr const char *kTags[] = {"diff.a", "diff.b", ""};

    Time
    delay()
    {
        switch (rng_.uniformInt(0, 5)) {
        case 0: return Time();    // same instant as now
        case 1: return Time::ps(std::int64_t(rng_.uniformInt(1, 10)));
        case 5: return Time::us(std::int64_t(rng_.uniformInt(1, 50)));
        default: return Time::ns(std::int64_t(rng_.uniformInt(1, 500)));
        }
    }

    void
    schedule(Time when)
    {
        // Sometimes tie exactly with an already-pending event.
        if (!ref_.empty() && rng_.uniformInt(0, 4) == 0) {
            auto it = std::next(ref_.begin(),
                                std::ptrdiff_t(rng_.uniformInt(
                                    0, std::min<std::uint64_t>(
                                           ref_.size() - 1, 8))));
            when = Time::ps(it->first);
            ++ties_;
        }
        const std::uint64_t seq = next_seq_++;
        const char *tag = kTags[rng_.uniformInt(0, 2)];
        handles_[seq] = eq_.scheduleAt(
            when, [this, seq]() { fire(seq); }, tag);
        tags_[seq] = tag;
        when_of_[seq] = when.picos();
        ref_.emplace(when.picos(), seq);
    }

    void
    cancelRandom()
    {
        // Any handle ever issued: stale ones (fired or cancelled)
        // must be no-ops on both sides.
        if (handles_.empty())
            return;
        auto it = handles_.lower_bound(rng_.uniformInt(1, next_seq_ - 1));
        if (it == handles_.end())
            return;
        EventHandle h = it->second;
        eq_.cancel(h);
        if (ref_.erase({when_of_[it->first], it->first}) != 0)
            ++cancels_;
    }

    void
    warp()
    {
        // Shift a random subset of pending events and the clock by
        // one delta, no further than the earliest unshifted event.
        std::vector<EventQueue::PendingEvent> snap;
        eq_.snapshotPending(snap);
        ASSERT_EQ(snap.size(), ref_.size());
        std::vector<std::uint32_t> keys;
        std::vector<std::uint64_t> shifted;
        Time bound = Time::max();
        for (const auto &e : snap) {
            ASSERT_EQ(ref_.count({e.when.picos(), e.seq}), 1u);
            if (rng_.uniformInt(0, 1) == 0) {
                keys.push_back(e.key_index);
                shifted.push_back(e.seq);
            } else {
                bound = std::min(bound, e.when);
            }
        }
        const std::int64_t room = bound == Time::max()
            ? 1000000
            : std::min<std::int64_t>((bound - eq_.now()).picos(),
                                     1000000);
        const Time delta =
            Time::ps(std::int64_t(rng_.uniformInt(0, std::uint64_t(room))));
        eq_.fluidWarp(delta, keys);
        for (std::uint64_t seq : shifted) {
            ref_.erase({when_of_[seq], seq});
            when_of_[seq] += delta.picos();
            ref_.emplace(when_of_[seq], seq);
        }
        ++warps_;
    }

    void
    fire(std::uint64_t seq)
    {
        ASSERT_FALSE(ref_.empty());
        auto top = *ref_.begin();
        ref_.erase(ref_.begin());
        expected_.push_back(top);
        actual_.emplace_back(eq_.now().picos(), seq);
        ref_digest_.event(Time::ps(top.first), top.second, tags_[top.second]);
        if (draining_)
            return;
        // Self-cancel: the event has fired, so this is a no-op.
        if (rng_.uniformInt(0, 7) == 0) {
            EventHandle self = handles_[seq];
            eq_.cancel(self);
        }
        // Keep roughly 50..400 events pending.
        std::uint64_t n = ref_.size() < 50 ? 2
            : ref_.size() > 400             ? 0
                                            : rng_.uniformInt(0, 2);
        for (std::uint64_t i = 0; i < n; ++i)
            schedule(eq_.now() + delay());
        if (rng_.uniformInt(0, 3) == 0)
            cancelRandom();
        if (rng_.uniformInt(0, 199) == 0)
            warp();
    }

    Random rng_;
    std::uint64_t next_seq_ = 1;    // mirrors the queue's seq counter
    bool draining_ = false;
    std::set<std::pair<std::int64_t, std::uint64_t>> ref_;
    std::map<std::uint64_t, EventHandle> handles_;
    std::map<std::uint64_t, const char *> tags_;
    std::map<std::uint64_t, std::int64_t> when_of_;
};

} // namespace

TEST(EventQueueDifferential, MatchesReferenceOrderedSet)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 77u, 7919u}) {
        SCOPED_TRACE(seed);
        DifferentialCore d(seed);
        d.run(20000);
        ASSERT_FALSE(testing::Test::HasFatalFailure());
        // Report the first divergence, not two 20k-entry vectors.
        ASSERT_EQ(d.actual_.size(), d.expected_.size());
        auto [a, e] = std::mismatch(d.actual_.begin(), d.actual_.end(),
                                    d.expected_.begin());
        if (a != d.actual_.end())
            ADD_FAILURE() << "event #" << (a - d.actual_.begin())
                          << " ran (when=" << a->first
                          << "ps, seq=" << a->second
                          << "), reference pops (when=" << e->first
                          << "ps, seq=" << e->second << ")";
        EXPECT_EQ(d.eq_.orderDigest(), d.ref_digest_.d);
        EXPECT_EQ(d.eq_.executed(), d.expected_.size());
        EXPECT_EQ(d.eq_.liveEvents(), 0u);
        // Every kind of operation was genuinely exercised.
        EXPECT_GT(d.warps_, 0u);
        EXPECT_GT(d.cancels_, 0u);
        EXPECT_GT(d.ties_, 0u);
    }
}

TEST(EventQueue, KeyOrderSpansTheWholeTimeRange)
{
    // The biased unsigned key must order times across the full int64
    // range, with FIFO ties at the far end too.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(Time::max(), [&order]() { order.push_back(0); });
    eq.scheduleAt(Time::sec(100000), [&order]() { order.push_back(1); });
    eq.scheduleAt(Time(), [&order]() { order.push_back(2); });
    eq.scheduleAt(Time::max(), [&order]() { order.push_back(3); });
    eq.scheduleAt(Time::ps(1), [&order]() { order.push_back(4); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 0, 3}));
    EXPECT_EQ(eq.now(), Time::max());
}

TEST(EventQueue, FluidWarpPastACancelledKeyIsNotThePast)
{
    // A cancelled event inside the warped span is dead: it must not
    // count as an absolute event left behind in the past.
    EventQueue eq;
    int runs = 0;
    EventHandle dead = eq.scheduleAt(Time::ns(5), []() {});
    eq.scheduleAt(Time::ns(10), [&runs]() { ++runs; });
    eq.cancel(dead);
    std::vector<EventQueue::PendingEvent> snap;
    eq.snapshotPending(snap);
    ASSERT_EQ(snap.size(), 1u);
    eq.fluidWarp(Time::ns(8), {snap[0].key_index});
    EXPECT_EQ(eq.nextEventTime(), Time::ns(18));
    eq.runAll();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(eq.cancelledPending(), 0u);
}

TEST(EventQueue, SeqNearTheKeyLimitStillOrdersFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(Time::ns(5), [&order]() { order.push_back(0); });
    EventQueueTestPeer::setNextSeq(eq, EventQueueTestPeer::maxSeq() - 2);
    eq.scheduleAt(Time::ns(5), [&order]() { order.push_back(1); });
    eq.scheduleAt(Time::ns(1), [&order]() { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
}

TEST(EventQueueDeathTest, SeqBeyondTheKeyLimitIsFatal)
{
    EventQueue eq;
    EventQueueTestPeer::setNextSeq(eq, EventQueueTestPeer::maxSeq() - 1);
    eq.scheduleAt(Time::ns(1), []() {});    // the last orderable seq
    EXPECT_DEATH(eq.scheduleAt(Time::ns(1), []() {}), "heap key");
}

TEST(EventQueueDeathTest, SlotsBeyondTheKeyLimitAreFatal)
{
    EventQueue eq;
    EventQueueTestPeer::setSlotCount(eq, EventQueueTestPeer::maxSlots());
    EXPECT_DEATH(eq.scheduleAt(Time::ns(1), []() {}), "heap key");
}

TEST(RingBuf, FifoAcrossWraparound)
{
    RingBuf<int> rb(8);
    EXPECT_EQ(rb.capacity(), 8u);
    for (int i = 0; i < 6; ++i)
        rb.push_back(i);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(rb.front(), i);
        rb.pop_front();
    }
    // The next pushes wrap past the end of the array.
    for (int i = 6; i < 12; ++i)
        rb.push_back(i);
    EXPECT_EQ(rb.capacity(), 8u);    // exactly full, no growth
    ASSERT_EQ(rb.size(), 8u);
    for (std::size_t i = 0; i < rb.size(); ++i)
        EXPECT_EQ(rb[i], int(4 + i));
    EXPECT_EQ(rb.front(), 4);
    EXPECT_EQ(rb.back(), 11);
}

TEST(RingBuf, GrowthAtPowerOfTwoBoundariesPreservesOrder)
{
    RingBuf<int> rb;
    EXPECT_EQ(rb.capacity(), 0u);
    // Stagger the head so every regrow starts from a wrapped layout.
    for (int i = 0; i < 5; ++i)
        rb.push_back(-1);
    for (int i = 0; i < 5; ++i)
        rb.pop_front();
    int next = 0;
    for (std::size_t target : {std::size_t(8), std::size_t(16),
                               std::size_t(32), std::size_t(64)}) {
        while (rb.size() < target)
            rb.push_back(next++);
        EXPECT_EQ(rb.capacity(), target);
    }
    ASSERT_EQ(rb.size(), 64u);
    for (std::size_t i = 0; i < rb.size(); ++i)
        EXPECT_EQ(rb[i], int(i));
}

TEST(RingBuf, MoveOnlyPayloads)
{
    RingBuf<std::unique_ptr<int>> rb;
    for (int i = 0; i < 20; ++i)    // growth must move, not copy
        rb.emplace_back(std::make_unique<int>(i));
    for (int i = 0; i < 20; ++i) {
        std::unique_ptr<int> p = std::move(rb.front());
        rb.pop_front();
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(*p, i);
    }
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuf, ClearRetainsCapacityForReuse)
{
    RingBuf<int> rb;
    for (int i = 0; i < 100; ++i)
        rb.push_back(i);
    std::size_t cap = rb.capacity();
    EXPECT_EQ(cap, 128u);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.capacity(), cap);    // storage sticks at the high-water mark
    for (int i = 0; i < 100; ++i)
        rb.push_back(i);
    EXPECT_EQ(rb.capacity(), cap);
    EXPECT_EQ(rb.front(), 0);
    EXPECT_EQ(rb.back(), 99);
}

TEST(RingBuf, ReserveRoundsUpToPowerOfTwoAndNeverShrinks)
{
    RingBuf<int> rb;
    rb.reserve(1000);
    EXPECT_EQ(rb.capacity(), 1024u);
    rb.reserve(10);
    EXPECT_EQ(rb.capacity(), 1024u);
}

TEST(RingBuf, MoveTransfersStorage)
{
    RingBuf<int> a(4);
    a.push_back(1);
    a.push_back(2);
    RingBuf<int> b(std::move(a));
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(b.front(), 1);
    RingBuf<int> c;
    c = std::move(b);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.back(), 2);
}

// ---------------------------------------------------------------------------
// DeferredTimer: deadline-deferred wakeups (the event-thinning timer).
// ---------------------------------------------------------------------------

TEST(DeferredTimer, FiresExactlyAtTheArmedDeadline)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    std::vector<Time> fired;
    t.setCallback([&] { fired.push_back(eq.now()); });
    t.armAt(Time::us(10));
    EXPECT_TRUE(t.armed());
    EXPECT_EQ(t.deadline(), Time::us(10));
    eq.runAll();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], Time::us(10));
    EXPECT_FALSE(t.armed());
}

TEST(DeferredTimer, ExtendingTheDeadlineDefersInsteadOfRescheduling)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    std::vector<Time> fired;
    t.setCallback([&] { fired.push_back(eq.now()); });
    t.armAt(Time::us(10));
    // Push the deadline out twice before the original event fires: the
    // pending event is reused (deferral), not cancelled + replaced.
    eq.scheduleAt(Time::us(5), [&t] { t.armAt(Time::us(20)); }, "move");
    eq.scheduleAt(Time::us(15), [&t] { t.armAt(Time::us(30)); }, "move");
    eq.runAll();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], Time::us(30));
    // Both stale wakeups (at 10us and 20us) were absorbed by deferral.
    EXPECT_EQ(t.deferrals(), 2u);
}

TEST(DeferredTimer, ArmingEarlierStillFiresOnTime)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    std::vector<Time> fired;
    t.setCallback([&] { fired.push_back(eq.now()); });
    t.armAt(Time::us(100));
    eq.scheduleAt(Time::us(1), [&t] { t.armAt(Time::us(4)); }, "move");
    eq.runAll();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], Time::us(4));    // never late, never at 100us
}

TEST(DeferredTimer, DisarmSuppressesTheCallback)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    int fires = 0;
    t.setCallback([&] { ++fires; });
    t.armAt(Time::us(10));
    eq.scheduleAt(Time::us(5), [&t] { t.disarm(); }, "stop");
    eq.runAll();
    EXPECT_EQ(fires, 0);
    EXPECT_FALSE(t.armed());
}

TEST(DeferredTimer, ReArmAfterDisarmWorks)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    std::vector<Time> fired;
    t.setCallback([&] { fired.push_back(eq.now()); });
    t.armAt(Time::us(10));
    eq.scheduleAt(Time::us(5), [&t] {
        t.disarm();
        t.armAt(Time::us(8));
    }, "restart");
    eq.runAll();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], Time::us(8));
}

TEST(DeferredTimer, ReArmingFromTheCallbackIsPeriodic)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    std::vector<Time> fired;
    t.setCallback([&] {
        fired.push_back(eq.now());
        if (fired.size() < 3)
            t.armIn(Time::us(10));
    });
    t.armAt(Time::us(10));
    eq.runAll();
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], Time::us(10));
    EXPECT_EQ(fired[1], Time::us(20));
    EXPECT_EQ(fired[2], Time::us(30));
}

TEST(DeferredTimer, DestructorCancelsThePendingEvent)
{
    EventQueue eq;
    int fires = 0;
    {
        DeferredTimer t(eq, "test.timer");
        t.setCallback([&] { ++fires; });
        t.armAt(Time::us(10));
    }
    // The timer is gone; its event must not run into freed state.
    eq.runAll();
    EXPECT_EQ(fires, 0);
}

TEST(DeferredTimerDeathTest, ArmingInThePastPanics)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    t.setCallback([] {});
    eq.scheduleAt(Time::us(10), [&t] {
        EXPECT_DEATH(t.armAt(Time::us(5)), "past");
    }, "probe");
    eq.runAll();
}
