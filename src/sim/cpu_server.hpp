/**
 * @file
 * CpuServer: a FIFO work-conserving server modelling one hardware
 * thread (SMT context) of the testbed machine.
 *
 * All CPU consumption in the simulation — guest packet processing,
 * hypervisor VM-exit handling, device-model emulation, netback packet
 * copies — is expressed as work items submitted to a CpuServer. The
 * server executes items one at a time at its clock rate, so saturation
 * (e.g. the single-threaded netback of Section 6.5) appears naturally
 * as queueing delay, and per-component CPU utilization is simply the
 * accumulated busy time of the servers a component runs on.
 *
 * Work is attributed to tags ("vm3", "xen", "dom0-netback", ...) so
 * benches can report the same breakdowns the paper's figures use. A
 * tag name is interned once into a CpuServer::Tag — a small index into
 * a process-wide name table — and callers on the per-packet path keep
 * the handle, so charging a packet's cycles is an indexed add: no
 * string copy, compare or hash.
 */

#ifndef SRIOV_SIM_CPU_SERVER_HPP
#define SRIOV_SIM_CPU_SERVER_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fluid.hpp"
#include "sim/inplace_fn.hpp"
#include "sim/ring_buf.hpp"
#include "sim/time.hpp"

namespace sriov::sim {

/** Snapshot of a server's cycle accounting, for windowed utilization. */
struct CpuSnapshot
{
    Time busy;
    Time when;
    std::map<std::string, double> cycles_by_tag;
};

class CpuServer
{
  public:
    /**
     * An interned accounting tag. Constructing one from a name looks
     * the name up (by content, under a lock) in a process-wide table
     * and assigns the next index on first sight; resolve it once,
     * outside the per-packet path, and keep it. Indices are dense, so
     * a server's per-tag cell is found by indexing. They depend on the
     * order names were first resolved, so nothing observable (reports,
     * digests, fluid state walks) ever depends on an index: reports
     * key by name and walks follow each server's first-charge order.
     */
    class Tag
    {
      public:
        explicit Tag(std::string_view name);

        /** The tag named @p name, if one was ever resolved. */
        static std::optional<Tag> find(std::string_view name);

        std::uint32_t index() const { return idx_; }
        /** The interned name; the reference stays valid for the
         *  life of the process. */
        const std::string &name() const;

        bool operator==(const Tag &) const = default;

      private:
        friend class CpuServer;

        /** No tag: only the idle server's current_ item holds one. */
        Tag() = default;
        explicit Tag(std::uint32_t idx) : idx_(idx) {}

        std::uint32_t idx_ = UINT32_MAX;
    };

    /**
     * Observation tap for executed work spans (obs::ChromeTraceWriter
     * draws them as per-CPU track slices). Called at work completion
     * with the service interval [start, end]; charge()-d work is
     * instantaneous and produces no span. One tap per server; the tap
     * must outlive the server or be detached first. Disabled cost: one
     * branch per completed work item.
     */
    class SpanTap
    {
      public:
        virtual ~SpanTap() = default;

        virtual void onCpuSpan(const CpuServer &cpu, const std::string &tag,
                               Time start, Time end) = 0;
    };

    CpuServer(EventQueue &eq, std::string name, double hz);

    CpuServer(const CpuServer &) = delete;
    CpuServer &operator=(const CpuServer &) = delete;

    const std::string &name() const { return name_; }
    double hz() const { return hz_; }

    /**
     * Submit @p cycles of work attributed to @p tag. @p on_done (may be
     * empty) runs when the work completes, i.e. after queueing plus
     * service time. The tag enters snapshot() when the work starts
     * service.
     */
    void submit(double cycles, Tag tag, InplaceFn on_done = {});
    /** As above, resolving @p tag by name first (off the hot path). */
    void
    submit(double cycles, std::string_view tag, InplaceFn on_done = {})
    {
        submit(cycles, Tag(tag), std::move(on_done));
    }

    /**
     * Account @p cycles as consumed instantly (no serialization, no
     * completion latency). Used for fine-grained costs that are small
     * relative to the event granularity, where modelling queueing would
     * add nothing but events. The first charge of a tag, even of zero
     * cycles, adds it to snapshot().
     */
    // simlint: hot
    void
    charge(double cycles, Tag tag)
    {
        if (cycles < 0)
            negativeWork("charge");
        busy_ += Time::cycles(cycles, hz_);
        tagCycles(tag) += cycles;
    }
    /** As above, resolving @p tag by name first (off the hot path). */
    void
    charge(double cycles, std::string_view tag)
    {
        charge(cycles, Tag(tag));
    }

    /** Number of work items waiting (excluding the one in service). */
    std::size_t queueDepth() const { return queue_.size(); }
    bool busyNow() const { return in_service_; }

    /** Cumulative busy time since construction. */
    Time busyTime() const { return busy_; }

    CpuSnapshot snapshot() const;

    /**
     * Utilization in [0,1] over the window between @p before and now.
     * Greater than 1 is impossible for submit()-ed work but charge()-d
     * work can oversubscribe; callers treat >1 as saturation.
     */
    double utilizationSince(const CpuSnapshot &before) const;

    /** Cycles consumed under @p tag since @p before. */
    double cyclesSince(const CpuSnapshot &before,
                       const std::string &tag) const;

    void setSpanTap(SpanTap *t) { span_tap_ = t; }
    SpanTap *spanTap() const { return span_tap_; }

    /** Fluid-mode state walk (sim/fluid.hpp): busy time and per-tag
     *  cycles are linear per period; in-flight work is phase-invariant. */
    void fluidVisit(FluidVisitor &v);

    /**
     * Is any queued or in-service item attributed to @p tag? A fluid
     * warp shifts every visited time-point but cannot rewrite values
     * captured inside completion closures, so the fluid director
     * refuses to warp while work whose closure captures per-packet
     * data (netback's grant-copy batches) is in flight.
     */
    bool hasWorkTagged(Tag tag) const;

  private:
    struct Work
    {
        double cycles;
        Tag tag;
        InplaceFn on_done;
        Time start;
    };

    void startNext();
    void finishCurrent();
    [[noreturn]] void negativeWork(const char *what) const;
    /** Accumulator cell for @p tag (registers it on first use). */
    double &
    tagCycles(Tag tag)
    {
        std::uint32_t i = tag.index();
        if (i < slot_of_.size() && slot_of_[i] != 0) [[likely]]
            return cycles_by_tag_[slot_of_[i] - 1].second;
        return registerTag(tag);
    }
    double &registerTag(Tag tag);

    EventQueue &eq_;
    std::string name_;
    double hz_;
    RingBuf<Work> queue_;
    /**
     * The item in service. Kept as a member so the completion event
     * captures only `this` (8 bytes inline in InplaceFn) instead of
     * moving the tag string and completion closure into the event —
     * the server is strictly FIFO, so at most one item is in service.
     */
    Work current_;
    bool in_service_ = false;
    Time busy_;
    /**
     * Per-tag cycle accounting, in first-charge order (the order the
     * fluid state walk visits). slot_of_[tag index] is 1 + the tag's
     * position here, 0 for a tag this server never charged, so the
     * per-packet charge is two indexed loads. snapshot() converts to
     * a name-keyed map on the cold query path.
     */
    std::vector<std::pair<Tag, double>> cycles_by_tag_;
    std::vector<std::uint32_t> slot_of_;
    SpanTap *span_tap_ = nullptr;
};

} // namespace sriov::sim

#endif // SRIOV_SIM_CPU_SERVER_HPP
