/**
 * @file
 * Per-layer host-time attribution for the traced run.
 *
 * LayerTrace is an EventQueue::ExecHook owned by the benchmark: it
 * brackets every executed event with the monotonic clock and charges
 * the callback's duration to the event's tag. Events never nest, so a
 * tag's summed duration is its self time; the part of a slice that no
 * callback covers (heap operations, the run loop, the hook itself) is
 * charged to the event core as sim.queue. Each tag belongs to the src/
 * module that owns its work, so the layer rows sum to the slice total.
 *
 * Spans stay in memory and are written out when the run ends: one
 * span per slice with its per-tag self times and counts, and the raw
 * per-event spans of the first traced slices up to a fixed capacity
 * (preallocated, so tracing allocates nothing while it runs).
 */

#ifndef PERFBENCH_LAYER_TRACE_HPP
#define PERFBENCH_LAYER_TRACE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"

namespace perfbench {

/** The src/ module a tag's work belongs to. */
std::string layerOfTag(const std::string &tag);

class LayerTrace : public sriov::sim::EventQueue::ExecHook
{
  public:
    explicit LayerTrace(std::size_t raw_span_capacity);

    void onEventStart(sriov::sim::Time when, std::uint64_t seq,
                      const char *tag) override;
    void onEventEnd(sriov::sim::Time when, std::uint64_t seq,
                    const char *tag) override;

    /** Open a slice: its clock starts now. */
    void beginSlice();
    /**
     * Close the slice: its wall duration and every tag's self time are
     * multiplied by @p calib (the slice's calibration factor) and added
     * to the totals.
     */
    void endSlice(double calib);

    struct TagTotal
    {
        double self_ns = 0;    ///< calibrated
        std::uint64_t events = 0;
    };
    /** Totals over every closed slice, keyed by tag string. */
    std::map<std::string, TagTotal> tagTotals() const;
    /** Calibrated wall ns of all closed slices. */
    double sliceTotalNs() const { return slice_total_ns_; }
    /** Calibrated slice time no callback covers (the event core). */
    double uncoveredNs() const { return uncovered_ns_; }

    /** Write every span as JSON to @p path; false on I/O failure. */
    bool writeSpans(const std::string &path,
                    const std::string &workload) const;

  private:
    struct TagSlot
    {
        const char *tag = nullptr;
        std::int64_t slice_ns = 0;
        std::uint64_t slice_events = 0;
        TagTotal total;
    };
    struct RawSpan
    {
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::uint32_t slice;
        std::uint32_t tag;
    };
    /** One tag's share of one slice: the slice's child span. */
    struct TagChild
    {
        std::uint32_t tag;
        std::int64_t self_ns;
        std::uint64_t events;
    };
    struct SliceSpan
    {
        std::int64_t start_ns;
        std::int64_t end_ns;
        double calib;
        std::vector<TagChild> children;
    };

    TagSlot &slotFor(const char *tag);

    std::vector<TagSlot> slots_;    ///< one per distinct tag pointer
    std::uint32_t last_slot_ = 0;
    std::int64_t event_start_ = 0;
    std::int64_t slice_start_ = 0;
    std::int64_t covered_ns_ = 0;
    double slice_total_ns_ = 0;
    double uncovered_ns_ = 0;
    std::vector<RawSpan> raw_;
    std::size_t raw_capacity_;
    std::vector<SliceSpan> slices_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYER_TRACE_HPP
