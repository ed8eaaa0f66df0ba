#include "layer_trace.hpp"

#include <cstdio>
#include <memory>

#include "calib.hpp"

namespace perfbench {

std::string
layerOfTag(const std::string &tag)
{
    // Tag prefix -> owning module, for every tag the four workloads
    // execute; a new tag lands in "other" until it is mapped here.
    // cpu.done is a CpuServer completion: the VCPU, dom0 and netback
    // work the hypervisor model charges, so it is vmm's row, not the
    // event core's. The interrupt path (MSI-X, LAPIC) runs inline in
    // wire.burst and nic.itr, so intr has no tag of its own.
    static const std::vector<std::pair<std::string, std::string>> kMap{
        {"wire.", "nic"},       {"nic.", "nic"},     {"dma.", "mem"},
        {"netperf.", "guest"},  {"cpu.", "vmm"},     {"driver.", "drivers"},
        {"fluid.", "core"},
    };
    for (const auto &[prefix, layer] : kMap)
        if (tag.rfind(prefix, 0) == 0)
            return layer;
    return "other";
}

LayerTrace::LayerTrace(std::size_t raw_span_capacity)
    : raw_capacity_(raw_span_capacity)
{
    slots_.reserve(256);
    raw_.reserve(raw_span_capacity);
}

LayerTrace::TagSlot &
LayerTrace::slotFor(const char *tag)
{
    if (last_slot_ < slots_.size() && slots_[last_slot_].tag == tag)
        return slots_[last_slot_];
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].tag == tag) {
            last_slot_ = i;
            return slots_[i];
        }
    }
    slots_.push_back(TagSlot{tag, 0, 0, {}});
    last_slot_ = std::uint32_t(slots_.size() - 1);
    return slots_.back();
}

void
LayerTrace::onEventStart(sriov::sim::Time, std::uint64_t, const char *)
{
    event_start_ = wallNs();
}

void
LayerTrace::onEventEnd(sriov::sim::Time, std::uint64_t, const char *tag)
{
    std::int64_t end = wallNs();
    std::int64_t dt = end - event_start_;
    TagSlot &s = slotFor(tag);
    s.slice_ns += dt;
    ++s.slice_events;
    covered_ns_ += dt;
    if (raw_.size() < raw_capacity_)
        raw_.push_back(RawSpan{event_start_, end,
                               std::uint32_t(slices_.size()), last_slot_});
}

void
LayerTrace::beginSlice()
{
    covered_ns_ = 0;
    slice_start_ = wallNs();
}

void
LayerTrace::endSlice(double calib)
{
    std::int64_t end = wallNs();
    SliceSpan span{slice_start_, end, calib, {}};
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
        TagSlot &s = slots_[i];
        if (s.slice_events == 0)
            continue;
        span.children.push_back({i, s.slice_ns, s.slice_events});
        s.total.self_ns += double(s.slice_ns) * calib;
        s.total.events += s.slice_events;
        s.slice_ns = 0;
        s.slice_events = 0;
    }
    slices_.push_back(std::move(span));
    slice_total_ns_ += double(end - slice_start_) * calib;
    uncovered_ns_ += double(end - slice_start_ - covered_ns_) * calib;
}

std::map<std::string, LayerTrace::TagTotal>
LayerTrace::tagTotals() const
{
    // Equal strings may come from distinct literals; merge them.
    std::map<std::string, TagTotal> out;
    for (const TagSlot &s : slots_) {
        TagTotal &t = out[s.tag];
        t.self_ns += s.total.self_ns;
        t.events += s.total.events;
    }
    return out;
}

bool
LayerTrace::writeSpans(const std::string &path,
                       const std::string &workload) const
{
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f)
        return false;
    std::FILE *o = f.get();
    std::fprintf(o, "{\"workload\": \"%s\",\n \"tags\": [", workload.c_str());
    for (std::size_t i = 0; i < slots_.size(); ++i)
        std::fprintf(o, "%s{\"id\": %zu, \"tag\": \"%s\", \"layer\": \"%s\"}",
                     i ? ", " : "", i, slots_[i].tag,
                     layerOfTag(slots_[i].tag).c_str());
    std::fprintf(o, "],\n \"slices\": [\n");
    for (std::size_t i = 0; i < slices_.size(); ++i) {
        const SliceSpan &s = slices_[i];
        std::fprintf(o, "  {\"id\": %zu, \"start_ns\": %lld, \"end_ns\": %lld, "
                        "\"calib\": %.6f, \"children\": [",
                     i, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.calib);
        for (std::size_t k = 0; k < s.children.size(); ++k)
            std::fprintf(o, "%s{\"tag\": %u, \"self_ns\": %lld, \"events\": %llu}",
                         k ? ", " : "", s.children[k].tag,
                         static_cast<long long>(s.children[k].self_ns),
                         static_cast<unsigned long long>(s.children[k].events));
        std::fprintf(o, "]}%s\n", i + 1 < slices_.size() ? "," : "");
    }
    std::fprintf(o, " ],\n \"events\": [\n");
    for (std::size_t i = 0; i < raw_.size(); ++i) {
        const RawSpan &r = raw_[i];
        std::fprintf(o, "  [%u, %u, %lld, %lld]%s\n", r.slice, r.tag,
                     static_cast<long long>(r.start_ns),
                     static_cast<long long>(r.end_ns),
                     i + 1 < raw_.size() ? "," : "");
    }
    std::fprintf(o, " ]}\n");
    return std::fflush(o) == 0 && !std::ferror(o);
}

} // namespace perfbench
