#include "sim/cpu_server.hpp"

#include <mutex>
#include <utility>

#include "sim/log.hpp"

namespace sriov::sim {

namespace {

/**
 * The process-wide tag names. Sharded runs resolve tags from worker
 * threads, so lookups lock; resolution is a setup-time cost, never a
 * per-packet one. names[i] points at tag i's key in the map, whose
 * nodes never move, so a name's reference outlives the lock.
 */
struct TagTable
{
    std::mutex mu;
    std::map<std::string, std::uint32_t, std::less<>> index;
    std::vector<const std::string *> names;
};

TagTable &
tagTable()
{
    static TagTable t;
    return t;
}

} // namespace

CpuServer::Tag::Tag(std::string_view name)
{
    TagTable &t = tagTable();
    std::lock_guard<std::mutex> lock(t.mu);
    auto it = t.index.find(name);
    if (it == t.index.end()) {
        it = t.index.emplace(std::string(name),
                             std::uint32_t(t.names.size()))
                 .first;
        t.names.push_back(&it->first);
    }
    idx_ = it->second;
}

std::optional<CpuServer::Tag>
CpuServer::Tag::find(std::string_view name)
{
    TagTable &t = tagTable();
    std::lock_guard<std::mutex> lock(t.mu);
    auto it = t.index.find(name);
    if (it == t.index.end())
        return std::nullopt;
    return Tag(it->second);
}

const std::string &
CpuServer::Tag::name() const
{
    TagTable &t = tagTable();
    std::lock_guard<std::mutex> lock(t.mu);
    return *t.names[idx_];
}

CpuServer::CpuServer(EventQueue &eq, std::string name, double hz)
    : eq_(eq), name_(std::move(name)), hz_(hz)
{
    if (hz_ <= 0)
        fatal("CpuServer %s: non-positive clock %f", name_.c_str(), hz_);
}

// simlint: hot
void
CpuServer::submit(double cycles, Tag tag, InplaceFn on_done)
{
    if (cycles < 0)
        negativeWork("work submitted");
    // simlint:allow(hot-path-alloc): RingBuf warm-up growth only
    queue_.push_back(Work{cycles, tag, std::move(on_done), Time()});
    if (!in_service_)
        startNext();
}

void
CpuServer::negativeWork(const char *what) const
{
    panic("negative %s on %s", what, name_.c_str());
}

double &
CpuServer::registerTag(Tag tag)
{
    if (tag.index() >= slot_of_.size())
        slot_of_.resize(tag.index() + 1, 0);
    cycles_by_tag_.emplace_back(tag, 0.0);
    slot_of_[tag.index()] = std::uint32_t(cycles_by_tag_.size());
    return cycles_by_tag_.back().second;
}

void
CpuServer::startNext()
{
    if (queue_.empty()) {
        in_service_ = false;
        return;
    }
    in_service_ = true;
    current_ = std::move(queue_.front());
    queue_.pop_front();
    Time service = Time::cycles(current_.cycles, hz_);
    busy_ += service;
    tagCycles(current_.tag) += current_.cycles;
    current_.start = eq_.now();
    eq_.scheduleIn(service, [this]() { finishCurrent(); }, "cpu.done");
}

void
CpuServer::finishCurrent()
{
    // Move the item out first: the completion closure may submit more
    // work (reentrancy), and startNext() overwrites current_.
    Work w = std::move(current_);
    if (span_tap_ != nullptr)
        span_tap_->onCpuSpan(*this, w.tag.name(), w.start, eq_.now());
    if (w.on_done)
        w.on_done();
    startNext();
}

void
CpuServer::fluidVisit(FluidVisitor &v)
{
    v.time("cpu.busy", busy_);
    for (auto &[tag, cycles] : cycles_by_tag_) {
        (void)tag;
        v.f64("cpu.tag_cycles", cycles);
    }
    v.inv("cpu.in_service", in_service_ ? 1 : 0);
    if (in_service_) {
        v.f64("cpu.cur_cycles", current_.cycles);
        v.time("cpu.cur_start", current_.start);
    }
    v.inv("cpu.qdepth", queue_.size());
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        v.f64("cpu.q_cycles", queue_[i].cycles);
        v.time("cpu.q_start", queue_[i].start);
    }
}

bool
CpuServer::hasWorkTagged(Tag tag) const
{
    if (in_service_ && current_.tag == tag)
        return true;
    for (std::size_t i = 0; i < queue_.size(); ++i)
        if (queue_[i].tag == tag)
            return true;
    return false;
}

CpuSnapshot
CpuServer::snapshot() const
{
    std::map<std::string, double> by_tag;
    for (const auto &[tag, cycles] : cycles_by_tag_)
        by_tag.emplace(tag.name(), cycles);
    return CpuSnapshot{busy_, eq_.now(), std::move(by_tag)};
}

double
CpuServer::utilizationSince(const CpuSnapshot &before) const
{
    Time window = eq_.now() - before.when;
    if (window <= Time())
        return 0.0;
    return (busy_ - before.busy).toSeconds() / window.toSeconds();
}

double
CpuServer::cyclesSince(const CpuSnapshot &before,
                       const std::string &tag) const
{
    double now_v = 0.0;
    if (auto t = Tag::find(tag);
        t && t->index() < slot_of_.size() && slot_of_[t->index()] != 0)
        now_v = cycles_by_tag_[slot_of_[t->index()] - 1].second;
    auto old_it = before.cycles_by_tag.find(tag);
    double old_v = old_it == before.cycles_by_tag.end() ? 0.0
                                                        : old_it->second;
    return now_v - old_v;
}

} // namespace sriov::sim
