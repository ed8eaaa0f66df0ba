#include "sim/trace.hpp"

#include <cstdarg>
#include <cstdio>

namespace sriov::sim {

const char *
traceCatName(TraceCat c)
{
    switch (c) {
      case TraceCat::Irq: return "irq";
      case TraceCat::Nic: return "nic";
      case TraceCat::Driver: return "driver";
      case TraceCat::Backend: return "backend";
      case TraceCat::Migration: return "migration";
      case TraceCat::Count: break;
    }
    return "?";
}

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::enableAll()
{
    for (auto &e : enabled_)
        e = true;
}

void
Tracer::disableAll()
{
    for (auto &e : enabled_)
        e = false;
}

bool
Tracer::anyEnabled() const
{
    for (bool e : enabled_) {
        if (e)
            return true;
    }
    return false;
}

void
Tracer::record(TraceCat c, std::string text)
{
    if (!enabled_[unsigned(c)])
        return;
    ++total_;
    if (records_.size() >= capacity_) {
        records_.pop_front();
        ++dropped_;
    }
    const Time *clk = clock();
    Time when = clk != nullptr ? *clk : Time();
    records_.push_back(TraceRecord{when, c, std::move(text)});
}

void
Tracer::recordf(TraceCat c, const char *fmt, ...)
{
    if (!enabled_[unsigned(c)])
        return;
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    record(c, buf);
}

void
Tracer::clear()
{
    records_.clear();
    total_ = 0;
    dropped_ = 0;
}

std::vector<const TraceRecord *>
Tracer::ofCategory(TraceCat c) const
{
    std::vector<const TraceRecord *> out;
    for (const auto &r : records_) {
        if (r.cat == c)
            out.push_back(&r);
    }
    return out;
}

std::string
Tracer::toString() const
{
    std::string out;
    for (const auto &r : records_) {
        out += '[';
        out += r.when.toString();
        out += "] ";
        out += traceCatName(r.cat);
        out += ": ";
        out += r.text;
        out += '\n';
    }
    return out;
}

} // namespace sriov::sim
