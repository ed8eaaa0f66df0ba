#include "sim/time.hpp"

#include <cinttypes>
#include <cstdio>

namespace sriov::sim {

std::string
Time::toString() const
{
    char buf[64];
    double abs_ps = double(ps_ < 0 ? -ps_ : ps_);
    if (abs_ps >= 1e12) {
        std::snprintf(buf, sizeof(buf), "%.6gs", double(ps_) * 1e-12);
    } else if (abs_ps >= 1e9) {
        std::snprintf(buf, sizeof(buf), "%.6gms", double(ps_) * 1e-9);
    } else if (abs_ps >= 1e6) {
        std::snprintf(buf, sizeof(buf), "%.6gus", double(ps_) * 1e-6);
    } else if (abs_ps >= 1e3) {
        std::snprintf(buf, sizeof(buf), "%.6gns", double(ps_) * 1e-3);
    } else {
        std::snprintf(buf, sizeof(buf), "%" PRId64 "ps", ps_);
    }
    return buf;
}

} // namespace sriov::sim
