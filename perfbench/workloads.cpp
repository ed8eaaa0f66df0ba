#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "sim/log.hpp"
#include "sim/shard.hpp"
#include "sim/thinning.hpp"

namespace perfbench {

using sriov::core::Testbed;
using sriov::sim::FluidMode;
using sriov::sim::Time;

namespace {

// Slices must not change the schedule (every run checks that a sliced
// round matches one unsliced run). Exact-mode schedules do not depend
// on where runUntil() stops. Fluid warps do: udp_warp's slices are
// whole seconds from a whole-second warm-up, which certifies the same
// warps as one run; after a 0.5 s warm-up, 1 s slices no longer do.
// The goodput bands are fig15's (9.57 Gb/s, 6%) and fig09's (940 Mb/s
// per port, 7%).
const std::vector<WorkloadSpec> &
specs()
{
    static const std::vector<WorkloadSpec> all{
        {"sriov_udp", Testbed::NetMode::Sriov, false, true, 60,
         FluidMode::Off, Time::ms(200), Time::ms(10), 80, 9.57, 6},
        {"pv_netback", Testbed::NetMode::Pv, false, false, 60,
         FluidMode::Off, Time::ms(200), Time::ms(10), 80, 0, 0},
        {"sriov_tcp", Testbed::NetMode::Sriov, true, false, 20,
         FluidMode::Off, Time::ms(200), Time::ms(10), 80, 9.4, 7},
        {"udp_warp", Testbed::NetMode::Sriov, false, true, 20,
         FluidMode::On, Time::sec(1), Time::sec(1), 58, 9.57, 6},
    };
    return all;
}

std::uint64_t
splitmix(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// The seed's menus. Offsets stagger the streams' first frames. Split
// patterns divide a port's line rate among its guests, with weights
// normalised per port, so every port is still offered line rate: even,
// or half the guests at twice the rate of the other half (either
// half). The port's send grid then keeps a short hyperperiod, so fluid
// warps still certify (a 5:3 split never does). The seed shuffles a
// fixed mix of patterns over the ports: the ports are identical, so the
// total work barely depends on the seed, while the arrangement does.
constexpr std::array<std::int64_t, 4> kStartOffsetUs{0, 5, 13, 37};
constexpr std::array<unsigned, 10> kPortPatterns{0, 0, 0, 0, 1, 1, 1,
                                                 2, 2, 2};

double
splitWeight(unsigned pattern, unsigned idx, unsigned per_port)
{
    const bool first_half = 2 * idx < per_port;
    switch (pattern) {
    case 1:
        return first_half ? 2.0 : 1.0;
    case 2:
        return first_half ? 1.0 : 2.0;
    default:
        return 1.0;
    }
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : specs())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> out;
    for (const WorkloadSpec &w : specs())
        out.push_back(w.name);
    return out;
}

std::uint64_t
Bed::deliveredPackets() const
{
    std::uint64_t n = 0;
    for (const auto *r : rx)
        n += r->rxPackets();
    return n;
}

double
Bed::takeGoodputBps()
{
    double bps = 0;
    for (auto *r : rx)
        bps += r->takeThroughputBps();
    return bps;
}

Bed
buildBed(const WorkloadSpec &w, std::uint64_t seed)
{
    sriov::sim::setLogLevel(sriov::sim::LogLevel::Quiet);
    sriov::sim::setThinning(true);
    sriov::sim::setShardCount(0);
    sriov::sim::setFluidMode(w.fluid);

    Testbed::Params p;
    p.num_ports = 10;
    p.opts = sriov::core::OptimizationSet::maskEoi();
    p.itr = "adaptive";
    p.netback_threads = 4;

    Bed bed;
    bed.tb = std::make_unique<Testbed>(p);
    Testbed &tb = *bed.tb;
    for (unsigned i = 0; i < w.guests; ++i)
        tb.addGuest(sriov::vmm::DomainType::Hvm, w.mode);

    std::uint64_t rng = seed;
    const unsigned per_port = w.guests / p.num_ports;
    std::vector<unsigned> pattern(p.num_ports);
    for (unsigned port = 0; port < p.num_ports; ++port)
        pattern[port] =
            w.seeded_split ? kPortPatterns[port % kPortPatterns.size()] : 0;
    for (unsigned port = p.num_ports; port > 1; --port)    // Fisher-Yates
        std::swap(pattern[port - 1], pattern[splitmix(rng) % port]);
    std::vector<std::int64_t> offset_us(w.guests);
    for (std::int64_t &o : offset_us)
        o = kStartOffsetUs[splitmix(rng) % kStartOffsetUs.size()];

    // Guest i sits on port i % ports as its (i / ports)-th guest.
    std::vector<double> rate(w.guests);
    for (unsigned port = 0; port < p.num_ports; ++port) {
        double sum = 0;
        for (unsigned k = 0; k < per_port; ++k)
            sum += splitWeight(pattern[port], k, per_port);
        for (unsigned k = 0; k < per_port; ++k)
            rate[k * p.num_ports + port] =
                p.line_bps * splitWeight(pattern[port], k, per_port) / sum;
    }

    std::vector<unsigned> order(w.guests);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
        return offset_us[a] < offset_us[b];
    });
    for (unsigned i : order) {
        Time due = Time::us(offset_us[i]);
        if (due > tb.now())
            tb.run(due - tb.now());
        Testbed::Guest &g = tb.guest(i);
        if (w.tcp)
            tb.startTcpToGuest(g);
        else
            tb.startUdpToGuest(g, rate[i]);
        bed.rx.push_back(g.rx.get());
    }
    return bed;
}

} // namespace perfbench
