/**
 * @file
 * The benchmark's four workloads, built through the public
 * core::Testbed API. All run the legacy single-queue testbed with
 * thinning on, in one thread: HVM guests with the mask+EOI
 * optimisations and adaptive ITR, ten 1 GbE ports, each port offered
 * line rate.
 *
 *  - sriov_udp:  60 SR-IOV guests, paced UDP, fluid off (Fig. 15 shape).
 *                The VF datapath (nic/mem/intr) and the event core.
 *  - pv_netback: 60 PV guests behind 4 netback threads (Fig. 17 shape).
 *                Netback grant copies and VCPU work (drivers/vmm).
 *  - sriov_tcp:  20 SR-IOV guests, one ACK-clocked TCP stream each.
 *                Same layers as sriov_udp, but guest TX beside RX,
 *                DMA in both directions and RTO timers live.
 *  - udp_warp:   20 SR-IOV UDP guests at fluid on over tens of
 *                simulated seconds (bench_longrun shape). The fluid
 *                probe/certify/apply layer.
 *
 * The seed draws each guest's start offset and, for the SR-IOV UDP
 * workloads, how each port's line rate is split among its guests, both
 * from small fixed menus, so every seed keeps its workload's character.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "sim/fluid.hpp"
#include "sim/time.hpp"

namespace perfbench {

struct WorkloadSpec
{
    std::string name;
    sriov::core::Testbed::NetMode mode;
    bool tcp;
    /** Does the seed split each port's line rate unevenly? Not for
     *  TCP (its rates are ACK-clocked) nor PV: there a 2:1 split moves
     *  the netback backlog, and with it peak RSS, by up to 10%. */
    bool seeded_split;
    unsigned guests;
    sriov::sim::FluidMode fluid;
    /** Simulated time run before the measured window (not measured). */
    sriov::sim::Time warmup;
    /** One timed slice of simulated time. */
    sriov::sim::Time slice;
    /** Slices per round: the measured window is slice * slices. */
    unsigned slices;
    /** SR-IOV goodput must lie within band_pct of expect_gbps (the
     *  figure benches' line-rate band); 0 disables the check. */
    double expect_gbps;
    double band_pct;
};

/** The named workload, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Every workload name, in declaration order. */
std::vector<std::string> workloadNames();

/** One built testbed with its streams started. */
struct Bed
{
    std::unique_ptr<sriov::core::Testbed> tb;
    /** The guests' stream receivers (delivered packets). */
    std::vector<sriov::guest::StreamReceiver *> rx;

    std::uint64_t deliveredPackets() const;
    /** Re-mark every receiver's throughput window; returns the
     *  aggregate goodput since the previous mark, bits/s. */
    double takeGoodputBps();
};

/**
 * Set the process-global simulator switches for @p w (thinning on,
 * legacy engine, the workload's fluid mode), then build the testbed,
 * add the guests and start the streams at their seeded offsets.
 */
Bed buildBed(const WorkloadSpec &w, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
