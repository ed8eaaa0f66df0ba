/**
 * @file
 * The host-speed reference kernel.
 *
 * Every host-time metric of the benchmark is calibrated: the thread-CPU
 * time of a measured interval is multiplied by kNominalNs / K, where K
 * is the CPU time this kernel took when run on the same thread right
 * next to that interval. A core that runs slower for a while (a busy
 * SMT sibling, a lower clock) slows the kernel and the simulator alike,
 * so the ratio keeps the code's cost and drops most of the machine's.
 *
 * The kernel is an event loop in miniature: a 1024-entry binary heap
 * and dependent random read-modify-writes in a 1 MiB table. The table
 * size sets how hard contention slows the kernel next to the simulator.
 * Measured run to run on a shared 4-core host, the simulator's log-time
 * moved 1.0x (sriov_udp) and 1.3x (pv_netback, sriov_tcp) as far as
 * this kernel's. Against a 256 KiB table it moved 1.4x to 1.8x as far
 * (under-correction); against 4 MiB or more, 0.7x to 0.9x for UDP
 * (over-correction). The kernel includes no header from src/ and links
 * no symbol of it (the calib_links_alone and calib_no_src_symbols tests
 * check), so no change to the simulator can speed up the yardstick.
 */

#ifndef PERFBENCH_CALIB_HPP
#define PERFBENCH_CALIB_HPP

#include <cstdint>

namespace perfbench {

/** Thread-CPU clock (CLOCK_THREAD_CPUTIME_ID), nanoseconds. */
std::int64_t threadCpuNs();

/** Monotonic wall clock, nanoseconds. */
std::int64_t wallNs();

/** The kernel's nominal CPU time: calibrated = measured * kNominalNs / K. */
constexpr double kNominalNs = 2.0e6;

/**
 * Run the reference kernel once (a fixed amount of work, about 2 ms on
 * a 2020s server core) and return its thread-CPU time in nanoseconds.
 * The work is identical on every call; @p checksum receives a value
 * that depends on all of it, so none of it can be optimised away.
 */
std::int64_t runReferenceKernel(std::uint64_t &checksum);

/** The checksum every call of runReferenceKernel() must produce. */
std::uint64_t referenceChecksum();

} // namespace perfbench

#endif // PERFBENCH_CALIB_HPP
