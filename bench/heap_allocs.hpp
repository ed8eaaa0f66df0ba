/**
 * @file
 * Program-wide heap-allocation counter for bench_microkernel.
 * heap_allocs.cpp replaces the global operator new of the binary, so
 * the event-queue benches can prove that the inline-capture fast path
 * performs zero per-event allocations (the InplaceFn contract). The
 * replacement lives in its own translation unit so the compiler never
 * inlines it into a caller and mistakes its malloc/free pairing for a
 * mismatched new/delete.
 */

#ifndef SRIOV_BENCH_HEAP_ALLOCS_HPP
#define SRIOV_BENCH_HEAP_ALLOCS_HPP

#include <cstdint>

/** Calls of any operator new since the process started. */
std::uint64_t heapAllocs();

#endif // SRIOV_BENCH_HEAP_ALLOCS_HPP
