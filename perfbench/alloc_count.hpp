/**
 * @file
 * Heap-allocation counter. alloc_count.cpp replaces the global
 * operator new of the benchmark binary, so every allocation the
 * simulator makes is counted without any change to src/.
 */

#ifndef PERFBENCH_ALLOC_COUNT_HPP
#define PERFBENCH_ALLOC_COUNT_HPP

#include <cstdint>

namespace perfbench {

/** Calls of any operator new since the process started. */
std::uint64_t allocationCount();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_HPP
