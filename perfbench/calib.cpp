#include "calib.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <time.h>

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = (1024 * 1024) / sizeof(std::uint64_t);
constexpr std::size_t kHeapSize = 1024;
constexpr int kIterations = 25000;

// Static, so a kernel call allocates nothing and the working set stays
// at one fixed place.
std::array<std::uint64_t, kTableWords> table;
std::array<std::uint64_t, kHeapSize> heap;

std::uint64_t
splitmix(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::int64_t
clockNs(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return std::int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::uint64_t
kernelBody()
{
    std::uint64_t s = 0x5eed;
    for (auto &w : table)
        w = splitmix(s);
    for (auto &h : heap)
        h = splitmix(s) >> 40;
    std::make_heap(heap.begin(), heap.end(), std::greater<>());

    // An event loop in miniature: pop the earliest key, do a dependent
    // random read-modify-write in the table, push a later key.
    std::uint64_t acc = 0;
    for (int i = 0; i < kIterations; ++i) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        std::uint64_t now = heap.back();
        std::uint64_t &w = table[(now ^ acc) % kTableWords];
        w = w * 6364136223846793005ull + now;
        acc += w >> 33;
        heap.back() = now + 1 + (w & 0xffff);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    return acc ^ heap.front();
}

} // namespace

std::int64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t
wallNs()
{
    return clockNs(CLOCK_MONOTONIC);
}

std::int64_t
runReferenceKernel(std::uint64_t &checksum)
{
    std::int64_t t0 = threadCpuNs();
    checksum = kernelBody();
    return threadCpuNs() - t0;
}

std::uint64_t
referenceChecksum()
{
    static const std::uint64_t sum = kernelBody();
    return sum;
}

} // namespace perfbench
