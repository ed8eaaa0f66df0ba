#include "heap_allocs.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

static std::atomic<std::uint64_t> g_heap_allocs{0};

std::uint64_t
heapAllocs()
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t n)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::aligned_alloc(std::size_t(a), (n + std::size_t(a) - 1)
                                                     & ~(std::size_t(a) - 1));
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return ::operator new(n, a);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
