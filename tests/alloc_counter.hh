/**
 * @file
 * Heap-allocation counter for one test binary.
 *
 * Include this header in exactly one source file of a test binary. It
 * replaces every non-aligned form of the global operator new and
 * delete, so a test can check that a steady stream of work never
 * reaches the allocator. Each block is allocated and released through
 * the malloc/free pair (ASan checks the pairing).
 */

#ifndef CORONA_TESTS_ALLOC_COUNTER_HH
#define CORONA_TESTS_ALLOC_COUNTER_HH

#include <atomic>
#include <cstdlib>
#include <new>

namespace corona::test {

/** Heap allocations this binary has made so far. */
inline std::atomic<std::size_t> allocations{0};

inline void *
countedAlloc(std::size_t bytes) noexcept
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes == 0 ? 1 : bytes);
}

inline void *
countedNew(std::size_t bytes)
{
    if (void *block = countedAlloc(bytes))
        return block;
    throw std::bad_alloc();
}

} // namespace corona::test

void *
operator new(std::size_t bytes)
{
    return corona::test::countedNew(bytes);
}
void *
operator new[](std::size_t bytes)
{
    return corona::test::countedNew(bytes);
}
void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return corona::test::countedAlloc(bytes);
}
void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return corona::test::countedAlloc(bytes);
}
void operator delete(void *block) noexcept { std::free(block); }
void operator delete[](void *block) noexcept { std::free(block); }
void operator delete(void *block, std::size_t) noexcept { std::free(block); }
void operator delete[](void *block, std::size_t) noexcept
{
    std::free(block);
}
void
operator delete(void *block, const std::nothrow_t &) noexcept
{
    std::free(block);
}
void
operator delete[](void *block, const std::nothrow_t &) noexcept
{
    std::free(block);
}

#endif // CORONA_TESTS_ALLOC_COUNTER_HH
