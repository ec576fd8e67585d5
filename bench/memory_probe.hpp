#pragma once

/// \file memory_probe.hpp
/// What a bench or test measures of its own memory, in one place:
///   - a replacement global operator new/delete that counts every heap
///     allocation made anywhere in the process, and the live heap bytes
///     (at the allocator's usable size, so a free subtracts exactly what
///     its allocation added) -- no library instrumentation to drift out
///     of date;
///   - call-site capture for the steady-state allocation gates: once
///     armed, every allocation's backtrace lands in a fixed table (no
///     allocation of its own) that is dumped to stderr on disarm;
///   - resident set size and minor page faults of the process.
///
/// The header DEFINES the replaceable allocation functions, so include
/// it from exactly one translation unit of a binary.

#include <execinfo.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace bacp::memprobe {

namespace detail {

inline std::atomic<std::uint64_t> g_allocs{0};
inline std::atomic<std::int64_t> g_live_bytes{0};
inline std::atomic<bool> g_trace{false};

constexpr std::size_t kTraceSlots = 64;
constexpr int kTraceDepth = 10;
struct TraceSlot {
    void* frames[kTraceDepth] = {};
    int depth = 0;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<bool> used{false};
};
inline TraceSlot g_slots[kTraceSlots];

/// Files the current call stack under its hash (open addressing over
/// the fixed table; stacks beyond its 64 distinct sites are dropped).
inline void record_trace() {
    void* frames[kTraceDepth];
    const int depth = backtrace(frames, kTraceDepth);
    std::uint64_t h = 1469598103934665603ULL;
    for (int i = 2; i < depth; ++i) {
        h = (h ^ reinterpret_cast<std::uintptr_t>(frames[i])) * 1099511628211ULL;
    }
    for (std::size_t probe = 0; probe < kTraceSlots; ++probe) {
        TraceSlot& s = g_slots[(h + probe) % kTraceSlots];
        if (s.used.load(std::memory_order_acquire)) {
            if (s.depth == depth &&
                std::memcmp(s.frames, frames, sizeof(void*) * depth) == 0) {
                s.hits.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            continue;
        }
        bool expected = false;
        if (s.used.compare_exchange_strong(expected, true)) {
            std::memcpy(s.frames, frames, sizeof(void*) * depth);
            s.depth = depth;
            s.hits.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
}

inline void note_alloc(void* p) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    if (g_trace.load(std::memory_order_relaxed)) {
        g_trace.store(false, std::memory_order_relaxed);  // backtrace() may allocate
        record_trace();
        g_trace.store(true, std::memory_order_relaxed);
    }
}

inline void note_free(void* p) {
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
}

}  // namespace detail

/// Heap allocations since process start.
inline std::uint64_t allocs_now() { return detail::g_allocs.load(std::memory_order_relaxed); }

/// Live heap bytes now.
inline std::int64_t live_bytes_now() {
    return detail::g_live_bytes.load(std::memory_order_relaxed);
}

/// Starts capturing allocation call sites when the environment variable
/// \p env_var is set (the benches' *_ALLOC_PROBE switches).
inline void arm_trace_if(const char* env_var) {
    if (std::getenv(env_var) == nullptr) return;
    void* prime[2];
    backtrace(prime, 2);  // libgcc lazy-init allocates; do it now
    detail::g_trace.store(true, std::memory_order_relaxed);
}

/// Stops capturing and, if capture was armed, dumps every distinct call
/// site with its hit count to stderr.
inline void disarm_trace() {
    if (!detail::g_trace.exchange(false, std::memory_order_relaxed)) return;
    for (detail::TraceSlot& s : detail::g_slots) {
        if (!s.used.load(std::memory_order_acquire)) continue;
        std::fprintf(stderr, "---- %llu allocs from:\n",
                     static_cast<unsigned long long>(s.hits.load()));
        backtrace_symbols_fd(s.frames, s.depth, 2);
    }
}

/// Resident set size now, in KB (/proc/self/statm; 0 where unavailable).
inline double rss_kb_now() {
    long total = 0;
    long resident = 0;
    if (FILE* f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &total, &resident) != 2) resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

/// Minor page faults of the process so far.
inline std::uint64_t minflt_now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_minflt);
}

}  // namespace bacp::memprobe

void* operator new(std::size_t size) {
    void* p = std::malloc(size ? size : 1);
    if (p == nullptr) throw std::bad_alloc{};
    bacp::memprobe::detail::note_alloc(p);
    return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    const auto a = static_cast<std::size_t>(align);
    void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1));
    if (p == nullptr) throw std::bad_alloc{};
    bacp::memprobe::detail::note_alloc(p);
    return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}
void operator delete(void* p) noexcept {
    if (p == nullptr) return;
    bacp::memprobe::detail::note_free(p);
    std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { ::operator delete(p); }
