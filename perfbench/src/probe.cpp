#include "probe.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <new>

// ---- counting allocator hook (the scheme E20-E25 use) ---------------------
//
// Every workload drives the program from one thread, so a plain counter
// suffices.

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
    ++g_allocs;
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    ++g_allocs;
    const auto a = static_cast<std::size_t>(align);
    if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
    throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocs_now() { return g_allocs; }

namespace {
double tv_s(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

Usage usage_now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return Usage{tv_s(ru.ru_utime), tv_s(ru.ru_stime),
                 static_cast<std::uint64_t>(ru.ru_minflt)};
}

Usage operator-(const Usage& a, const Usage& b) {
    return Usage{a.user_s - b.user_s, a.sys_s - b.sys_s, a.minflt - b.minflt};
}

Usage& operator+=(Usage& a, const Usage& b) {
    a.user_s += b.user_s;
    a.sys_s += b.sys_s;
    a.minflt += b.minflt;
    return a;
}

double rss_kb_now() {
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr) return 0;
    unsigned long size = 0, resident = 0;
    const int got = std::fscanf(f, "%lu %lu", &size, &resident);
    std::fclose(f);
    if (got != 2) return 0;
    return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double peak_rss_kb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

// ---- tracer -----------------------------------------------------------------

const char* span_name(SpanName name) {
    switch (name) {
        case SpanName::ServerPoll: return "server.poll_shard";
        case SpanName::FleetPoll: return "fleet.poll";
        case SpanName::EndpointPoll: return "endpoint.poll";
        case SpanName::Send: return "transport.send_batch";
        case SpanName::Recv: return "transport.recv_batch";
        case SpanName::Decode: return "wire.decode_view";
        case SpanName::Idle: return "bench.idle_wait";
        case SpanName::DesRun: return "sim.run";
        case SpanName::kCount: break;
    }
    return "?";
}

void Tracer::enable(std::size_t capacity) {
    enabled_ = true;
    on_ = true;
    spans_.reserve(capacity);
    stack_.reserve(16);
}

void Tracer::open_slow(SpanName name) {
    std::uint32_t index = kNoParent;
    if (spans_.size() < spans_.capacity()) {
        index = static_cast<std::uint32_t>(spans_.size());
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? kNoParent : stack_.back().index;
        spans_.push_back(s);
    } else {
        ++dropped_;
    }
    stack_.push_back(Open{name, wall_ns(), 0, index});
}

void Tracer::close_slow() {
    const std::int64_t end = wall_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = end - o.start_ns;
    SpanTotals& t = totals_[static_cast<std::size_t>(o.name)];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - o.child_ns;
    if (stack_.empty()) {
        top_level_ns_ += duration;
    } else {
        stack_.back().child_ns += duration;
    }
    if (o.index != kNoParent) {
        spans_[o.index].start_ns = o.start_ns;
        spans_[o.index].end_ns = end;
    }
}

bool Tracer::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    // Header: one line naming the record layout and the span-name codes.
    std::fprintf(f, "perfbench-spans v1 records=%zu dropped=%llu record_bytes=%zu names=",
                 spans_.size(), static_cast<unsigned long long>(dropped_), sizeof(Span));
    for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount); ++i) {
        std::fprintf(f, "%s%s", i ? "," : "", span_name(static_cast<SpanName>(i)));
    }
    std::fputc('\n', f);
    const bool ok = spans_.empty() ||
                    std::fwrite(spans_.data(), sizeof(Span), spans_.size(), f) == spans_.size();
    return std::fclose(f) == 0 && ok;
}

Tracer& tracer() {
    static Tracer t;
    return t;
}

// ---- results -----------------------------------------------------------------

void Report::set(const std::string& name, double value) {
    for (Metric& m : metrics) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    metrics.push_back(Metric{name, value});
}

double Report::get(const std::string& name) const {
    for (const Metric& m : metrics) {
        if (m.name == name) return m.value;
    }
    return 0;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double quantile(std::vector<std::int64_t>& samples, double q) {
    if (samples.empty()) return 0;
    const auto rank = std::min(
        static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1) + 0.5),
        samples.size() - 1);
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank),
                     samples.end());
    return static_cast<double>(samples[rank]);
}

std::string fmt(const char* format, ...) {
    char buf[512];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

}  // namespace perfbench
