#pragma once

/// \file probe.hpp
/// Measurement plumbing shared by every workload: a span tracer with a
/// preallocated buffer, process accounting (rusage, RSS, the counting
/// allocator), and the report a workload fills in.

#include <cstdint>
#include <string>
#include <time.h>
#include <vector>

namespace perfbench {

// ---- clocks ----------------------------------------------------------------

inline std::int64_t wall_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double wall_s() { return static_cast<double>(wall_ns()) * 1e-9; }

// ---- process accounting ------------------------------------------------------

/// Heap allocations made so far by this process (counting operator new).
std::uint64_t allocs_now();

struct Usage {
    double user_s = 0;
    double sys_s = 0;
    std::uint64_t minflt = 0;
    double cpu_s() const { return user_s + sys_s; }
};

/// getrusage(RUSAGE_SELF) snapshot.
Usage usage_now();
Usage operator-(const Usage& a, const Usage& b);
Usage& operator+=(Usage& a, const Usage& b);

/// Current resident set, from /proc/self/statm.
double rss_kb_now();
/// Peak resident set (ru_maxrss).
double peak_rss_kb();

// ---- tracing -----------------------------------------------------------------

/// Every boundary the benchmark times.  Spans nest: a poll span is the
/// parent of the transport and decode spans issued inside it.
enum class SpanName : std::uint16_t {
    ServerPoll,    // Server::poll_shard
    FleetPoll,     // ClientFleet::poll
    EndpointPoll,  // NetEndpoint::poll (and start)
    Send,          // Transport::send_batch / send_batch_to, through the decorator
    Recv,          // Transport::recv_batch, through the decorator
    Decode,        // wire::decode_view of one received datagram
    Idle,          // the bench loop waiting for a socket or a timer
    DesRun,        // one discrete-event simulation run
    kCount,
};

const char* span_name(SpanName name);

/// One recorded span.  `parent` indexes the span buffer (kNoParent at
/// the top level); conn/seq identify the message a Decode span carried.
struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t seq = 0;
    std::uint32_t conn = 0;
    std::uint32_t parent = 0;
    SpanName name = SpanName::kCount;
};

inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

/// Per-name totals, kept online so they stay exact when the span buffer
/// is full: a span's self time is its duration minus the time covered by
/// its children.
struct SpanTotals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
};

/// Single-threaded span recorder.  Off (the untraced run), open/close
/// are one branch each.  On, every span lands in a buffer reserved up
/// front, so recording never allocates; spans past its capacity are
/// counted as dropped but still feed the totals.
class Tracer {
public:
    bool on() const { return on_; }
    /// True once enable() ran: this is the traced run.
    bool enabled() const { return enabled_; }
    void enable(std::size_t capacity);
    /// Stops (true) or resumes (false) recording, for work outside the
    /// traced measurement such as a replay check.  No effect unless
    /// enabled; call only with no span open.
    void pause(bool paused) { on_ = enabled_ && !paused; }

    void open(SpanName name) {
        if (!on_) return;
        open_slow(name);
    }
    void close() {
        if (!on_) return;
        close_slow();
    }
    /// Sets (conn, seq) on the innermost open span, for message spans
    /// whose identity is known only once the frame is decoded.
    void tag(std::uint32_t conn, std::uint64_t seq) {
        if (!on_ || stack_.empty()) return;
        const std::uint32_t index = stack_.back().index;
        if (index != kNoParent) {
            spans_[index].conn = conn;
            spans_[index].seq = seq;
        }
    }

    const SpanTotals& totals(SpanName name) const {
        return totals_[static_cast<std::size_t>(name)];
    }
    /// Sum of the durations of the top-level spans.
    std::int64_t top_level_ns() const { return top_level_ns_; }
    std::size_t recorded() const { return spans_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    /// Writes the span buffer as a small text header plus raw Span
    /// records; returns false on an I/O error.
    bool write(const std::string& path) const;

private:
    struct Open {
        SpanName name;
        std::int64_t start_ns;
        std::int64_t child_ns;
        std::uint32_t index;  // into spans_, or kNoParent when dropped
    };
    void open_slow(SpanName name);
    void close_slow();

    bool enabled_ = false;
    bool on_ = false;
    std::vector<Span> spans_;
    std::vector<Open> stack_;
    SpanTotals totals_[static_cast<std::size_t>(SpanName::kCount)] = {};
    std::int64_t top_level_ns_ = 0;
    std::uint64_t dropped_ = 0;
};

Tracer& tracer();

/// RAII span on the process tracer; \p enabled = false records nothing.
class Scope {
public:
    explicit Scope(SpanName name, bool enabled = true) : open_(enabled && tracer().on()) {
        if (open_) tracer().open(name);
    }
    ~Scope() {
        if (open_) tracer().close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    bool open_;
};

// ---- results -----------------------------------------------------------------

/// What one workload run measured.  Metric names are those BENCHMARK.json
/// lists; main() prints the end-to-end set on an untraced run and the
/// per-layer set on a traced one.
struct Report {
    struct Metric {
        std::string name;
        double value = 0;
    };

    std::uint64_t attempted = 0;  // messages the run set out to deliver
    std::uint64_t failed = 0;     // not delivered exactly once, verified
    /// Hard failures: a payload mismatch, a replay divergence, a broken
    /// ledger.  Any entry makes the command exit nonzero.
    std::vector<std::string> errors;
    std::vector<Metric> metrics;
    /// Human-readable lines printed before the result (run metadata,
    /// ledgers, sample counts).
    std::vector<std::string> notes;

    void set(const std::string& name, double value);
    double get(const std::string& name) const;
    void note(const std::string& line) { notes.push_back(line); }
    void error(const std::string& line) { errors.push_back(line); }
};

/// Median of \p values (0 when empty).
double median(std::vector<double> values);
/// Exact q-quantile (nearest rank) of \p samples, which it reorders.
double quantile(std::vector<std::int64_t>& samples, double q);

/// printf into a std::string.
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Settings every workload receives.
struct RunSpec {
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool quick = false;
};

}  // namespace perfbench
