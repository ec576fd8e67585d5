#pragma once

/// \file workloads.hpp
/// The four workloads and the accounting they share.  Each runs units of
/// work (one complete transfer each) until the run's time is spent, and
/// reports through finish_report() so every workload defines its
/// end-to-end metrics the same way.

#include <cstdint>
#include <string>
#include <vector>

#include "probe.hpp"
#include "sim/metrics.hpp"
#include "timed_transport.hpp"

namespace perfbench {

Report run_fleet(const RunSpec& spec);
Report run_bulk(const RunSpec& spec);
Report run_duplex(const RunSpec& spec);
Report run_des(const RunSpec& spec);

/// What a workload accumulates over its units.  msgs_per_s and
/// cpu_us_per_msg pool every unit: the machine's speed drifts over
/// seconds, and a pooled figure averages that drift over the whole run.
/// The ack percentiles are medians of the units' percentiles, so one
/// unit's stall does not move a run's figure, unless pool_acks is set:
/// then they are percentiles of all the run's samples together, for a
/// workload whose run holds only a few long units.
struct Totals {
    /// Records one finished unit: \p delivered messages (exactly once,
    /// verified and acked) in \p wall_s of measured loop using \p cpu,
    /// with ack latencies \p ack_ns.
    void add_unit(std::uint64_t delivered, double wall_s, const Usage& cpu,
                  std::vector<std::int64_t> ack_ns);
    std::size_t units() const { return unit_ack_p50_ns.size(); }

    std::uint64_t attempted = 0;  // messages the units set out to move
    std::uint64_t delivered = 0;  // delivered exactly once, verified, and acked
    double wall_s = 0;            // measured loops only, set-up excluded
    Usage cpu;                    // over the measured loops
    Usage whole;                  // set-up included (page faults per session)
    std::uint64_t ack_samples = 0;
    bool pool_acks = false;
    std::vector<std::int64_t> pooled_ack_ns;  // every unit's samples, if pool_acks
    std::vector<double> unit_ack_p50_ns;
    std::vector<double> unit_ack_p90_ns;
    std::vector<double> unit_ack_p99_ns;
    std::uint64_t dgrams = 0;  // datagrams (or channel frames) sent, both directions
    std::vector<double> setups_s;
    std::uint64_t steady_allocs = 0;
    std::uint64_t steady_dgrams = 0;
    std::size_t sessions = 1;  // sessions held at the peak
    /// Resident-set growth from building the measured sessions to the
    /// end of their run (the first unit, on a fresh heap).
    double session_rss_kb = 0;
};

/// Sets the end-to-end metrics and the process/trace per-layer metrics
/// from \p t, and the result's attempted/failed counts.
void finish_report(Report& r, Totals& t);

/// Transport-layer per-layer metrics from the decorators' counts, both
/// sides' net::Metrics and the tracer (fleet and bulk).
void report_transport(Report& r, const IoCounts& io, const bacp::net::Metrics& side_a,
                      const bacp::net::Metrics& side_b, std::uint64_t lost);

/// Decode time per received datagram and bytes per sent datagram.
void report_wire(Report& r, const IoCounts& io);

/// Protocol counters per delivered message, from the drivers' metrics.
void report_runtime(Report& r, const bacp::sim::Metrics& m, std::uint64_t delivered,
                    std::uint64_t piggybacked, std::uint64_t standalone_acks);

/// Timer-wheel expiries per message and structural work per expiry.
void report_wheel(Report& r, std::uint64_t fired, std::uint64_t work, std::uint64_t delivered);

/// Per-dgram self time of the spans named \p name, in ns.
double self_ns_per(SpanName name, std::uint64_t dgrams);

/// Appends the datagram ledger of one direction as a note and returns
/// the datagrams unaccounted for (sent - received - impairer drops +
/// impairer duplicates).  A negative balance is an error.
std::int64_t ledger(Report& r, const char* direction, std::uint64_t sent,
                    std::uint64_t received, std::uint64_t impair_dropped,
                    std::uint64_t impair_duplicated);

}  // namespace perfbench
