#include <algorithm>

#include "workloads.hpp"

namespace perfbench {

namespace {
double ratio(double num, double den) { return den > 0 ? num / den : 0; }
}  // namespace

double self_ns_per(SpanName name, std::uint64_t dgrams) {
    return ratio(static_cast<double>(tracer().totals(name).self_ns), static_cast<double>(dgrams));
}

void Totals::add_unit(std::uint64_t unit_delivered, double unit_wall_s, const Usage& unit_cpu,
                      std::vector<std::int64_t> ack_ns) {
    delivered += unit_delivered;
    wall_s += unit_wall_s;
    cpu += unit_cpu;
    ack_samples += ack_ns.size();
    if (pool_acks) pooled_ack_ns.insert(pooled_ack_ns.end(), ack_ns.begin(), ack_ns.end());
    unit_ack_p50_ns.push_back(quantile(ack_ns, 0.50));
    unit_ack_p90_ns.push_back(quantile(ack_ns, 0.90));
    unit_ack_p99_ns.push_back(quantile(ack_ns, 0.99));
}

void finish_report(Report& r, Totals& t) {
    r.attempted = t.attempted;
    r.failed = t.attempted > t.delivered ? t.attempted - t.delivered : 0;
    const double msgs = static_cast<double>(t.delivered);
    const double ack_p50_ns =
        t.pool_acks ? quantile(t.pooled_ack_ns, 0.50) : median(t.unit_ack_p50_ns);
    const double ack_p90_ns =
        t.pool_acks ? quantile(t.pooled_ack_ns, 0.90) : median(t.unit_ack_p90_ns);
    const double ack_p99_ns =
        t.pool_acks ? quantile(t.pooled_ack_ns, 0.99) : median(t.unit_ack_p99_ns);
    const std::uint64_t ack_samples = t.ack_samples;
    const double peak_kb = peak_rss_kb();
    const double sessions = static_cast<double>(std::max<std::size_t>(t.sessions, 1));

    r.set("msgs_per_s", ratio(msgs, t.wall_s));
    r.set("ack_p50_us", ack_p50_ns / 1e3);
    r.set("ack_p99_us", ack_p99_ns / 1e3);
    r.set("dgrams_per_msg", ratio(static_cast<double>(t.dgrams), msgs));
    r.set("cpu_us_per_msg", ratio(t.cpu.cpu_s() * 1e6, msgs));
    r.set("peak_rss_mb", peak_kb / 1024.0);
    r.set("rss_kb_per_session", t.session_rss_kb / sessions);
    r.set("setup_s", median(t.setups_s));

    r.set("failed_ratio", ratio(static_cast<double>(r.failed), static_cast<double>(t.attempted)));
    r.set("runtime.ack_samples", static_cast<double>(ack_samples));
    r.set("process.user_cpu_s", t.whole.user_s);
    r.set("process.sys_cpu_s", t.whole.sys_s);
    // Every unit builds its sessions anew.
    const double sessions_built = sessions * static_cast<double>(std::max<std::size_t>(t.units(), 1));
    r.set("process.minflt_per_session", static_cast<double>(t.whole.minflt) / sessions_built);
    r.set("process.steady_allocs_per_dgram",
          ratio(static_cast<double>(t.steady_allocs), static_cast<double>(t.steady_dgrams)));

    if (tracer().enabled()) {
        r.set("trace.coverage", ratio(static_cast<double>(tracer().top_level_ns()), t.wall_s * 1e9));
        r.set("trace.msgs_per_s", r.get("msgs_per_s"));
        r.set("trace.cpu_us_per_msg", r.get("cpu_us_per_msg"));
        r.set("trace.ack_p50_us", r.get("ack_p50_us"));
    }

    r.note(fmt("units %zu, %llu of %llu messages delivered exactly once and acked, "
               "%.3f s measured",
               t.units(), static_cast<unsigned long long>(t.delivered),
               static_cast<unsigned long long>(t.attempted), t.wall_s));
    r.note(fmt("ack latency (%s): p50 %.1f us, p90 %.1f us, p99 %.1f us; %llu samples",
               t.pool_acks ? "all units' samples pooled" : "median over units",
               ack_p50_ns / 1e3, ack_p90_ns / 1e3, ack_p99_ns / 1e3,
               static_cast<unsigned long long>(ack_samples)));
    r.note(fmt("set-up: median %.6f s over %zu set-ups; peak RSS %.1f MB, %.1f KB per session "
               "over %zu sessions",
               median(t.setups_s), t.setups_s.size(), peak_kb / 1024.0,
               t.session_rss_kb / sessions, t.sessions));
    r.note(fmt("steady state: %llu allocations over %llu datagrams",
               static_cast<unsigned long long>(t.steady_allocs),
               static_cast<unsigned long long>(t.steady_dgrams)));
    if (ack_samples < 1000 * t.units()) {
        r.note("ack latency: under 1000 samples per unit, so a unit's p99 has under ten "
               "samples beyond it");
    }
}

void report_transport(Report& r, const IoCounts& io, const bacp::net::Metrics& side_a,
                      const bacp::net::Metrics& side_b, std::uint64_t lost) {
    r.set("net.transport.send_ns_per_dgram", self_ns_per(SpanName::Send, io.dgrams_sent));
    r.set("net.transport.recv_ns_per_dgram", self_ns_per(SpanName::Recv, io.dgrams_received));
    r.set("net.transport.dgrams_per_send_call",
          ratio(static_cast<double>(io.dgrams_sent), static_cast<double>(io.send_calls)));
    r.set("net.transport.empty_recv_share",
          ratio(static_cast<double>(io.empty_recvs), static_cast<double>(io.recv_calls)));
    r.set("net.transport.lost_dgrams_share",
          ratio(static_cast<double>(lost),
                static_cast<double>(side_a.datagrams_sent + side_b.datagrams_sent)));
    r.set("net.transport.gso_segs_per_send",
          ratio(static_cast<double>(side_a.gso_segments + side_b.gso_segments),
                static_cast<double>(side_a.gso_sends + side_b.gso_sends)));
    r.set("net.transport.gro_segs_per_recv",
          ratio(static_cast<double>(side_a.gro_segments + side_b.gro_segments),
                static_cast<double>(side_a.gro_recvs + side_b.gro_recvs)));
}

void report_wire(Report& r, const IoCounts& io) {
    const SpanTotals& decode = tracer().totals(SpanName::Decode);
    r.set("wire.decode_ns_per_dgram",
          ratio(static_cast<double>(decode.total_ns), static_cast<double>(decode.count)));
    r.set("wire.bytes_per_dgram",
          ratio(static_cast<double>(io.bytes_sent), static_cast<double>(io.dgrams_sent)));
}

void report_runtime(Report& r, const bacp::sim::Metrics& m, std::uint64_t delivered,
                    std::uint64_t piggybacked, std::uint64_t standalone_acks) {
    const double msgs = static_cast<double>(delivered);
    r.set("runtime.retx_per_msg", ratio(static_cast<double>(m.data_retx), msgs));
    r.set("runtime.acks_per_msg", ratio(static_cast<double>(m.acks_sent + m.dup_acks), msgs));
    r.set("runtime.piggyback_share",
          ratio(static_cast<double>(piggybacked),
                static_cast<double>(piggybacked + standalone_acks)));
    r.set("runtime.dup_acks_per_msg", ratio(static_cast<double>(m.dup_acks), msgs));
    r.note(fmt("protocol: %llu new DATA, %llu retransmissions, %llu block acks, %llu "
               "duplicate acks, %llu piggybacked",
               static_cast<unsigned long long>(m.data_new),
               static_cast<unsigned long long>(m.data_retx),
               static_cast<unsigned long long>(m.acks_sent),
               static_cast<unsigned long long>(m.dup_acks),
               static_cast<unsigned long long>(piggybacked)));
}

void report_wheel(Report& r, std::uint64_t fired, std::uint64_t work, std::uint64_t delivered) {
    r.set("net.timer_wheel.fired_per_msg",
          ratio(static_cast<double>(fired), static_cast<double>(delivered)));
    r.set("net.timer_wheel.work_ops_per_fired",
          ratio(static_cast<double>(work), static_cast<double>(fired)));
}

std::int64_t ledger(Report& r, const char* direction, std::uint64_t sent,
                    std::uint64_t received, std::uint64_t impair_dropped,
                    std::uint64_t impair_duplicated) {
    const std::int64_t lost = static_cast<std::int64_t>(sent + impair_duplicated) -
                              static_cast<std::int64_t>(received + impair_dropped);
    r.note(fmt("ledger %s: sent %llu = received %llu + impairer drops %llu - impairer "
               "duplicates %llu + lost %lld",
               direction, static_cast<unsigned long long>(sent),
               static_cast<unsigned long long>(received),
               static_cast<unsigned long long>(impair_dropped),
               static_cast<unsigned long long>(impair_duplicated),
               static_cast<long long>(lost)));
    if (lost < 0) r.error(fmt("ledger %s: more datagrams received than sent", direction));
    return lost;
}

}  // namespace perfbench
