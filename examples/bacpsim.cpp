// bacpsim: command-line driver for the protocol simulator.
//
// Runs any protocol/channel/workload combination and prints a metrics
// summary (or CSV).  The Swiss-army knife for exploring the design space
// without writing code.
//
//   $ ./bacpsim --protocol block-ack --w 16 --count 5000 --loss 0.05
//   $ ./bacpsim --protocol go-back-n --fifo --loss 0.02 --csv
//   $ ./bacpsim --protocol block-ack-bounded --nak --adaptive
//               --service-us 1000 --queue 8   (one line)
//   $ ./bacpsim --list
//
// Flags (defaults in brackets):
//   --protocol NAME   block-ack | block-ack-bounded | block-ack-hole-reuse |
//                     go-back-n | selective-repeat | alternating-bit |
//                     time-constrained                     [block-ack]
//   --w N             window size                          [16]
//   --count N         messages to transfer                 [5000]
//   --loss P          data-channel loss probability        [0]
//   --ack-loss P      ack-channel loss (default: = loss)
//   --burst           Gilbert-Elliott burst loss instead of Bernoulli
//   --delay-lo-us N   min one-way delay, microseconds      [4000]
//   --delay-hi-us N   max one-way delay, microseconds      [6000]
//   --fifo            force in-order channels
//   --batch K         ack policy: batch K (10 ms flush)    [eager]
//   --timeout-mode M  oracle-simple | oracle-per-message |
//                     simple-timer | per-message-timer     [protocol default]
//   --tc-domain N     sequence domain for time-constrained [16]
//   --nak             enable NAK fast retransmit
//   --adaptive        enable AIMD window adaptation
//   --service-us N    bottleneck service time (0 = off)    [0]
//   --queue N         bottleneck queue capacity            [64]
//   --arrival-us N    open-loop arrivals: mean gap in microseconds (0 = closed loop)
//   --poisson         exponential (Poisson) arrival gaps
//   --seed S          RNG seed                             [1]
//   --reps N          replications (aggregated)            [1]
//   --csv             one CSV line instead of the summary
//   --list            print protocol names and exit

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload/scenario.hpp"

using namespace bacp;
using workload::Protocol;
using workload::Scenario;

namespace {

struct Args {
    int argc;
    char** argv;
    int index = 1;

    const char* next_value(const char* flag) {
        if (index + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", flag);
            std::exit(2);
        }
        return argv[++index];
    }
};

bool parse_protocol(const std::string& name, Protocol& out) {
    const struct {
        const char* name;
        Protocol protocol;
    } table[] = {
        {"block-ack", Protocol::BlockAck},
        {"block-ack-bounded", Protocol::BlockAckBounded},
        {"block-ack-hole-reuse", Protocol::BlockAckHoleReuse},
        {"go-back-n", Protocol::GoBackN},
        {"selective-repeat", Protocol::SelectiveRepeat},
        {"alternating-bit", Protocol::AlternatingBit},
        {"time-constrained", Protocol::TimeConstrained},
    };
    for (const auto& entry : table) {
        if (name == entry.name) {
            out = entry.protocol;
            return true;
        }
    }
    return false;
}

bool parse_timeout_mode(const std::string& name, runtime::TimeoutMode& out) {
    if (name == "oracle-simple") out = runtime::TimeoutMode::OracleSimple;
    else if (name == "oracle-per-message") out = runtime::TimeoutMode::OraclePerMessage;
    else if (name == "simple-timer") out = runtime::TimeoutMode::SimpleTimer;
    else if (name == "per-message-timer") out = runtime::TimeoutMode::PerMessageTimer;
    else return false;
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    Scenario scenario;
    scenario.w = 16;
    scenario.count = 5000;
    int reps = 1;
    bool csv = false;

    Args args{argc, argv};
    for (; args.index < argc; ++args.index) {
        const std::string flag = argv[args.index];
        if (flag == "--list") {
            std::printf("block-ack block-ack-bounded block-ack-hole-reuse go-back-n "
                        "selective-repeat alternating-bit time-constrained\n");
            return 0;
        } else if (flag == "--protocol") {
            if (!parse_protocol(args.next_value("--protocol"), scenario.protocol)) {
                std::fprintf(stderr, "unknown protocol; try --list\n");
                return 2;
            }
        } else if (flag == "--w") {
            scenario.w = static_cast<Seq>(std::strtoull(args.next_value(flag.c_str()), nullptr, 10));
        } else if (flag == "--count") {
            scenario.count =
                static_cast<Seq>(std::strtoull(args.next_value(flag.c_str()), nullptr, 10));
        } else if (flag == "--loss") {
            scenario.loss = std::atof(args.next_value(flag.c_str()));
        } else if (flag == "--ack-loss") {
            scenario.ack_loss = std::atof(args.next_value(flag.c_str()));
        } else if (flag == "--burst") {
            scenario.burst_loss = true;
        } else if (flag == "--delay-lo-us") {
            scenario.delay_lo =
                std::strtoll(args.next_value(flag.c_str()), nullptr, 10) * kMicrosecond;
        } else if (flag == "--delay-hi-us") {
            scenario.delay_hi =
                std::strtoll(args.next_value(flag.c_str()), nullptr, 10) * kMicrosecond;
        } else if (flag == "--fifo") {
            scenario.fifo = true;
        } else if (flag == "--batch") {
            const Seq k =
                static_cast<Seq>(std::strtoull(args.next_value(flag.c_str()), nullptr, 10));
            scenario.ack_policy = runtime::AckPolicy::batch(k, 10 * kMillisecond);
        } else if (flag == "--timeout-mode") {
            runtime::TimeoutMode mode;
            if (!parse_timeout_mode(args.next_value(flag.c_str()), mode)) {
                std::fprintf(stderr, "unknown timeout mode\n");
                return 2;
            }
            scenario.timeout_mode = mode;
        } else if (flag == "--tc-domain") {
            scenario.tc_domain =
                static_cast<Seq>(std::strtoull(args.next_value(flag.c_str()), nullptr, 10));
        } else if (flag == "--nak") {
            scenario.enable_nak = true;
        } else if (flag == "--adaptive") {
            scenario.adaptive_window = true;
        } else if (flag == "--service-us") {
            scenario.service_time =
                std::strtoll(args.next_value(flag.c_str()), nullptr, 10) * kMicrosecond;
        } else if (flag == "--queue") {
            scenario.queue_capacity =
                static_cast<std::size_t>(std::strtoull(args.next_value(flag.c_str()), nullptr, 10));
        } else if (flag == "--arrival-us") {
            scenario.arrival_interval =
                std::strtoll(args.next_value(flag.c_str()), nullptr, 10) * kMicrosecond;
        } else if (flag == "--poisson") {
            scenario.poisson_arrivals = true;
        } else if (flag == "--seed") {
            scenario.seed = std::strtoull(args.next_value(flag.c_str()), nullptr, 10);
        } else if (flag == "--reps") {
            reps = std::atoi(args.next_value(flag.c_str()));
        } else if (flag == "--csv") {
            csv = true;
        } else {
            std::fprintf(stderr, "unknown flag %s (see header comment)\n", flag.c_str());
            return 2;
        }
    }

    if (scenario.protocol == Protocol::TimeConstrained && scenario.tc_domain <= scenario.w) {
        std::fprintf(stderr,
                     "time-constrained requires --tc-domain (%llu) > --w (%llu)\n",
                     (unsigned long long)scenario.tc_domain, (unsigned long long)scenario.w);
        return 2;
    }

    if (reps > 1) {
        const auto agg = workload::run_replicated(scenario, reps);
        if (csv) {
            std::printf("protocol,w,loss,reps,completed,thr_msgs_s,acks_per_msg,retx_frac,"
                        "p50_ns,p99_ns\n");
            std::printf("%s,%llu,%.4f,%d,%d,%.2f,%.4f,%.4f,%.0f,%.0f\n",
                        workload::to_string(scenario.protocol),
                        (unsigned long long)scenario.w, scenario.loss, agg.total_runs,
                        agg.completed_runs, agg.mean_throughput, agg.mean_acks_per_msg,
                        agg.mean_retx_fraction, agg.mean_latency_p50, agg.mean_latency_p99);
        } else {
            std::printf("%s w=%llu loss=%.1f%%: %d/%d completed, mean %.1f msg/s, "
                        "%.3f acks/msg, %.1f%% retx, p50 %.2f ms, p99 %.2f ms\n",
                        workload::to_string(scenario.protocol),
                        (unsigned long long)scenario.w, scenario.loss * 100,
                        agg.completed_runs, agg.total_runs, agg.mean_throughput,
                        agg.mean_acks_per_msg, agg.mean_retx_fraction * 100,
                        agg.mean_latency_p50 / 1e6, agg.mean_latency_p99 / 1e6);
        }
        return agg.completed_runs == agg.total_runs ? 0 : 1;
    }

    const auto result = workload::run_scenario(scenario);
    if (csv) {
        std::printf("protocol,w,loss,completed,delivered,thr_msgs_s,acks_per_msg,retx_frac,"
                    "p50_ns,p99_ns,naks,fast_retx\n");
        std::printf("%s,%llu,%.4f,%d,%llu,%.2f,%.4f,%.4f,%lld,%lld,%llu,%llu\n",
                    workload::to_string(scenario.protocol), (unsigned long long)scenario.w,
                    scenario.loss, result.completed ? 1 : 0,
                    (unsigned long long)result.metrics.delivered,
                    result.metrics.throughput_msgs_per_sec(),
                    result.metrics.acks_per_delivered(), result.metrics.retx_fraction(),
                    (long long)result.latency.delivery.quantile(0.5),
                    (long long)result.latency.delivery.quantile(0.99),
                    (unsigned long long)result.metrics.naks_sent,
                    (unsigned long long)result.metrics.fast_retx);
    } else {
        std::printf("%s w=%llu: %s lat{%s}\n", workload::to_string(scenario.protocol),
                    (unsigned long long)scenario.w, result.metrics.summary().c_str(),
                    result.latency.delivery.summary().c_str());
        std::printf("completed: %s\n", result.completed ? "yes" : "NO");
    }
    return result.completed ? 0 : 1;
}
