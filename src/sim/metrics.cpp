#include "sim/metrics.hpp"

#include <sstream>

namespace bacp::sim {

double Metrics::throughput_msgs_per_sec() const {
    const SimTime dt = elapsed();
    if (dt <= 0) return 0.0;
    return static_cast<double>(delivered) / to_seconds(dt);
}

double Metrics::acks_per_delivered() const {
    if (delivered == 0) return 0.0;
    return static_cast<double>(acks_sent + dup_acks) / static_cast<double>(delivered);
}

double Metrics::retx_fraction() const {
    const std::uint64_t total = data_new + data_retx;
    if (total == 0) return 0.0;
    return static_cast<double>(data_retx) / static_cast<double>(total);
}

std::string Metrics::summary() const {
    std::ostringstream os;
    os << "delivered=" << delivered << " in " << to_seconds(elapsed()) << "s"
       << " thr=" << throughput_msgs_per_sec() << "msg/s"
       << " tx=" << data_new << "+" << data_retx << "retx"
       << " acks=" << acks_sent << "+" << dup_acks << "dup"
       << " drops=" << sr_dropped << "/" << rs_dropped;
    if (decode_errors > 0) {
        os << " decode_errs=" << decode_errors << "(" << crc_errors << "crc)";
    }
    return os.str();
}

}  // namespace bacp::sim
