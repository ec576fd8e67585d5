#pragma once

/// \file client_fleet.hpp
/// Many client sessions, a handful of sockets, one poll loop.
///
/// net::Server multiplexes 100k sessions onto a few shard sockets; the
/// harness that loads it must do the same or the *client* becomes the
/// bottleneck (100k NetEngines would mean 100k sockets, 100k receive
/// arenas, and 100k poll loops).  ClientFleet is the sender-side mirror
/// of the server's shard: N NetEndpoint sessions share F connected
/// sockets, one TimerWheel, and one receive arena.  Each session's
/// egress stages onto its socket's shared SendBatch (the tick's frames
/// from every session on that socket leave in one sendmmsg), and
/// arriving acks are demuxed back by connection id -- decoded exactly
/// once, handed to the owning session as a FrameView.
///
/// Sessions never touch a socket themselves: they are driven through
/// NetEndpoint::handle_frame(), so their lazy receive arenas are never
/// built and per-session memory stays at the protocol state proper.
/// Connection ids are dense (first_conn .. first_conn + sessions - 1),
/// making demux an index, not a hash.
///
/// The admission window (max_active) ramps the fleet: at most that many
/// sessions are in flight at once, a finished session's slot admitting
/// the next unstarted one the same tick.  That bounds client-side burst
/// memory and models a realistic arrival process instead of 100k
/// simultaneous SYN-storms -- the server still holds every admitted
/// session's state concurrently, which is what bench_e24 measures.
/// A session's endpoint is built when it is admitted and freed when it
/// finishes (its counters fold into a fleet total first), so the fleet
/// holds at most max_active endpoints whatever its session count; late
/// frames for a retired or not yet started conn are counted and dropped.
///
/// Each drained receive batch is bracketed on every session it fed
/// (NetEndpoint::begin_batch / end_batch), as the server's shards do.

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/metrics_table.hpp"
#include "common/types.hpp"
#include "net/net_engine.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "runtime/session_util.hpp"
#include "wire/codec.hpp"

namespace bacp::net {

/// Fleet topology and per-session protocol surface.
struct FleetConfig {
    /// Per-session protocol configuration; each session gets a copy with
    /// its connection tag, sub-seed, and immediate-flush egress applied.
    NetConfig session;
    /// Total sessions the fleet will run to completion.
    std::size_t sessions = 1;
    /// Dense connection-id range start: session i is conn first_conn + i.
    Seq first_conn = 1;
    /// Epoch every session runs (bump to model peer restarts).
    Seq epoch = 1;
    /// In-flight session bound (0 = all at once).  Finished sessions
    /// free slots for unstarted ones within the same poll.
    std::size_t max_active = 0;
    /// Shared receive-arena capacity (datagrams per recv_batch).
    std::size_t recv_batch = 256;
};

/// Fleet lifecycle counters, tabled like ServerStats.
struct FleetStats {
    std::uint64_t sessions_started = 0;
    /// Sessions that have heard back from the server at least once --
    /// the server provably opened them (benches use touched == started
    /// to mark the end of warmup: every table and driver at high water).
    std::uint64_t sessions_touched = 0;
    std::uint64_t sessions_finished = 0;
    std::uint64_t decode_errors = 0;  // pre-demux rejects
    std::uint64_t crc_errors = 0;
    std::uint64_t unknown_conn_drops = 0;  // acks outside the dense range
    /// Frames for a conn in the range whose session is not running: not
    /// admitted yet, or finished and freed (a late duplicate ack).
    std::uint64_t idle_conn_drops = 0;

    using Field = MetricsField;
    static constexpr std::size_t kFieldCount = 7;

    static constexpr std::array<CounterDef<FleetStats>, kFieldCount> kCounters = {{
        {"sessions_started", &FleetStats::sessions_started},
        {"sessions_touched", &FleetStats::sessions_touched},
        {"sessions_finished", &FleetStats::sessions_finished},
        {"decode_errors", &FleetStats::decode_errors},
        {"crc_errors", &FleetStats::crc_errors},
        {"unknown_conn_drops", &FleetStats::unknown_conn_drops},
        {"idle_conn_drops", &FleetStats::idle_conn_drops},
    }};

    std::array<Field, kFieldCount> fields() const { return counter_fields(*this, kCounters); }
    std::string to_json() const { return fields_json(fields()); }
};

template <runtime::EndpointCore Core>
class ClientFleet {
public:
    using Options = typename Core::Options;

    /// \p sockets are connected transports to the server (not owned;
    /// must outlive the fleet).  Session i sends through socket
    /// i % sockets.size(); the server's reply routing follows the
    /// socket's source address, so a session's acks always arrive on
    /// its own socket.
    ClientFleet(FleetConfig cfg, Options options, Clock& clock, std::vector<Transport*> sockets)
        : cfg_(std::move(cfg)),
          options_(std::move(options)),
          wheel_(std::make_unique<TimerWheel>(clock)),
          rx_(cfg_.sessions > 0 ? cfg_.recv_batch : 1, cfg_.session.max_datagram) {
        BACP_ASSERT_MSG(!sockets.empty(), "fleet needs at least one socket");
        BACP_ASSERT_MSG(cfg_.sessions > 0, "fleet needs at least one session");
        sockets_.reserve(sockets.size());
        for (Transport* t : sockets) {
            auto sock = std::make_unique<Socket>();
            sock->transport = t;
            sockets_.push_back(std::move(sock));
        }
        members_.resize(cfg_.sessions);  // built on admission, freed on finish
        touched_.reserve(rx_.capacity());
    }

    ClientFleet(const ClientFleet&) = delete;
    ClientFleet& operator=(const ClientFleet&) = delete;

    /// One event-loop iteration: fire due timers (retransmits stage onto
    /// the socket batches), drain every socket -- demuxing each ack to
    /// its session -- admit sessions into freed slots, and flush each
    /// socket's staged frames as one batch.  Returns units of work.
    std::size_t poll() {
        std::size_t work = wheel_->fire_due();
        for (const auto& sock : sockets_) {
            for (;;) {
                const std::size_t n = sock->transport->recv_batch(rx_);
                for (std::size_t i = 0; i < n; ++i) demux(rx_[i]);
                close_batches();
                work += n;
                if (n < rx_.capacity()) break;
            }
        }
        work += admit();
        for (const auto& sock : sockets_) sock->staging.flush(*sock->transport);
        return work;
    }

    /// Every session started and fully acknowledged.
    bool done() const { return stats_.sessions_finished == members_.size(); }

    std::size_t session_count() const { return members_.size(); }
    std::size_t active_count() const {
        return static_cast<std::size_t>(stats_.sessions_started - stats_.sessions_finished);
    }
    std::size_t finished_count() const {
        return static_cast<std::size_t>(stats_.sessions_finished);
    }

    const FleetStats& stats() const { return stats_; }
    TimerWheel& wheel() { return *wheel_; }

    /// Socket counters only: real boundary crossings (the client half of
    /// the dgrams/syscall amortization story).
    Metrics transport_metrics() const {
        Metrics total;
        for (const auto& sock : sockets_) total += sock->transport->stats();
        return total;
    }

    /// Per-session protocol counters, summed over running and finished
    /// sessions (not hot path).
    sim::Metrics protocol_metrics() const {
        sim::Metrics total = retired_;
        for (const auto& m : members_) {
            if (m) total.add_counters_from(m->sender.metrics());
        }
        return total;
    }

    /// The fleet's one latency sink: every session's ack latency, in the
    /// fleet's clock.
    const sim::LatencyHistograms& latency() const { return latency_; }

private:
    /// Per-session egress: stages every frame onto the session's
    /// socket-shared SendBatch (SessionEgress's connected-socket twin).
    class FleetEgress final : public Transport {
    public:
        explicit FleetEgress(SendBatch& out) : out_(&out) {}

        std::size_t send_batch(
            std::span<const std::span<const std::uint8_t>> datagrams) override {
            for (const std::span<const std::uint8_t> datagram : datagrams) {
                out_->append(datagram);
                stats_.bytes_sent += datagram.size();
            }
            stats_.datagrams_sent += datagrams.size();
            return datagrams.size();
        }

        std::size_t recv_batch(RecvBatch& batch) override {
            batch.clear();  // sessions never receive through their egress
            return 0;
        }

    private:
        SendBatch* out_;
    };

    struct Socket {
        Transport* transport = nullptr;
        SendBatch staging;  // the tick's frames from every session here
    };

    struct Member {
        Member(const NetConfig& cfg, const Options& options, TimerWheel& wheel, SendBatch& out,
               sim::LatencyHistograms& latency)
            : egress(out), sender(cfg, options, wheel, egress, &latency) {}
        FleetEgress egress;        // declared first: sender holds a reference
        NetEndpoint<Core> sender;
        bool touched = false;
    };

    void demux(std::span<const std::uint8_t> bytes) {
        const wire::ViewResult result = wire::decode_view(bytes);
        if (!result.ok()) {
            ++stats_.decode_errors;
            if (result.error() == wire::DecodeError::BadCrc) ++stats_.crc_errors;
            return;  // treated as loss
        }
        const wire::FrameView& frame = result.frame();
        // Untagged replies belong to the single legacy session.
        const Seq conn = frame.conn.tagged() ? frame.conn.id : cfg_.first_conn;
        if (conn < cfg_.first_conn ||
            conn >= cfg_.first_conn + static_cast<Seq>(members_.size())) {
            ++stats_.unknown_conn_drops;
            return;
        }
        const std::size_t idx = static_cast<std::size_t>(conn - cfg_.first_conn);
        Member* m = members_[idx].get();
        if (m == nullptr) {
            ++stats_.idle_conn_drops;
            return;
        }
        if (!m->touched) {
            m->touched = true;
            ++stats_.sessions_touched;
        }
        if (!m->sender.batch_open()) {
            m->sender.begin_batch();
            touched_.push_back(idx);
        }
        m->sender.handle_frame(frame);
        // done() flips only on an ack, i.e. exactly here -- so the
        // finished count stays exact without scanning every session.
        if (m->sender.done()) retire(idx);
    }

    /// Ends the receive batch of every session the batch fed (retired
    /// ones closed theirs on the way out).
    void close_batches() {
        for (const std::size_t idx : touched_) {
            if (members_[idx]) members_[idx]->sender.end_batch();
        }
        touched_.clear();
    }

    /// A finished session leaves: its held acks go out, its counters
    /// fold into the fleet total, and its endpoint is freed (its
    /// destructor cancels every timer it still has on the wheel).
    void retire(std::size_t idx) {
        NetEndpoint<Core>& sender = members_[idx]->sender;
        sender.end_batch();
        retired_.add_counters_from(sender.metrics());
        members_[idx].reset();
        ++stats_.sessions_finished;
    }

    /// Builds and starts unstarted sessions while the admission window
    /// has room; their initial windows stage onto the socket batches
    /// and leave with this tick's flush.
    std::size_t admit() {
        const std::size_t cap = cfg_.max_active > 0 ? cfg_.max_active : members_.size();
        std::size_t admitted = 0;
        while (next_start_ < members_.size() && active_count() < cap) {
            const std::size_t idx = next_start_;
            const Seq conn = cfg_.first_conn + static_cast<Seq>(idx);
            NetConfig session_cfg = cfg_.session;
            // Every send lands in the socket batch the same tick; the
            // *socket* flush is the real batching boundary.
            session_cfg.batch = 1;
            session_cfg.seed = runtime::mix_seed(cfg_.session.seed, conn);
            session_cfg.conn = wire::Conn{conn, cfg_.epoch};
            members_[idx] = std::make_unique<Member>(
                session_cfg, options_, *wheel_, sockets_[idx % sockets_.size()]->staging, latency_);
            ++next_start_;
            ++stats_.sessions_started;
            ++admitted;
            members_[idx]->sender.start();
        }
        return admitted;
    }

    FleetConfig cfg_;
    Options options_;
    std::unique_ptr<TimerWheel> wheel_;  // shared by every session
    RecvBatch rx_;                       // shared receive arena
    sim::LatencyHistograms latency_;     // shared latency sink
    std::vector<std::unique_ptr<Socket>> sockets_;
    std::vector<std::unique_ptr<Member>> members_;  // null: unstarted or retired
    std::vector<std::size_t> touched_;  // members fed by the current receive batch
    sim::Metrics retired_;              // counters of finished sessions, summed
    std::size_t next_start_ = 0;
    FleetStats stats_;
};

}  // namespace bacp::net
