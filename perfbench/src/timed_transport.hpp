#pragma once

/// \file timed_transport.hpp
/// The benchmark's view of the wire, taken from outside the program.
///
/// TimedTransport is a Transport decorator in the pattern net::Impairer
/// uses: the program's endpoints, fleet and server send and receive
/// through it unchanged.  It counts boundary crossings, opens spans
/// around the inner calls in the traced run, times wire::decode_view on
/// every received datagram there, and feeds a MsgTracker that turns the
/// frames it sees into per-message ack latencies.

#include <cstdint>
#include <span>
#include <vector>

#include "net/clock.hpp"
#include "net/transport.hpp"
#include "probe.hpp"
#include "wire/codec.hpp"

namespace perfbench {

using bacp::Seq;
using bacp::SimTime;

/// The header fields the tracker needs, from either a full decode or a
/// header-only peek.
struct FrameKey {
    bacp::wire::FrameType type = bacp::wire::FrameType::Data;
    Seq conn = bacp::wire::kNoConnId;
    Seq seq = 0;  // DATA / DATA+ACK
    Seq lo = 0;   // ACK / DATA+ACK
    Seq hi = 0;
};

/// Parses the header and sequence fields of an encoded frame without
/// checking its CRC (the frame format of wire/frame.hpp).  Used on the
/// untraced path, where the tracker must not add a full decode to every
/// datagram.  Returns false on a frame it cannot parse.
bool peek_frame(std::span<const std::uint8_t> bytes, FrameKey& out);

FrameKey key_of(const bacp::wire::FrameView& frame);

/// First DATA send -> covering ACK arrival, per message, on one sending
/// side.  Sessions are dense connection ids [first_conn, first_conn +
/// sessions); an untagged frame is session 0.  All storage is sized at
/// construction, so tracking never allocates.
class MsgTracker {
public:
    MsgTracker(std::size_t sessions, Seq first_conn, Seq per_session);

    /// Open-loop mode: a message's latency runs from its scheduled
    /// release, origin + (seq + 1) * interval, not from its first send.
    void schedule_releases(SimTime origin, SimTime interval) {
        release_origin_ = origin;
        release_interval_ = interval;
    }

    /// Every DATA frame among \p datagrams, sent at \p now.
    void on_sent(std::span<const std::span<const std::uint8_t>> datagrams, SimTime now);
    /// One received frame, at \p now.
    void on_received(const FrameKey& frame, SimTime now);
    /// A received datagram that is not a well-formed frame.
    void on_malformed() { ++anomalies_; }

    void note_send(Seq conn, Seq seq, SimTime now);
    void note_ack(Seq conn, Seq lo, Seq hi, SimTime now);

    const std::vector<std::int64_t>& latencies() const { return latencies_; }
    std::uint64_t acked() const { return latencies_.size(); }
    /// Malformed frames, frames naming a session or sequence outside the
    /// tracked range, or acks for messages never sent: the run's outputs
    /// are wrong.
    std::uint64_t anomalies() const { return anomalies_; }
    /// Steady clock time of the first DATA frame sent, or -1.
    std::int64_t first_send_wall_ns() const { return first_send_wall_ns_; }

private:
    std::int64_t* slot(Seq conn, Seq seq);

    static constexpr std::int64_t kUnsent = INT64_MIN;
    static constexpr std::int64_t kAcked = INT64_MIN + 1;

    std::size_t sessions_;
    Seq first_conn_;
    Seq per_session_;
    std::vector<std::int64_t> sent_at_;  // per (session, seq)
    std::vector<std::int64_t> latencies_;
    std::uint64_t anomalies_ = 0;
    SimTime release_origin_ = 0;
    SimTime release_interval_ = 0;
    std::int64_t first_send_wall_ns_ = -1;
};

/// Counts the decorator keeps itself (the inner transport's net::Metrics
/// are mirrored into stats()).
struct IoCounts {
    std::uint64_t send_calls = 0;
    std::uint64_t recv_calls = 0;
    std::uint64_t empty_recvs = 0;
    std::uint64_t dgrams_sent = 0;  // handed to send_batch(_to), accepted or not
    std::uint64_t bytes_sent = 0;
    std::uint64_t dgrams_received = 0;
    IoCounts& operator+=(const IoCounts& o) {
        send_calls += o.send_calls;
        dgrams_sent += o.dgrams_sent;
        bytes_sent += o.bytes_sent;
        dgrams_received += o.dgrams_received;
        recv_calls += o.recv_calls;
        empty_recvs += o.empty_recvs;
        return *this;
    }
};

class TimedTransport final : public bacp::net::AddressedTransport {
public:
    /// Wraps \p inner (not owned).  \p addressed is the same object when
    /// it can address datagrams (a server shard socket), else null.
    /// \p tracker (optional) sees every frame sent and received, timed
    /// by \p clock.  \p time_io opens Send/Recv spans in the traced run;
    /// off where the inner transport is not the kernel transport layer.
    TimedTransport(bacp::net::Transport& inner, bacp::net::AddressedTransport* addressed,
                   MsgTracker* tracker, const bacp::net::Clock& clock, bool time_io)
        : inner_(&inner),
          addressed_(addressed),
          tracker_(tracker),
          clock_(&clock),
          time_io_(time_io) {}

    std::size_t send_batch(std::span<const std::span<const std::uint8_t>> datagrams) override;
    std::size_t send_batch_to(std::span<const std::span<const std::uint8_t>> datagrams,
                              std::span<const bacp::net::PeerAddr> peers) override;
    std::size_t recv_batch(bacp::net::RecvBatch& batch) override;

    void flush() override {
        inner_->flush();
        stats_ = inner_->stats();
    }
    int fd() const override { return inner_->fd(); }
    bacp::net::OffloadMode offload_tier() const override { return inner_->offload_tier(); }

    const IoCounts& counts() const { return counts_; }

private:
    void note_send(std::span<const std::span<const std::uint8_t>> datagrams);

    bacp::net::Transport* inner_;
    bacp::net::AddressedTransport* addressed_;
    MsgTracker* tracker_;
    const bacp::net::Clock* clock_;
    bool time_io_;
    IoCounts counts_;
};

}  // namespace perfbench
