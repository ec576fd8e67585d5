#include "timed_transport.hpp"

#include "common/assert.hpp"
#include "wire/buffer.hpp"

namespace perfbench {

using bacp::wire::FrameType;

bool peek_frame(std::span<const std::uint8_t> bytes, FrameKey& out) {
    bacp::wire::BufReader r(bytes);
    const auto magic = r.get_u8();
    const auto version = r.get_u8();
    const auto type = r.get_u8();
    const auto flags = r.get_u8();
    if (!magic || !version || !type || !flags || *magic != bacp::wire::kMagic) return false;
    out = FrameKey{};
    out.type = static_cast<FrameType>(*type);
    if (*version == bacp::wire::kVersion2) {
        const auto conn = r.get_varint();
        if (!conn || !r.get_varint()) return false;  // epoch
        out.conn = *conn;
    }
    if ((*flags & bacp::wire::kFlagStream) != 0 && !r.get_varint()) return false;
    switch (out.type) {
        case FrameType::Data:
        case FrameType::DataAck: {
            const auto seq = r.get_varint();
            const auto len = r.get_varint();
            if (!seq || !len || !r.get_bytes(static_cast<std::size_t>(*len))) return false;
            out.seq = *seq;
            if (out.type == FrameType::Data) return true;
            break;
        }
        case FrameType::Ack:
            break;
        case FrameType::Nak:
            return r.get_varint().has_value();
        default:
            return false;
    }
    const auto lo = r.get_varint();
    const auto hi = r.get_varint();
    if (!lo || !hi) return false;
    out.lo = *lo;
    out.hi = *hi;
    return true;
}

FrameKey key_of(const bacp::wire::FrameView& frame) {
    FrameKey k;
    k.type = frame.type;
    k.conn = frame.conn.id;
    k.seq = frame.seq;
    k.lo = frame.lo;
    k.hi = frame.hi;
    return k;
}

// ---- MsgTracker ----------------------------------------------------------------

MsgTracker::MsgTracker(std::size_t sessions, Seq first_conn, Seq per_session)
    : sessions_(sessions), first_conn_(first_conn), per_session_(per_session) {
    const std::size_t n = sessions * static_cast<std::size_t>(per_session);
    sent_at_.assign(n, kUnsent);
    latencies_.reserve(n);
}

std::int64_t* MsgTracker::slot(Seq conn, Seq seq) {
    Seq session = 0;
    if (conn != bacp::wire::kNoConnId) {
        if (conn < first_conn_) return nullptr;
        session = conn - first_conn_;
    }
    if (session >= sessions_ || seq >= per_session_) return nullptr;
    return &sent_at_[static_cast<std::size_t>(session * per_session_ + seq)];
}

void MsgTracker::on_sent(std::span<const std::span<const std::uint8_t>> datagrams,
                         SimTime now) {
    for (const auto d : datagrams) {
        FrameKey k;
        if (!peek_frame(d, k)) {
            ++anomalies_;
        } else if (k.type == FrameType::Data || k.type == FrameType::DataAck) {
            note_send(k.conn, k.seq, now);
        }
    }
}

void MsgTracker::on_received(const FrameKey& frame, SimTime now) {
    if (frame.type == FrameType::Ack || frame.type == FrameType::DataAck) {
        note_ack(frame.conn, frame.lo, frame.hi, now);
    }
}

void MsgTracker::note_send(Seq conn, Seq seq, SimTime now) {
    std::int64_t* s = slot(conn, seq);
    if (s == nullptr) {
        ++anomalies_;
        return;
    }
    if (*s != kUnsent) return;  // a retransmission: latency runs from the first
    if (first_send_wall_ns_ < 0) first_send_wall_ns_ = wall_ns();
    *s = release_interval_ > 0
             ? release_origin_ + static_cast<SimTime>(seq + 1) * release_interval_
             : now;
}

void MsgTracker::note_ack(Seq conn, Seq lo, Seq hi, SimTime now) {
    if (lo > hi) {
        ++anomalies_;
        return;
    }
    for (Seq seq = lo; seq <= hi; ++seq) {
        std::int64_t* s = slot(conn, seq);
        if (s == nullptr || *s == kUnsent) {
            ++anomalies_;
            continue;
        }
        if (*s == kAcked) continue;
        const std::int64_t latency = now - *s;
        if (latency < 0) ++anomalies_;
        latencies_.push_back(latency);
        *s = kAcked;
    }
}

// ---- TimedTransport ------------------------------------------------------------

void TimedTransport::note_send(std::span<const std::span<const std::uint8_t>> datagrams) {
    ++counts_.send_calls;
    counts_.dgrams_sent += datagrams.size();
    for (const auto d : datagrams) counts_.bytes_sent += d.size();
    if (tracker_ != nullptr) tracker_->on_sent(datagrams, clock_->now());
}

std::size_t TimedTransport::send_batch(
    std::span<const std::span<const std::uint8_t>> datagrams) {
    note_send(datagrams);
    std::size_t accepted = 0;
    {
        Scope span(SpanName::Send, time_io_);
        accepted = inner_->send_batch(datagrams);
    }
    stats_ = inner_->stats();
    return accepted;
}

std::size_t TimedTransport::send_batch_to(
    std::span<const std::span<const std::uint8_t>> datagrams,
    std::span<const bacp::net::PeerAddr> peers) {
    BACP_ASSERT_MSG(addressed_ != nullptr, "addressed send through an unaddressed transport");
    note_send(datagrams);
    std::size_t accepted = 0;
    {
        Scope span(SpanName::Send, time_io_);
        accepted = addressed_->send_batch_to(datagrams, peers);
    }
    stats_ = inner_->stats();
    return accepted;
}

std::size_t TimedTransport::recv_batch(bacp::net::RecvBatch& batch) {
    std::size_t n = 0;
    {
        Scope span(SpanName::Recv, time_io_);
        n = inner_->recv_batch(batch);
    }
    stats_ = inner_->stats();
    ++counts_.recv_calls;
    counts_.dgrams_received += n;
    if (n == 0) {
        ++counts_.empty_recvs;
        return 0;
    }
    const bool tracing = tracer().on();
    if (tracker_ == nullptr && !tracing) return n;
    const SimTime now = tracker_ != nullptr ? clock_->now() : 0;
    for (std::size_t i = 0; i < n; ++i) {
        FrameKey key;
        bool ok = false;
        if (tracing) {
            Scope span(SpanName::Decode);
            const bacp::wire::ViewResult r = bacp::wire::decode_view(batch[i]);
            ok = r.ok();
            if (ok) {
                key = key_of(r.frame());
                tracer().tag(static_cast<std::uint32_t>(key.conn), key.seq);
            }
        } else {
            ok = peek_frame(batch[i], key);
        }
        if (tracker_ == nullptr) continue;
        if (ok) {
            tracker_->on_received(key, now);
        } else {
            tracker_->on_malformed();
        }
    }
    return n;
}

}  // namespace perfbench
