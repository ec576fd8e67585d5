#pragma once

/// \file frame_path.hpp
/// The wire half of a DuplexDriver environment, shared by every
/// environment that speaks wire::codec frames: net::NetEndpoint (real
/// transports, batched egress) and link::SimEndpoint (the DES over
/// ByteChannels).
///
/// FramePath owns everything between the driver's protocol decisions
/// and the bytes:
///   - egress encoding of DATA, DATA+ACK, ACK and NAK frames, with the
///     environment's stream/conn tags;
///   - the split of a wrapped bounded-BA ack block (hi < lo) into two
///     frames at the domain edge, since a wire range is a closed
///     interval;
///   - ingress decode and dispatch into the driver, counting decode
///     errors and frames for a direction the endpoint does not run;
///   - the receive-side PayloadStash, keyed by wire value, which parks a
///     payload only when the core buffered its message out of order;
///   - the delivery hand-off -- the arriving frame's own bytes, or the
///     stashed bytes of a buffered message -- to a bound sink, or
///     pattern verification when none is bound.
///
/// What differs between environments stays with them: where an encoded
/// frame goes (a SendBatch slab and a Transport, or a fresh ByteChannel
/// frame) is the `emit` callable each egress call takes, and the event
/// loop (poll(), the simulator) is the environment's own.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/payload_stash.hpp"
#include "protocol/message.hpp"
#include "runtime/endpoint_core.hpp"
#include "runtime/endpoint_driver.hpp"
#include "wire/codec.hpp"

namespace bacp::net {

/// Deterministic payload for message \p seq: a splitmix64 stream keyed by
/// the (true) sequence number, so the receiver can verify every delivered
/// byte without any side channel.  The fill form writes into caller
/// memory (the batch slab / a reused scratch) and is what the hot paths
/// use.
inline void pattern_fill(Seq seq, std::span<std::uint8_t> payload) {
    std::uint64_t state = seq ^ 0xba5eba115eedULL;
    std::size_t i = 0;
    while (i < payload.size()) {
        const std::uint64_t word = splitmix64(state);
        for (int b = 0; b < 8 && i < payload.size(); ++b, ++i) {
            payload[i] = static_cast<std::uint8_t>(word >> (8 * b));
        }
    }
}

inline std::vector<std::uint8_t> pattern_payload(Seq seq, std::size_t size) {
    std::vector<std::uint8_t> payload(size);
    pattern_fill(seq, payload);
    return payload;
}

template <runtime::EndpointCore Core>
class FramePath {
public:
    /// Fills `out` with the payload of message \p true_seq.  Must be
    /// random-access: retransmissions re-request any outstanding seq.
    using PayloadSource = std::function<void(Seq true_seq, std::vector<std::uint8_t>& out)>;
    /// Consumes the bytes of one in-order delivery.
    using DeliverSink = std::function<void(Seq true_seq, std::span<const std::uint8_t> payload)>;

    /// \p cfg.count / \p rx_count are the messages the endpoint sends /
    /// sinks (zero marks a direction it does not run); \p payload_size is
    /// the pattern payload length and the stash's buffer reserve.
    FramePath(const runtime::EngineConfig& cfg, Seq rx_count, std::size_t payload_size,
              Seq stream, wire::Conn conn)
        : count_(cfg.count),
          rx_count_(rx_count),
          payload_size_(payload_size),
          stream_(stream),
          conn_(conn),
          stash_(static_cast<std::size_t>(cfg.w)) {
        // Reserve the stash's buffers to worst case so the first loss
        // burst (which may come long after warmup) allocates nothing.
        if (rx_count_ > 0) stash_.reserve_buffers(payload_size);
    }

    FramePath(const FramePath&) = delete;
    FramePath& operator=(const FramePath&) = delete;

    void set_payload_source(PayloadSource source) { payload_source_ = std::move(source); }
    void set_deliver_sink(DeliverSink sink) { deliver_sink_ = std::move(sink); }

    std::uint64_t bytes_delivered() const { return bytes_delivered_; }
    /// Delivered payloads whose bytes did not match the expected pattern.
    /// Must be zero: CRC-32C rejects corruption before the core sees it.
    std::uint64_t payload_mismatches() const { return payload_mismatches_; }

    // ---- egress ------------------------------------------------------
    // `emit(encode)` stages one frame; encode(std::vector<uint8_t>& out)
    // appends its bytes to `out`.

    /// DATA.  The payload is keyed by the true sequence number, while the
    /// frame carries the core's wire value -- identical for unbounded
    /// cores, a residue for bounded ones.
    template <typename Emit>
    void data(Emit&& emit, const proto::Data& msg, Seq true_seq) {
        stage_payload(true_seq);
        emit([&](std::vector<std::uint8_t>& out) {
            wire::encode_data_to(out, msg.seq, payload_scratch_, wire::kFlagNone, stream_, conn_);
        });
    }

    /// Reverse DATA carrying a deferred ack block.  The duplex layer
    /// splits wrapped bounded-BA ranges before piggybacking, so the wire
    /// precondition lo <= hi always holds here.
    template <typename Emit>
    void data_ack(Emit&& emit, const proto::Data& msg, Seq true_seq, const proto::Ack& ack) {
        stage_payload(true_seq);
        emit([&](std::vector<std::uint8_t>& out) {
            wire::encode_data_ack_to(out, msg.seq, ack.lo, ack.hi, payload_scratch_,
                                     wire::kFlagNone, stream_, conn_);
        });
    }

    /// Bounded cores ack residue *ranges*; a block that straddles the
    /// domain edge arrives as (lo, hi) with hi < lo (e.g. (7, 2) in
    /// domain 8).  The wire format carries closed intervals, so such a
    /// block goes out as two frames, (lo, domain-1) and (0, hi) -- each
    /// is itself a valid sub-block ack the sender absorbs independently,
    /// and losing one of the pair is just an ordinary lost ack.
    template <typename Emit>
    void ack(Emit&& emit, const Core& rx_core, const proto::Ack& ack) {
        if constexpr (runtime::kCoreAckWireWrapped<Core>) {
            if (ack.lo > ack.hi) {
                emit_ack(emit, ack.lo, rx_core.ack_wire_domain() - 1);
                emit_ack(emit, 0, ack.hi);
                return;
            }
        }
        emit_ack(emit, ack.lo, ack.hi);
    }

    template <typename Emit>
    void nak(Emit&& emit, const proto::Nak& nak) {
        emit([&](std::vector<std::uint8_t>& out) {
            wire::encode_nak_to(out, nak.seq, wire::kFlagNone, stream_, conn_);
        });
    }

    // ---- ingress -----------------------------------------------------

    /// Decodes one datagram and feeds it to \p duplex.  A frame that
    /// fails decode is counted and dropped, i.e. fed to the loss
    /// tolerance the protocol already has.
    template <typename Duplex>
    void receive(Duplex& duplex, std::span<const std::uint8_t> bytes) {
        const wire::ViewResult result = wire::decode_view(bytes);
        if (!result.ok()) {
            ++duplex.tx_metrics_mut().decode_errors;
            if (result.error() == wire::DecodeError::BadCrc) ++duplex.tx_metrics_mut().crc_errors;
            return;
        }
        dispatch(duplex, result.frame());
    }

    /// Feeds one already-decoded frame to \p duplex.  Frames for a
    /// direction the endpoint does not run (DATA at a pure sender, ACK at
    /// a pure receiver) are counted as anomalies and dropped.
    template <typename Duplex>
    void dispatch(Duplex& duplex, const wire::FrameView& frame) {
        switch (frame.type) {
            case wire::FrameType::Ack:
                if (count_ == 0) return count_anomaly(duplex);
                duplex.handle_ack(proto::Ack{frame.lo, frame.hi});
                break;
            case wire::FrameType::Nak:
                if (count_ == 0) return count_anomaly(duplex);
                duplex.handle_nak(proto::Nak{frame.seq});
                break;
            case wire::FrameType::Data:
                if (rx_count_ == 0) return count_anomaly(duplex);
                ingest_data(duplex, frame, nullptr);
                break;
            case wire::FrameType::DataAck: {
                // The ack half rides for our sending side; the data half
                // for our receiving side.  A pure receiver still absorbs
                // the data half (the ack half clips to an empty window).
                if (rx_count_ == 0) return count_anomaly(duplex);
                const proto::Ack ack{frame.lo, frame.hi};
                ingest_data(duplex, frame, &ack);
                break;
            }
        }
    }

    /// Hands over the payload of one in-order delivery.  A delivery
    /// step starts at the arrival being processed (the message at vr),
    /// whose bytes are still in its frame; the run it unlocks was
    /// buffered, so its bytes are in the stash.  Both are keyed by
    /// *wire* value (all the frame carries); wire-mapped cores
    /// translate, unbounded ones are the identity.  The protocols
    /// guarantee at most one live message per wire value at the receiver
    /// (window/domain relation, residue quarantine), so the key names
    /// the delivered message's own bytes.
    void deliver(const Core& rx_core, Seq true_seq) {
        Seq key = true_seq;
        if constexpr (runtime::kCoreWireMapped<Core>) key = rx_core.wire_seq(true_seq);
        if (arrival_ != nullptr && arrival_->seq == key) {
            hand_over(true_seq, arrival_->payload);
            arrival_ = nullptr;
            return;
        }
        const std::vector<std::uint8_t>* bytes = stash_.find(key);
        BACP_ASSERT_MSG(bytes != nullptr, "delivered message has no stashed payload");
        hand_over(true_seq, *bytes);
        stash_.erase(key);
    }

private:
    template <typename Emit>
    void emit_ack(Emit& emit, Seq lo, Seq hi) {
        emit([&](std::vector<std::uint8_t>& out) {
            wire::encode_ack_to(out, lo, hi, wire::kFlagNone, stream_, conn_);
        });
    }

    /// Counted on the sending half's metrics; the environments' merged
    /// views make the choice of half invisible.
    template <typename Duplex>
    static void count_anomaly(Duplex& duplex) {
        ++duplex.tx_metrics_mut().decode_errors;
    }

    /// DATA (optionally carrying a piggybacked ack) into the receiving
    /// half.  While the driver steps, the frame is the current arrival,
    /// so a delivery of its own message reads the frame's bytes; the
    /// payload is parked afterwards only if the core buffered the
    /// message beyond a gap.  Duplicates, rejected frames and arrivals a
    /// core discards leave nothing behind.
    template <typename Duplex>
    void ingest_data(Duplex& duplex, const wire::FrameView& frame, const proto::Ack* ack) {
        arrival_ = &frame;
        const bool buffered = ack != nullptr
                                  ? duplex.handle_data_ack(proto::Data{frame.seq}, *ack)
                                  : duplex.handle_data(proto::Data{frame.seq});
        arrival_ = nullptr;
        if (buffered) stash_.put(frame.seq, frame.payload);
    }

    void hand_over(Seq true_seq, std::span<const std::uint8_t> bytes) {
        bytes_delivered_ += bytes.size();
        if (deliver_sink_) {
            deliver_sink_(true_seq, bytes);
        } else {
            expected_scratch_.resize(bytes.size());
            pattern_fill(true_seq, expected_scratch_);
            if (!std::equal(bytes.begin(), bytes.end(), expected_scratch_.begin())) {
                ++payload_mismatches_;
            }
        }
    }

    /// The outbound bytes land in a reused scratch and are encoded
    /// straight onto the environment's buffer -- no per-frame allocation
    /// once both are at high-water mark.
    void stage_payload(Seq true_seq) {
        if (payload_source_) {
            payload_source_(true_seq, payload_scratch_);
        } else {
            payload_scratch_.resize(payload_size_);
            pattern_fill(true_seq, payload_scratch_);
        }
    }

    Seq count_;
    Seq rx_count_;
    std::size_t payload_size_;
    Seq stream_;
    wire::Conn conn_;

    std::uint64_t bytes_delivered_ = 0;
    std::uint64_t payload_mismatches_ = 0;
    PayloadStash stash_;                          // wire seq -> buffered payload
    const wire::FrameView* arrival_ = nullptr;    // DATA frame being ingested
    std::vector<std::uint8_t> payload_scratch_;   // outbound bytes, reused
    std::vector<std::uint8_t> expected_scratch_;  // pattern verify, reused
    PayloadSource payload_source_;  // empty = pattern payloads
    DeliverSink deliver_sink_;      // empty = pattern verification
};

}  // namespace bacp::net
