#pragma once

/// \file net_engine.hpp
/// The real-time transport runtime: transport adapters over
/// runtime::DuplexDriver, driving the same EndpointCore machines the
/// discrete-event runtime::Engine drives -- over actual datagrams and a
/// wall (or manual) clock.
///
/// Where the DES engine adapts the shared driver to a simulator and two
/// SimChannels, a real network has one endpoint per socket end -- and a
/// real endpoint is *duplex*.  NetEndpoint embeds a DuplexDriver (a
/// sending-half and a receiving-half EndpointDriver sharing this
/// environment's clock, TimerWheel, and egress batch), supplies the
/// wheel as the drivers' TimerService, and exchanges frames serialized
/// through wire::codec.  The classic one-way shapes are trivial
/// configurations of it: count > 0, rx_count == 0 is the old pure
/// sender; count == 0, rx_count > 0 the old pure receiver.  With
/// `piggyback` on, the duplex layer defers acks so reverse DATA carries
/// them as DATA+ACK frames (wire type 4); off, every ack egresses
/// immediately and the one-way decision streams are byte-identical to
/// the pre-duplex runtime (tests/test_driver_parity.cpp pins that).
///
/// All timeout disciplines, window pumping, ack policy, resend
/// selection, and the ack-deferral policy live in the runtime layer
/// (runtime/endpoint_driver.hpp, runtime/duplex_driver.hpp), and the
/// frame path -- encode/decode, payload stash, delivery hand-off -- is
/// net::FramePath (net/frame_path.hpp), shared with the DES
/// link::SimEndpoint; this class only batches, polls, and owns the
/// receive arena.  Every datagram is CRC-32C checked on receive; a frame
/// that fails decode is counted and dropped, i.e. fed to the loss
/// tolerance the protocol already has -- exactly the channel model the
/// paper's proof assumes.
///
/// This environment advertises kHasOracle = false: real time cannot
/// prove quiescence, so the driver approximates the oracle timeout modes
/// with its quiescence timer (a full conservative timeout of silence)
/// instead of the DES's provable idle point.
///
/// NetEngine<Core> composes two endpoints over a transport pair (UDP
/// loopback or in-process queues) with seeded impairment and drives a
/// fixed-size transfer of pattern payloads to completion -- one-way by
/// default, bidirectional when reverse_count > 0.  With --inproc
/// (InprocTransport + ManualClock) a run is a pure function of its seed:
/// time advances only to the next timer deadline, so two runs deliver
/// byte-identical traffic.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/timer_service.hpp"
#include "common/types.hpp"
#include "net/clock.hpp"
#include "net/frame_path.hpp"
#include "net/impairer.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "protocol/message.hpp"
#include "runtime/duplex_driver.hpp"
#include "runtime/endpoint_core.hpp"
#include "runtime/endpoint_driver.hpp"
#include "runtime/session_util.hpp"
#include "runtime/timeout_mode.hpp"
#include "sim/metrics.hpp"
#include "wire/codec.hpp"

namespace bacp::net {

/// Configuration of a real-time transfer: the shared runtime::EngineConfig
/// surface (window, count, timeout discipline, ack policy, seed, ...)
/// plus the knobs only a real network introduces.  Core-specific knobs
/// ride in the core's own Options struct, as with the DES engine.
///
/// Of the inherited fields, the link specs are overridden by
/// engine_config() (loss and delay live in the real channel here, via
/// `impair`), and the DES-only knobs (max_events, record_trace,
/// check_invariants) are ignored.
struct NetConfig : runtime::EngineConfig {
    NetConfig() { deadline = 60 * kSecond; }  // run cap, in clock time

    std::size_t payload_size = 1024;  // bytes of pattern payload per message
    /// Assumed bound on datagram time-in-transit (the paper's channel
    /// lifetime L).  Feeds the cores' time-based rules (send horizon, NAK
    /// one-copy) and the derived timeout.  Generous for loopback plus the
    /// impairment delays.
    SimTime link_lifetime = 50 * kMillisecond;
    ImpairSpec impair;  // data direction (and ack direction, unless overridden)
    /// Ack-direction impairment override; nullopt applies `impair`
    /// symmetrically.  Lets a scenario impair one direction only (the
    /// cross-runtime parity test scripts data-channel drops this way).
    std::optional<ImpairSpec> impair_ack;
    /// Datagrams per transport batch: the RecvBatch arena capacity and
    /// the flush granularity of the tick's staged sends.  0 sizes it
    /// from the window -- the batch the protocol naturally builds.
    /// 1 degenerates to the single-shot path (one syscall per datagram),
    /// kept as the A/B baseline E19 measures against.
    std::size_t batch = 0;
    /// Largest datagram this endpoint expects (the RecvBatch arena
    /// stride).  The UDP maximum is always safe; a server hosting
    /// thousands of sessions shrinks it to its known frame size so
    /// per-session arenas stay cheap.
    std::size_t max_datagram = kMaxDatagram;
    /// Connection tag stamped on every frame this endpoint encodes.
    /// Untagged (the default) selects the byte-identical v1 wire format;
    /// a server session sets it so its acks come back tagged for demux
    /// at a multiplexed peer.
    wire::Conn conn;
    /// Kernel-offload tier for the UDP transports (net/offload.hpp):
    /// Mmsg keeps the portable sendmmsg/recvmmsg baseline, Gso/Uring
    /// climb the ladder, Auto takes the best the kernel supports.
    /// Ignored in Inproc mode (no kernel below the queues).
    OffloadMode offload = OffloadMode::Mmsg;
    /// Messages this endpoint expects to *sink* (its receiving half's
    /// target); the inherited `count` stays the messages it originates.
    /// (count, 0) is the classic pure sender, (0, rx_count) the pure
    /// receiver, both nonzero a duplex endpoint.
    Seq rx_count = 0;
    /// NetEngine only: reverse-direction message count (endpoint B back
    /// to endpoint A), turning the engine's transfer bidirectional.  The
    /// endpoints derive their own count/rx_count splits from it.
    Seq reverse_count = 0;
    /// Defer acks so reverse DATA carries them as DATA+ACK piggyback
    /// frames (wire type 4); a flush timer bounds the deferral at
    /// piggyback_delay.  Both endpoints of a session must agree on this
    /// pair, exactly as they must agree on w and the ack policy: the
    /// conservatively derived timeout folds the deferral bound in.
    /// Off by default -- one-way sessions gain nothing, and the pinned
    /// cross-runtime decision parity stays timestamp-exact.
    bool piggyback = false;
    SimTime piggyback_delay = 2 * kMillisecond;
    /// Stream tag stamped on every frame (kNoStream = untagged): the
    /// link-layer mux (link::NetStreamMux) runs several endpoints over
    /// one shared transport and demuxes arrivals by this id.
    Seq stream = wire::kNoStream;

    std::size_t effective_batch() const {
        if (batch > 0) return batch;
        return std::max<std::size_t>(static_cast<std::size_t>(w), 1);
    }

    /// The EngineConfig handed to the drivers and core constructors: the
    /// inherited fields verbatim, with the links described as
    /// lossless-with-lifetime (cores and the derived timeout only consult
    /// max_lifetime(); actual loss/delay happen in the Impairer).
    runtime::EngineConfig engine_config() const {
        runtime::EngineConfig e = *this;
        e.data_link = runtime::LinkSpec::lossless(0, link_lifetime);
        e.ack_link = runtime::LinkSpec::lossless(0, link_lifetime);
        return e;
    }

    runtime::DuplexSpec duplex_spec() const {
        return runtime::DuplexSpec{rx_count, piggyback, piggyback_delay};
    }

    /// Retransmission timeout: explicit, or the conservative bound
    /// L_SR + L_RS + max ack delay + margin (the one shared formula,
    /// runtime::derived_timeout) -- widened by the ack-deferral bound
    /// when piggybacking, mirroring DuplexDriver's own derivation.
    SimTime effective_timeout() const {
        SimTime t = runtime::effective_timeout(engine_config());
        if (timeout == 0 && piggyback) t += piggyback_delay;
        return t;
    }
};

/// One duplex transport endpoint: the environment for a DuplexDriver
/// over a real transport.  poll() is the event-loop body -- fire due
/// timers, drain arriving datagrams, flush staged frames -- and must be
/// called from one thread only.
///
/// Payload bytes default to the verifiable pattern; set_payload_source /
/// set_deliver_sink rebind both ends to real data (the link layer and
/// the file-transfer example feed actual bytes through these).
template <runtime::EndpointCore Core>
class NetEndpoint {
public:
    using Options = typename Core::Options;
    using PayloadSource = typename FramePath<Core>::PayloadSource;
    using DeliverSink = typename FramePath<Core>::DeliverSink;

    /// \p wheel is this endpoint's (and, when impaired, its Impairer's)
    /// timer wheel; poll() fires it, so both must live on one thread.
    /// \p latency is the host's sink when a Server shard or a
    /// ClientFleet runs this endpoint among many (it must outlive the
    /// endpoint and live on the wheel's thread); nullptr gives a
    /// standalone endpoint a sink of its own.
    NetEndpoint(const NetConfig& cfg, Options options, TimerWheel& wheel, Transport& transport,
                sim::LatencyHistograms* latency = nullptr)
        : cfg_(cfg),
          wheel_(wheel),
          transport_(&transport),
          own_latency_(latency ? nullptr : std::make_unique<sim::LatencyHistograms>()),
          latency_(latency ? latency : own_latency_.get()),
          frames_(cfg_, cfg_.rx_count, cfg_.payload_size, cfg_.stream, cfg_.conn),
          duplex_(cfg_.engine_config(), cfg_.duplex_spec(), std::move(options), *this) {
        // Worst case live timers: one per outstanding message (per-message
        // mode) plus the simple/quiescence/pacing/ack-flush singletons of
        // each active half and the deferral flush timer.  Reserving now
        // means a loss burst late in a run grows nothing.
        std::size_t timers = 4;
        if (cfg_.count > 0) timers += static_cast<std::size_t>(cfg_.w) + 4;
        if (cfg_.piggyback) timers += 1;
        wheel_.reserve(timers);
        // One tick can stage a timeout burst of DATA, the acks provoked
        // by a full receive arena, and the retransmissions those acks
        // release -- all before the poll's flush; size the batch builder
        // for that now rather than letting it creep to high water
        // mid-run.  Unbatched, every frame flushes as it is staged, so
        // one frame is the high water: a Server or ClientFleet session,
        // whose host does the batching, reserves just that.
        const std::size_t burst =
            cfg_.effective_batch() <= 1 ? 1 : 4 * static_cast<std::size_t>(cfg_.w) + 32;
        tx_batch_.reserve(burst, burst * (cfg_.payload_size + 128));
        batch_cap_ = burst;
    }

    NetEndpoint(const NetEndpoint&) = delete;
    NetEndpoint& operator=(const NetEndpoint&) = delete;

    /// Opens the faucet of the sending half (a pure receiver has none).
    /// Call once before the poll loop.
    void start() {
        if (cfg_.count > 0) duplex_.start();
        tx_batch_.flush(*transport_);
    }

    /// Application-gated arrivals (EngineConfig::app_arrivals): the
    /// caller queued \p n more payloads with its payload source, so the
    /// window may pump them now.  Flushes whatever the pump staged.
    void release(Seq n) {
        duplex_.release(n);
        tx_batch_.flush(*transport_);
    }

    /// One event-loop iteration: fires due timers, pushes out matured
    /// delayed copies, then handles every datagram currently readable --
    /// drained a whole arena at a time -- and finally flushes everything
    /// the tick staged (new sends, retransmits, acks) as one batch.
    /// Returns how many units of work (timers + datagrams) were
    /// processed.
    ///
    /// The drain is cut into receive batches (DuplexDriver::begin_batch)
    /// of one arena, or of w single reads when the arena holds fewer
    /// than w datagrams, so a single-shot endpoint merges the same
    /// contiguous block acks as a batched one.  A held block waits for
    /// at most one window's worth of further frames, never for the
    /// socket to run dry.
    std::size_t poll() {
        std::size_t work = wheel_.fire_due();
        transport_->flush();  // delayed impairer copies matured above
        RecvBatch& rx = rx_batch();
        const std::size_t span = std::max<std::size_t>(rx.capacity(), cfg_.w);
        std::size_t fed = 0;
        duplex_.begin_batch();
        for (;;) {
            const std::size_t n = transport_->recv_batch(rx);
            for (std::size_t i = 0; i < n; ++i) frames_.receive(duplex_, rx[i]);
            work += n;
            if (n < rx.capacity()) break;
            if ((fed += n) >= span) {
                duplex_.end_batch();
                duplex_.begin_batch();
                fed = 0;
            }
        }
        duplex_.end_batch();
        tx_batch_.flush(*transport_);
        return work;
    }

    /// Feeds one already-decoded frame to the drivers -- the entry point
    /// a server uses after demuxing a shared socket's arena (each
    /// datagram is decoded exactly once, by the demux).  Frames for a
    /// direction this endpoint does not run are counted as anomalies
    /// and dropped.
    void handle_frame(const wire::FrameView& frame) { frames_.dispatch(duplex_, frame); }

    /// Bracket the frames a host feeds through handle_frame() from one
    /// receive batch (runtime::DuplexDriver::begin_batch): contiguous
    /// block acks of the batch merge, and end_batch() emits the merged
    /// block into the egress before the host flushes it.
    void begin_batch() { duplex_.begin_batch(); }
    void end_batch() { duplex_.end_batch(); }
    bool batch_open() const { return duplex_.batch_open(); }

    /// Every originated message sent and acknowledged, every expected
    /// arrival delivered.
    bool done() const { return duplex_.done(); }
    bool tx_done() const { return duplex_.tx_done(); }
    bool rx_done() const { return duplex_.rx_done(); }

    Seq delivered() const { return duplex_.delivered(); }
    Seq sent_new() const { return duplex_.sent_new(); }
    std::uint64_t bytes_delivered() const { return frames_.bytes_delivered(); }
    /// Delivered payloads whose bytes did not match the expected pattern.
    /// Must be zero: CRC-32C rejects corruption before the core sees it.
    std::uint64_t payload_mismatches() const { return frames_.payload_mismatches(); }
    /// Acks that rode reverse DATA frames vs. egressed standalone.
    std::uint64_t piggybacked() const { return duplex_.piggybacked(); }
    std::uint64_t standalone_acks() const { return duplex_.standalone_acks(); }
    /// Ack blocks merged into an earlier block of the same receive
    /// batch, and blocks still waiting to egress.
    std::uint64_t acks_coalesced() const { return duplex_.acks_coalesced(); }
    std::uint64_t acks_deferred() const { return duplex_.acks_deferred(); }

    TimerWheel& wheel() { return wheel_; }
    SimTime timeout_value() const { return duplex_.timeout_value(); }
    const Core& tx_core() const { return duplex_.tx_core(); }
    const Core& rx_core() const { return duplex_.rx_core(); }

    /// Field-wise sum of both halves' counters (time stamps: the
    /// sending half's).
    sim::Metrics metrics() const {
        sim::Metrics m = duplex_.tx_metrics();
        m.add_counters_from(duplex_.rx_metrics());
        return m;
    }
    const sim::Metrics& tx_metrics() const { return duplex_.tx_metrics(); }
    const sim::Metrics& rx_metrics() const { return duplex_.rx_metrics(); }
    /// The sink this endpoint records latency into: its own when
    /// standalone, else the host's, shared with every endpoint the host
    /// runs.
    const sim::LatencyHistograms& latency() const { return *latency_; }

    /// Attach (or detach, with nullptr) a protocol-decision recorder;
    /// both halves share it ('S' / 'R' endpoint chars keep the streams
    /// separable).
    void set_decision_log(runtime::DecisionLog* log) { duplex_.set_decision_log(log); }

    void set_payload_source(PayloadSource source) { frames_.set_payload_source(std::move(source)); }
    void set_deliver_sink(DeliverSink sink) { frames_.set_deliver_sink(std::move(sink)); }

    // ---- Environment hooks (called by DuplexDriver) ------------------------
    // Public because the driver is a distinct type; not user API.

    /// Real time cannot prove quiescence; the driver substitutes its
    /// silence-timer approximation for the oracle modes.
    static constexpr bool kHasOracle = false;

    TimerService& timer_service() { return wheel_; }
    SimTime now() const { return wheel_.now(); }

    // Egress stages each frame on the tick's batch; poll() flushes the
    // whole window in one send_batch.
    void send_data(const proto::Data& msg, Seq true_seq, bool /*retx*/) {
        frames_.data(stage(), msg, true_seq);
    }
    void send_data_ack(const proto::Data& msg, Seq true_seq, bool /*retx*/,
                       const proto::Ack& ack, runtime::AckKind) {
        frames_.data_ack(stage(), msg, true_seq, ack);
    }
    void send_ack(const proto::Ack& ack, runtime::AckKind) {
        frames_.ack(stage(), duplex_.rx_core(), ack);
    }
    void send_nak(const proto::Nak& nak) { frames_.nak(stage(), nak); }

    void on_delivery(Seq true_seq) { frames_.deliver(duplex_.rx_core(), true_seq); }

    void after_step() {}

    sim::LatencyHistograms& latency() { return *latency_; }

private:
    /// The FramePath emitter: encode straight onto the batch slab, then
    /// flush when unbatched sending is configured, or when the builder
    /// has filled its reserved burst -- a post-stall poll can drain an
    /// arbitrary backlog in one pass, and capping the batch here bounds
    /// the builder to the ctor's reserve (a real sendmmsg caps a batch at
    /// IOV_MAX the same way).
    auto stage() {
        return [this](auto&& encode) {
            tx_batch_.append_with(encode);
            if (cfg_.effective_batch() <= 1 || tx_batch_.size() >= batch_cap_) {
                tx_batch_.flush(*transport_);
            }
        };
    }

    /// The receive arena, built on first poll(): a server-driven session
    /// never polls its own transport, so it never pays for one.
    RecvBatch& rx_batch() {
        if (!rx_batch_) {
            rx_batch_ =
                std::make_unique<RecvBatch>(cfg_.effective_batch(), cfg_.max_datagram);
        }
        return *rx_batch_;
    }

    NetConfig cfg_;
    TimerWheel& wheel_;
    Transport* transport_;
    std::unique_ptr<sim::LatencyHistograms> own_latency_;  // standalone only
    sim::LatencyHistograms* latency_;                      // own_latency_ or the host's
    FramePath<Core> frames_;
    std::unique_ptr<RecvBatch> rx_batch_;  // lazy: see rx_batch()
    SendBatch tx_batch_;                   // the tick's staged frames
    std::size_t batch_cap_ = 0;            // reserved burst; see ctor
    runtime::DuplexDriver<Core, NetEndpoint> duplex_;  // last: uses members above
};

/// Everything a real-time run measures.
struct NetReport {
    sim::Metrics metrics;  // both endpoints' counters, field-wise sum
    std::uint64_t bytes_delivered = 0;          // forward direction (A -> B)
    std::uint64_t reverse_bytes_delivered = 0;  // duplex runs: B -> A
    std::uint64_t payload_mismatches = 0;
    /// Ack egress split across both endpoints: blocks that rode reverse
    /// DATA vs. standalone ACK frames.
    std::uint64_t piggybacked = 0;
    std::uint64_t standalone_acks = 0;
    /// Ack blocks merged into an earlier block of their receive batch,
    /// and blocks still deferred when the run ended.
    std::uint64_t acks_coalesced = 0;
    std::uint64_t acks_deferred = 0;

    /// Every ack decision accounted for: emitted in a frame, merged into
    /// another block, or still deferred.  Exact for cores whose blocks
    /// never wrap the wire domain (a wrapped block may ride in slices).
    bool ack_ledger_balances() const {
        return metrics.acks_sent + metrics.dup_acks ==
               standalone_acks + piggybacked + acks_coalesced + acks_deferred;
    }
    Metrics impair_sr;  // impairment boundary, A -> B direction
    Metrics impair_rs;
    Metrics transport_sr;  // inner transport, post-impairment
    Metrics transport_rs;
    SimTime elapsed = 0;  // clock time, start of run to completion
    bool completed = false;

    double goodput_mbps() const {
        if (elapsed <= 0) return 0.0;
        return static_cast<double>(bytes_delivered) * 8.0 / to_seconds(elapsed) / 1e6;
    }

    /// Fraction of ack blocks that rode a reverse DATA frame.
    double piggyback_ratio() const {
        const double total = static_cast<double>(piggybacked + standalone_acks);
        return total > 0 ? static_cast<double>(piggybacked) / total : 0.0;
    }

    /// Inner-transport totals, both directions -- the send-side ratio is
    /// the batch API's headline: datagrams moved per sendmmsg.
    Metrics transport_totals() const {
        Metrics t = transport_sr;
        t += transport_rs;
        return t;
    }
    double datagrams_per_send_syscall() const {
        return transport_totals().datagrams_per_send_syscall();
    }
};

enum class NetMode {
    Udp,     // loopback sockets, SteadyClock (real time)
    Inproc,  // in-process queues, ManualClock (deterministic)
};

/// A complete two-endpoint transfer in one process: A sends `count`
/// messages to B; with reverse_count > 0, B simultaneously sends
/// `reverse_count` back to A (and `piggyback` lets each direction's
/// acks ride the other's DATA).
template <runtime::EndpointCore Core>
class NetEngine {
public:
    using Options = typename Core::Options;

    explicit NetEngine(NetConfig cfg, Options options = {}, NetMode netmode = NetMode::Udp)
        : cfg_(std::move(cfg)), netmode_(netmode) {
        if (netmode_ == NetMode::Udp) {
            clock_ = &steady_clock_;
            auto [a, b] = UdpTransport::make_pair();
            a->enable_offload(cfg_.offload);
            b->enable_offload(cfg_.offload);
            raw_a_ = std::move(a);
            raw_b_ = std::move(b);
        } else {
            clock_ = &manual_clock_;
            auto [a, b] = InprocTransport::make_pair();
            // Both directions' buffer pools at full-frame capacity up
            // front, so no recycled buffer regrows mid-run when a small
            // ack's vector comes back around carrying a DATA+ACK frame.
            const std::size_t bufs = 4 * static_cast<std::size_t>(cfg_.w) + 32;
            a->reserve_buffers(bufs, cfg_.payload_size + 128);
            b->reserve_buffers(bufs, cfg_.payload_size + 128);
            raw_a_ = std::move(a);
            raw_b_ = std::move(b);
        }
        // One wheel per endpoint thread; the impairer of a direction
        // shares the wheel of the endpoint that sends through it.
        wheel_a_ = std::make_unique<TimerWheel>(*clock_);
        wheel_b_ = std::make_unique<TimerWheel>(*clock_);
        imp_a_ = std::make_unique<Impairer>(*raw_a_, *wheel_a_, cfg_.impair,
                                            runtime::mix_seed(cfg_.seed, 0xd1));
        imp_b_ = std::make_unique<Impairer>(*raw_b_, *wheel_b_,
                                            cfg_.impair_ack.value_or(cfg_.impair),
                                            runtime::mix_seed(cfg_.seed, 0xac));
        // Worst-case concurrent delayed copies per direction: a full
        // window of DATA plus its acks, doubled for duplication and
        // retransmission overlap.  Pre-warming here keeps a late loss
        // burst from growing the pools mid-measurement.
        const std::size_t slots = 4 * static_cast<std::size_t>(cfg_.w) + 32;
        imp_a_->reserve_slots(slots, cfg_.payload_size + 128);
        imp_b_->reserve_slots(slots, cfg_.payload_size + 128);
        NetConfig cfg_endpoint_a = cfg_;
        cfg_endpoint_a.rx_count = cfg_.reverse_count;
        NetConfig cfg_endpoint_b = cfg_;
        cfg_endpoint_b.count = cfg_.reverse_count;
        cfg_endpoint_b.rx_count = cfg_.count;
        a_ = std::make_unique<NetEndpoint<Core>>(cfg_endpoint_a, options, *wheel_a_, *imp_a_);
        b_ = std::make_unique<NetEndpoint<Core>>(cfg_endpoint_b, options, *wheel_b_, *imp_b_);
    }

    /// Runs the transfer to completion or the deadline; single-threaded
    /// (both endpoints serviced by the calling thread).  With
    /// NetMode::Inproc this is exactly reproducible from the seed.
    NetReport run() {
        return run([](NetEngine&) {});
    }

    /// run() with an observer called after every service iteration --
    /// benches use it to snapshot allocator / transport state mid-run
    /// (e.g. at the steady-state half-way point) without owning the
    /// loop.  The observer must not mutate the engine.
    template <typename Tick>
    NetReport run(Tick&& tick) {
        const SimTime start = clock_->now();
        a_->start();
        b_->start();
        while (!finished()) {
            if (clock_->now() - start > cfg_.deadline) break;
            // Fixed service order keeps Inproc runs deterministic.
            const std::size_t work = a_->poll() + b_->poll();
            tick(*this);
            if (work > 0) continue;
            if (netmode_ == NetMode::Inproc) {
                // Idle with empty queues: jump to the next timer deadline.
                const auto next = earliest_deadline();
                if (!next) break;  // no timers, no traffic: wedged
                manual_clock_.advance_to(*next);
            } else {
                idle_wait();
            }
        }
        return make_report(start);
    }

    /// Live inner-transport counters, both directions summed -- the
    /// mid-run counterpart of NetReport::transport_totals().
    Metrics transport_snapshot() const {
        Metrics t = raw_a_->stats();
        t += raw_b_->stats();
        return t;
    }

    /// Runs with endpoint B on a worker thread -- the real deployment
    /// shape (two independent event loops).  Requires real time (Udp
    /// mode); determinism is naturally out the window.
    NetReport run_threaded() {
        BACP_ASSERT_MSG(netmode_ == NetMode::Udp, "threaded run needs real time");
        const SimTime start = clock_->now();
        std::atomic<bool> stop{false};
        std::thread rx([this, &stop] {
            b_->start();
            while (!stop.load(std::memory_order_relaxed)) {
                if (b_->poll() == 0) {
                    // Re-read fd() each wait: it changes when the
                    // io_uring tier arms on the first recv_batch.
                    const int fds[] = {fd_b()};
                    wait_readable(fds, b_->wheel().next_deadline()
                                           ? kMillisecond
                                           : 5 * kMillisecond);
                }
            }
        });
        a_->start();
        while (!a_->done() && clock_->now() - start <= cfg_.deadline) {
            if (a_->poll() == 0) {
                const int fds[] = {fd_a()};
                wait_readable(fds, kMillisecond);
            }
        }
        stop.store(true, std::memory_order_relaxed);
        rx.join();
        // Both endpoints back on this thread: drain the in-flight tail
        // (B's last acks, a duplex run's reverse stragglers).  A healthy
        // run exits in a poll or two; a wedged one runs to the deadline,
        // same as run().
        while (!finished() && clock_->now() - start <= cfg_.deadline) {
            if (a_->poll() + b_->poll() == 0) idle_wait();
        }
        return make_report(start);
    }

    /// Endpoint A originates the forward direction -- the "sender" of a
    /// one-way run; B its peer.  Both are full duplex endpoints.
    NetEndpoint<Core>& sender() { return *a_; }
    NetEndpoint<Core>& receiver() { return *b_; }

    /// Attach protocol-decision recorders to the two endpoints (the
    /// cross-runtime parity test compares them against a DES run's).
    void set_decision_logs(runtime::DecisionLog* a_log, runtime::DecisionLog* b_log) {
        a_->set_decision_log(a_log);
        b_->set_decision_log(b_log);
    }

private:
    bool finished() const { return a_->done() && b_->done(); }

    std::optional<SimTime> earliest_deadline() const {
        const auto a = a_->wheel().next_deadline();
        const auto b = b_->wheel().next_deadline();
        if (!a) return b;
        if (!b) return a;
        return std::min(*a, *b);
    }

    int fd_a() const { return raw_a_->fd(); }
    int fd_b() const { return raw_b_->fd(); }

    void idle_wait() {
        // Sleep until a datagram arrives or (approximately) the next
        // timer deadline; cap the wait so the deadline check stays live.
        SimTime wait = 5 * kMillisecond;
        if (const auto next = earliest_deadline()) {
            wait = std::clamp<SimTime>(*next - clock_->now(), 0, wait);
        }
        const int fds[] = {fd_a(), fd_b()};
        wait_readable(fds, wait);
    }

    NetReport make_report(SimTime start) const {
        NetReport report;
        report.metrics = a_->metrics();
        report.metrics.add_counters_from(b_->metrics());
        report.metrics.start_time = start;
        report.metrics.end_time = clock_->now();
        report.bytes_delivered = b_->bytes_delivered();
        report.reverse_bytes_delivered = a_->bytes_delivered();
        report.payload_mismatches = a_->payload_mismatches() + b_->payload_mismatches();
        report.piggybacked = a_->piggybacked() + b_->piggybacked();
        report.standalone_acks = a_->standalone_acks() + b_->standalone_acks();
        report.acks_coalesced = a_->acks_coalesced() + b_->acks_coalesced();
        report.acks_deferred = a_->acks_deferred() + b_->acks_deferred();
        report.impair_sr = imp_a_->impair_stats();
        report.impair_rs = imp_b_->impair_stats();
        report.transport_sr = raw_a_->stats();
        report.transport_rs = raw_b_->stats();
        // Each endpoint's timer-wheel batching rides in its transport
        // view, so one Metrics carries the whole per-direction story.
        wheel_a_->add_stats(report.transport_sr);
        wheel_b_->add_stats(report.transport_rs);
        report.elapsed = clock_->now() - start;
        report.completed =
            a_->done() && b_->done() && report.payload_mismatches == 0;
        return report;
    }

    NetConfig cfg_;
    NetMode netmode_;
    SteadyClock steady_clock_;
    ManualClock manual_clock_;
    Clock* clock_ = nullptr;
    std::unique_ptr<Transport> raw_a_;
    std::unique_ptr<Transport> raw_b_;
    std::unique_ptr<TimerWheel> wheel_a_;
    std::unique_ptr<TimerWheel> wheel_b_;
    std::unique_ptr<Impairer> imp_a_;
    std::unique_ptr<Impairer> imp_b_;
    std::unique_ptr<NetEndpoint<Core>> a_;
    std::unique_ptr<NetEndpoint<Core>> b_;
};

}  // namespace bacp::net
