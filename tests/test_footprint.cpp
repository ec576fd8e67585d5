// Per-session memory, measured.  A counting operator new -- the scheme
// the E20-E25 benches use for allocation counts, extended to bytes --
// tracks live heap bytes, so these tests pin what a session actually
// costs: Server::session_footprint() (the figure arena_budget divides
// by) against the heap a few hundred admitted sessions really hold, and
// the receive half's per-seq tables against its rx_count.

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "ba/engine_core.hpp"
#include "net/clock.hpp"
#include "net/frame_path.hpp"
#include "net/inproc_hub.hpp"
#include "net/net_engine.hpp"
#include "net/server.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "wire/codec.hpp"

namespace bacp {
// Live heap bytes (allocator usable size, so a free subtracts exactly
// what its allocation added).
std::atomic<std::int64_t> g_live_bytes{0};
}  // namespace bacp

namespace bacp::net {
namespace {

using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

std::int64_t live_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }

constexpr Seq kCount = 4;  // messages per session (E24's transfer)

/// E24's session configuration (w = 4, 32-byte payloads, receivers
/// open-ended at rx_count = 2^20) at a given window and payload size;
/// \p count > 0 makes each session also source that many messages.
ServerConfig session_config(std::size_t max_sessions, Seq w, std::size_t payload, Seq count) {
    ServerConfig cfg;
    cfg.session.w = w;
    cfg.session.count = count;
    cfg.session.rx_count = 1 << 20;
    cfg.session.payload_size = payload;
    cfg.session.max_datagram = payload + 128;
    cfg.session.link_lifetime = 1 * kMillisecond;
    cfg.session.timeout = 250 * kMillisecond;
    cfg.session.seed = 11;
    cfg.recv_batch = 64;
    cfg.idle_timeout = 600 * kSecond;
    cfg.max_sessions = max_sessions;
    return cfg;
}

/// Sends a whole kCount-message transfer for each conn in [first, last)
/// from \p client, polling \p server after every few sessions so the
/// shard's egress batch stays at a small high-water mark, and drains
/// the acks.  Returns the live heap bytes the server gained inside its
/// polls (the hub's allocations, made at injection, fall outside).
std::int64_t admit(Server<Core>& server, Transport& client, Seq first, Seq last,
                   std::size_t payload_size) {
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> payload(payload_size);
    RecvBatch acks(256, kMaxDatagram);
    std::int64_t gained = 0;
    const auto poll = [&] {
        const std::int64_t before = live_bytes();
        server.poll();
        gained += live_bytes() - before;
        while (client.recv_batch(acks) == acks.capacity()) {
        }
    };
    for (Seq conn = first; conn < last; ++conn) {
        for (Seq seq = 0; seq < kCount; ++seq) {
            pattern_fill(seq, payload);
            frame.clear();
            wire::encode_data_to(frame, seq, payload, wire::kFlagNone, wire::kNoStream,
                                 wire::Conn{conn, 1});
            const std::span<const std::uint8_t> one[] = {std::span<const std::uint8_t>{frame}};
            client.send_batch(one);
        }
        if ((conn - first) % 8 == 7) poll();
    }
    poll();
    return gained;
}

/// Heap bytes per admitted session for \p w and \p payload: a warm-up
/// server first grows the hub's recycled buffers to the traffic's high
/// water, then a fresh server admits the same sessions and the heap it
/// gains inside its polls is divided among them.  The table slab is
/// reserved at construction, so the session's slot is the one term of
/// the estimate the delta does not see (~100 B, inside the tolerance).
struct Measured {
    double per_session = 0;
    double estimate = 0;
};

Measured measure(Seq w, std::size_t payload, Seq count = 0) {
    constexpr std::size_t kSessions = 400;
    ManualClock clock;
    InprocHub hub(8192, 8192);
    std::unique_ptr<Transport> client = hub.make_client();
    {
        Server<Core> warmup(session_config(kSessions, w, payload, count), {}, clock,
                            {&hub.server()});
        admit(warmup, *client, 1, 1 + kSessions, payload);
    }
    Server<Core> server(session_config(kSessions, w, payload, count), {}, clock,
                        {&hub.server()});
    const std::int64_t gained = admit(server, *client, 1, 1 + kSessions, payload);
    EXPECT_EQ(server.session_count(), kSessions);
    EXPECT_EQ(server.protocol_metrics().delivered, kSessions * kCount);
    return {static_cast<double>(gained) / kSessions,
            static_cast<double>(server.session_footprint())};
}

// The estimate must hold to this fraction either way: arena_budget
// divides by it, so an underestimate overcommits memory and an
// overestimate turns peers away for nothing.
constexpr double kTolerance = 0.10;

TEST(Footprint, ServerSessionHeapMatchesEstimate) {
    const Measured m = measure(4, 32);  // E24's sessions
    RecordProperty("heap_bytes_per_session", static_cast<int>(m.per_session));
    RecordProperty("session_footprint", static_cast<int>(m.estimate));
    EXPECT_NEAR(m.per_session, m.estimate, kTolerance * m.estimate);
}

TEST(Footprint, EstimateScalesWithWindowPayloadAndCount) {
    // Away from E24's tiny receive-only sessions other terms dominate:
    // the w- and payload-sized stash, staging and scratch, and a duplex
    // session's per-seq send tables.  The estimate must track them too.
    struct Shape {
        Seq w;
        std::size_t payload;
        Seq count;
    };
    for (const Shape& shape : {Shape{32, 1024, 0}, Shape{64, 32, 0}, Shape{8, 64, 1000}}) {
        const Measured m = measure(shape.w, shape.payload, shape.count);
        EXPECT_NEAR(m.per_session, m.estimate, kTolerance * m.estimate)
            << "w=" << shape.w << " payload=" << shape.payload << " count=" << shape.count;
    }
}

TEST(Footprint, ReceiveHalfReservesNothingSizedByRxCount) {
    // A pure receiver (count = 0) never starts, so its per-seq send
    // tables stay empty however large rx_count is: the endpoint costs
    // the same at rx_count = 2^20 as at rx_count = 4.
    ManualClock clock;
    TimerWheel wheel(clock);
    InprocHub hub;
    std::unique_ptr<Transport> transport = hub.make_client();
    sim::LatencyHistograms sink;
    const auto endpoint_bytes = [&](Seq count, Seq rx_count) {
        NetConfig cfg;
        cfg.w = 4;
        cfg.count = count;
        cfg.rx_count = rx_count;
        cfg.payload_size = 32;
        cfg.batch = 1;
        const std::int64_t before = live_bytes();
        NetEndpoint<Core> endpoint(cfg, {}, wheel, *transport, &sink);
        return live_bytes() - before;
    };
    endpoint_bytes(0, 4);  // grows the shared wheel's node slab once
    const std::int64_t small = endpoint_bytes(0, 4);
    EXPECT_EQ(endpoint_bytes(0, 1 << 20), small);

    // The sending half does pre-size them, at start(): a control showing
    // the measurement would see a table sized by the count.
    NetConfig cfg;
    cfg.w = 4;
    cfg.count = 1 << 16;
    cfg.payload_size = 32;
    NetEndpoint<Core> sender(cfg, {}, wheel, *transport, &sink);
    const std::int64_t before = live_bytes();
    sender.start();
    EXPECT_GE(live_bytes() - before, std::int64_t{2} * (1 << 16) * 8);
}

}  // namespace
}  // namespace bacp::net

// Out-of-line so the hook covers the whole binary (same replacement
// shape as the bench gates' counting allocator, counting bytes).
void* operator new(std::size_t n) {
    void* p = std::malloc(n ? n : 1);
    if (p == nullptr) throw std::bad_alloc();
    bacp::g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                                 std::memory_order_relaxed);
    return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept {
    if (p == nullptr) return;
    bacp::g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                                 std::memory_order_relaxed);
    std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
