// E10 -- micro-benchmarks of the library's hot paths (google-benchmark).
//
// These are fitness numbers rather than paper claims: codec encode/decode
// throughput, CRC-32C bandwidth, protocol-core action costs, channel and
// event-queue operation costs, and the sequence-number algebra.

#include <benchmark/benchmark.h>

#include <vector>

#include "ba/bounded_receiver.hpp"
#include "ba/bounded_sender.hpp"
#include "ba/receiver.hpp"
#include "ba/sender.hpp"
#include "channel/set_channel.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "protocol/seqnum.hpp"
#include "runtime/ack_clip.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "wire/codec.hpp"
#include "wire/crc32.hpp"

using namespace bacp;

namespace {

void BM_Crc32c(benchmark::State& state) {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
    Rng rng(1);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    for (auto _ : state) {
        benchmark::DoNotOptimize(wire::crc32c(data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(1024)->Arg(65536);

void BM_EncodeData(benchmark::State& state) {
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)), 0xab);
    Seq seq = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(wire::encode_data(seq++ % 32, payload, wire::kFlagBoundedSeq));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeData)->Arg(0)->Arg(256)->Arg(1024);

void BM_DecodeData(benchmark::State& state) {
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)), 0xab);
    const auto frame = wire::encode_data(17, payload);
    for (auto _ : state) {
        benchmark::DoNotOptimize(wire::decode(frame));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_DecodeData)->Arg(0)->Arg(256)->Arg(1024);

void BM_Reconstruct(benchmark::State& state) {
    const Seq n = 64;
    Seq x = 123456;
    for (auto _ : state) {
        benchmark::DoNotOptimize(proto::reconstruct(x, proto::to_wire(x + 31, n), n));
        ++x;
    }
}
BENCHMARK(BM_Reconstruct);

void BM_SenderRoundTrip(benchmark::State& state) {
    // One full window cycle: w sends + one block ack.
    const Seq w = static_cast<Seq>(state.range(0));
    ba::Sender sender(w);
    ba::Receiver receiver(w);
    for (auto _ : state) {
        for (Seq i = 0; i < w; ++i) receiver.on_data(sender.send_new());
        while (receiver.can_advance()) receiver.advance();
        sender.on_ack(receiver.make_ack());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SenderRoundTrip)->Arg(8)->Arg(64)->Arg(512);

void BM_BoundedRoundTrip(benchmark::State& state) {
    const Seq w = static_cast<Seq>(state.range(0));
    ba::BoundedSender sender(w);
    ba::BoundedReceiver receiver(w);
    for (auto _ : state) {
        for (Seq i = 0; i < w; ++i) receiver.on_data(sender.send_new());
        while (receiver.can_advance()) receiver.advance();
        sender.on_ack(receiver.make_ack());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BoundedRoundTrip)->Arg(8)->Arg(64)->Arg(512);

void BM_SetChannelSendReceive(benchmark::State& state) {
    channel::SetChannel chan;
    Rng rng(2);
    Seq seq = 0;
    for (auto _ : state) {
        chan.send(proto::Data{seq++ % 64});
        if (chan.size() > 32) benchmark::DoNotOptimize(chan.receive_random(rng));
    }
}
BENCHMARK(BM_SetChannelSendReceive);

void BM_EventQueuePushPop(benchmark::State& state) {
    sim::EventQueue queue;
    Rng rng(3);
    SimTime now = 0;
    for (auto _ : state) {
        queue.push(now + static_cast<SimTime>(rng.uniform(1000)), [] {});
        if (queue.size() > 64) {
            auto fired = queue.pop();
            now = fired.time;
        }
    }
}
BENCHMARK(BM_EventQueuePushPop);

void BM_EncodeStreamTagged(benchmark::State& state) {
    std::vector<std::uint8_t> payload(256, 0xab);
    Seq seq = 0;
    for (auto _ : state) {
        const Seq current = seq++;
        benchmark::DoNotOptimize(
            wire::encode_data(current % 32, payload, wire::kFlagBoundedSeq, current % 8));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeStreamTagged);

void BM_AckClipBounded(benchmark::State& state) {
    // A window with an interior hole: the clip must split the range.
    ba::BoundedSender sender(64);
    for (int i = 0; i < 64; ++i) sender.send_new();
    sender.on_ack(proto::Ack{20, 40});
    const proto::Ack incoming{0, 63};
    std::vector<proto::Ack> runs;
    runs.reserve(33);
    for (auto _ : state) {
        runs.clear();
        runtime::clip_ack_bounded_into(sender, incoming, runs);
        benchmark::DoNotOptimize(runs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AckClipBounded);

void BM_HistogramAddQuantile(benchmark::State& state) {
    Histogram histogram;
    Rng rng(4);
    std::int64_t q = 0;
    for (auto _ : state) {
        histogram.add(static_cast<std::int64_t>(rng.uniform(1'000'000)));
        benchmark::DoNotOptimize(q += histogram.quantile(0.99));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAddQuantile);

void BM_SimulatorEventsPerSec(benchmark::State& state) {
    for (auto _ : state) {
        sim::Simulator sim;
        int remaining = 10000;
        std::function<void()> tick = [&] {
            if (--remaining > 0) sim.schedule_after(1, tick);
        };
        sim.schedule_after(1, tick);
        sim.run();
        benchmark::DoNotOptimize(remaining);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventsPerSec);

}  // namespace
