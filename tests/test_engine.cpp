// Engine-level tests: the unified runtime::Engine must drive every
// protocol core through one EngineConfig, support all four timeout
// disciplines wherever retransmission exists, and replay byte-identically
// from a seed (the guard against hidden RNG-order changes in the
// refactor from six per-protocol drivers to one engine).

#include <gtest/gtest.h>

#include <string>

#include "runtime/sessions.hpp"

namespace bacp::runtime {
namespace {

using namespace bacp::literals;

EngineConfig lossy_config(Seq w, Seq count, double loss, std::uint64_t seed) {
    EngineConfig cfg;
    cfg.w = w;
    cfg.count = count;
    cfg.data_link = loss > 0 ? LinkSpec::lossy(loss) : LinkSpec::lossless();
    cfg.ack_link = loss > 0 ? LinkSpec::lossy(loss) : LinkSpec::lossless();
    cfg.seed = seed;
    return cfg;
}

// ------------------------------------------- timeout modes x protocol cores --

// Every retransmission-capable core completes under every timeout
// discipline; before the unified engine only BaSession could select one.
template <typename Session>
void run_all_modes(const char* name, typename Session::Options options = {}) {
    for (const auto mode : {TimeoutMode::OracleSimple, TimeoutMode::OraclePerMessage,
                            TimeoutMode::SimpleTimer, TimeoutMode::PerMessageTimer}) {
        auto cfg = lossy_config(8, 150, 0.1, 77);
        cfg.timeout_mode = mode;
        Session session(cfg, options);
        const auto metrics = session.run();
        EXPECT_TRUE(session.completed()) << name << " under " << to_string(mode);
        EXPECT_EQ(metrics.delivered, 150u) << name << " under " << to_string(mode);
    }
}

TEST(EngineModes, BlockAckCompletesUnderEveryMode) {
    run_all_modes<UnboundedSession>("block-ack");
    run_all_modes<BoundedSession>("block-ack-bounded");
    run_all_modes<HoleReuseSession>("block-ack-hole-reuse");
}

TEST(EngineModes, BaselinesCompleteUnderEveryMode) {
    run_all_modes<GbnSession>("go-back-n");
    run_all_modes<SrSession>("selective-repeat");
    run_all_modes<AbpSession>("alternating-bit");
    run_all_modes<TcSession>("time-constrained", {.domain = 32});
}

// --------------------------------------------- go-back-N timer regression --

TEST(GbnRegression, DefaultModeIsTheClassicSingleTimer) {
    // nullopt timeout_mode must select the discipline the dedicated
    // GbnSession driver hardcoded: one timer, restarted on every
    // transmit, whole-window retransmit on expiry.
    auto cfg = lossy_config(8, 300, 0.1, 5);
    GbnSession classic(cfg);
    const auto a = classic.run();
    ASSERT_TRUE(classic.completed());

    auto cfg2 = lossy_config(8, 300, 0.1, 5);
    cfg2.timeout_mode = TimeoutMode::SimpleTimer;
    GbnSession explicit_mode(cfg2);
    const auto b = explicit_mode.run();
    ASSERT_TRUE(explicit_mode.completed());

    EXPECT_EQ(a.end_time, b.end_time);
    EXPECT_EQ(a.data_new, b.data_new);
    EXPECT_EQ(a.data_retx, b.data_retx);
    EXPECT_EQ(a.acks_sent, b.acks_sent);
    EXPECT_EQ(a.duplicates, b.duplicates);
}

TEST(GbnRegression, SimpleTimerMatchesPreUnificationBehavior) {
    // Golden run pinned against the pre-refactor per-protocol driver
    // (byte-identical CSV verified at unification time).  The simulation
    // is a deterministic function of (config, seed), so any drift in the
    // engine's event schedule shows up here as an exact mismatch.
    auto cfg = lossy_config(8, 300, 0.1, 5);
    GbnSession session(cfg);
    const auto m = session.run();
    ASSERT_TRUE(session.completed());
    EXPECT_EQ(m.delivered, 300u);
    EXPECT_EQ(m.data_new, 300u);
    EXPECT_EQ(m.data_retx, 1698u);
    EXPECT_EQ(m.acks_sent, 1778u);
    EXPECT_EQ(m.duplicates, 1478u);
    EXPECT_EQ(m.end_time, 4'599'962'694);
}

// ------------------------------------------------------ deterministic replay --

template <typename Session>
std::string traced_run(EngineConfig cfg, typename Session::Options options = {}) {
    cfg.record_trace = true;
    Session session(cfg, options);
    session.run();
    EXPECT_TRUE(session.completed());
    return session.trace().dump();
}

TEST(DeterministicReplay, SameSeedSameConfigIsByteIdenticalPerCore) {
    const auto cfg = lossy_config(8, 120, 0.1, 42);
    EXPECT_EQ(traced_run<UnboundedSession>(cfg), traced_run<UnboundedSession>(cfg));
    EXPECT_EQ(traced_run<BoundedSession>(cfg), traced_run<BoundedSession>(cfg));
    EXPECT_EQ(traced_run<GbnSession>(cfg), traced_run<GbnSession>(cfg));
    EXPECT_EQ(traced_run<SrSession>(cfg), traced_run<SrSession>(cfg));
    EXPECT_EQ(traced_run<AbpSession>(cfg), traced_run<AbpSession>(cfg));
    EXPECT_EQ(traced_run<TcSession>(cfg, {.domain = 32}),
              traced_run<TcSession>(cfg, {.domain = 32}));
}

TEST(DeterministicReplay, BoundedAndUnboundedTracesIdenticalBelowWrap) {
    // With count <= 2w no residue ever wraps, so the SV bounded core and
    // the unbounded core must emit the very same wire text at the very
    // same instants: two different cores, one byte-identical trace.
    auto cfg = lossy_config(16, 30, 0.1, 7);
    EXPECT_EQ(traced_run<UnboundedSession>(cfg), traced_run<BoundedSession>(cfg));
}

}  // namespace
}  // namespace bacp::runtime
