// Tests for the message-sequence-chart renderer.

#include <gtest/gtest.h>

#include "runtime/sessions.hpp"
#include "sim/diagram.hpp"
#include "sim/trace.hpp"

namespace bacp::sim {
namespace {

TEST(Diagram, RendersActorsAndArrows) {
    TraceRecorder trace;
    trace.record(0, "S", "send D(0)");
    trace.record(1'000'000, "C_SR", "deliver D(0)");
    trace.record(1'000'000, "R", "rcv D(0)");
    trace.record(1'000'000, "R", "ack A(0,0)");
    trace.record(2'000'000, "C_RS", "deliver A(0,0)");
    trace.record(2'000'000, "S", "rcv A(0,0)");
    const auto chart = render_sequence_diagram(trace);
    EXPECT_NE(chart.find("sender"), std::string::npos);
    EXPECT_NE(chart.find("receiver"), std::string::npos);
    EXPECT_NE(chart.find("send D(0)"), std::string::npos);
    EXPECT_NE(chart.find("--> D(0)"), std::string::npos);      // forward arrow
    EXPECT_NE(chart.find("A(0,0) <--"), std::string::npos);    // reverse arrow
    EXPECT_NE(chart.find("ack A(0,0)"), std::string::npos);
    // Plain receptions are folded into the arrows.
    EXPECT_EQ(chart.find("rcv "), std::string::npos);
}

TEST(Diagram, MarksDropsCentered) {
    TraceRecorder trace;
    trace.record(0, "C_SR", "drop D(7)");
    const auto chart = render_sequence_diagram(trace);
    EXPECT_NE(chart.find("x D(7) lost"), std::string::npos);
}

TEST(Diagram, CapsOutput) {
    TraceRecorder trace;
    for (int i = 0; i < 50; ++i) trace.record(i, "S", "send D(" + std::to_string(i) + ")");
    const auto chart = render_sequence_diagram(trace, "C_SR", 5);
    EXPECT_NE(chart.find("send D(4)"), std::string::npos);
    EXPECT_EQ(chart.find("send D(5)"), std::string::npos);
    EXPECT_NE(chart.find("more events"), std::string::npos);
}

TEST(Diagram, EndToEndSessionTraceRenders) {
    runtime::EngineConfig cfg;
    cfg.w = 4;
    cfg.count = 4;
    cfg.record_trace = true;
    cfg.data_link = runtime::LinkSpec::lossy(0.2);
    cfg.ack_link = runtime::LinkSpec::lossy(0.2);
    cfg.seed = 77;
    runtime::UnboundedSession session(cfg);
    session.run();
    ASSERT_TRUE(session.completed());
    const auto chart = render_sequence_diagram(session.trace());
    EXPECT_NE(chart.find("send D(0)"), std::string::npos);
    EXPECT_NE(chart.find("ack "), std::string::npos);
}

}  // namespace
}  // namespace bacp::sim
