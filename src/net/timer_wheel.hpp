#pragma once

/// \file timer_wheel.hpp
/// The real-time TimerService implementation.
///
/// TimerWheel keys deadlines off a net::Clock and fires everything due
/// when the owning event loop calls fire_due() -- the real-time analogue
/// of the simulator executing its event queue.  Deadlines live in a
/// common::HierTimerWheel: a hierarchical bucketed wheel with O(1)
/// arm/cancel and fire work proportional to the timers actually due,
/// not the armed population.  The old SlabTimerHeap backend (still the
/// right shape for the simulator's strictly-ordered event queue) paid
/// O(log n) per arm and a top-of-heap probe per poll that grew with
/// every armed timer; at 100k multiplexed server sessions the wheel is
/// what keeps an idle poll cheap.  See common/hier_wheel.hpp for the
/// design and DESIGN.md section 15 for the measurements.
///
/// Semantics match the simulator's half of the TimerService contract
/// exactly -- the wheel buckets placement, never order: a fired or
/// cancelled id never becomes valid again, cancel of such an id is a
/// no-op, and equal deadlines fire in schedule order.  A handler may
/// schedule new timers freely; ones already due fire within the same
/// fire_due() call.

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/hier_wheel.hpp"
#include "common/timer_service.hpp"
#include "common/types.hpp"
#include "net/clock.hpp"
#include "net/metrics.hpp"

namespace bacp::net {

class TimerWheel final : public TimerService {
public:
    explicit TimerWheel(Clock& clock) : clock_(&clock) {}

    SimTime now() const override { return clock_->now(); }

    TimerId schedule_after(SimTime delay, Handler fn) override;

    void cancel(TimerId id) override { wheel_.cancel(id); }

    /// Deadline of the earliest live timer, or nullopt when none is
    /// armed.  Exact (not rounded to a bucket), so event loops can
    /// sleep to it and ManualClock tests can advance to it.
    std::optional<SimTime> next_deadline() const { return wheel_.next_deadline(); }

    /// Fires every timer whose deadline has been reached, in deadline
    /// (then FIFO) order; returns how many fired.
    std::size_t fire_due();

    /// Live (armed, not yet fired or cancelled) timers.
    std::size_t armed() const { return wheel_.size(); }

    /// fire_due() calls that fired at least one timer, and the total
    /// timers they fired -- the ratio says how well the event loop's
    /// deadline math batches expiry work per wakeup.  NetEngine and
    /// Server fold both into their net::Metrics views
    /// (timer_fire_batches / timers_fired).
    std::uint64_t fire_batches() const { return fire_batches_; }
    std::uint64_t timers_fired() const { return timers_fired_; }

    /// Cumulative structural work done by fire_due (nodes examined,
    /// staged, cascaded).  bench_e24 pins that this scales with due
    /// timers, not armed timers.
    std::uint64_t fire_work() const { return wheel_.work_ops(); }

    /// Adds this wheel's counters to a metrics view.
    void add_stats(Metrics& m) const {
        m.timer_fire_batches += fire_batches_;
        m.timers_fired += timers_fired_;
    }

    /// Pre-sizes the wheel for \p additional more concurrent timers
    /// beyond those currently armed.  Endpoints call this at attach with
    /// their worst-case timer count (window-bounded), so a shared wheel
    /// reaches its high-water mark before traffic does.
    void reserve(std::size_t additional) { wheel_.reserve(wheel_.size() + additional); }

    /// Heap bytes one concurrent timer holds in the wheel.
    static constexpr std::size_t bytes_per_timer() {
        return HierTimerWheel<Handler>::bytes_per_timer();
    }

private:
    Clock* clock_;
    HierTimerWheel<Handler> wheel_;
    std::uint64_t fire_batches_ = 0;
    std::uint64_t timers_fired_ = 0;
};

}  // namespace bacp::net
