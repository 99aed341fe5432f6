/**
 * @file
 * Regression tests for the Plan::wakeUpUs contract: only
 * strictly-future wake-ups are honoured. A scheduler that keeps
 * requesting a stale (past or present) wake-up must not stall
 * virtual time or prevent the run from reaching the window end,
 * and wake-ups at or beyond the window end never fire.
 */

#include <gtest/gtest.h>

#include <vector>

#include "costmodel/cost_table.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace dream {
namespace {

/** Never dispatches; requests wake-ups and records invocations. */
class WakeupProbe : public sim::Scheduler {
public:
    enum class Mode {
        Stale,  ///< always request nowUs - 50 (in the past)
        Now,    ///< always request exactly nowUs
        Future, ///< request a fixed future time until it passes
        None,   ///< never request a wake-up
    };

    explicit WakeupProbe(Mode mode, double target_us = -1.0)
        : mode_(mode), targetUs_(target_us)
    {}

    std::string name() const override { return "WakeupProbe"; }

    sim::Plan plan(const sim::SchedulerContext& ctx) override
    {
        invocationTimes.push_back(ctx.nowUs);
        sim::Plan p;
        switch (mode_) {
          case Mode::Stale:
            p.wakeUpUs = ctx.nowUs - 50.0;
            break;
          case Mode::Now:
            p.wakeUpUs = ctx.nowUs;
            break;
          case Mode::Future:
            if (ctx.nowUs < targetUs_)
                p.wakeUpUs = targetUs_;
            break;
          case Mode::None:
            break;
        }
        return p;
    }

    std::vector<double> invocationTimes;

private:
    Mode mode_;
    double targetUs_;
};

/** One 10 fps toy task on a single-accelerator system. */
struct Fixture {
    Fixture()
    {
        system.name = "test-1WS";
        hw::AcceleratorConfig ws;
        ws.name = "WS";
        ws.numPes = 2048;
        ws.dataflow = hw::Dataflow::WeightStationary;
        system.accelerators = {ws};

        workload::TaskSpec task;
        task.model = test::toyModel();
        task.fps = 10.0;
        scenario.name = "wakeup-test";
        scenario.tasks.push_back(std::move(task));

        costs = std::make_unique<cost::CostTable>(system,
                                                  scenario.models());
    }

    sim::RunStats
    run(sim::Scheduler& sched, double window_us = 1e5)
    {
        sim::SimConfig cfg;
        cfg.windowUs = window_us;
        cfg.seed = 1;
        sim::Simulator simulator(system, scenario, *costs, cfg);
        return simulator.run(sched);
    }

    hw::SystemConfig system;
    workload::Scenario scenario;
    std::unique_ptr<cost::CostTable> costs;
};

TEST(Wakeup, StaleWakeupIsIgnoredAndRunTerminates)
{
    // Regression: a perpetually-stale wake-up used to be armable in
    // principle; if armed it would pull virtual time backwards and
    // the event loop would never reach the window end.
    Fixture f;
    WakeupProbe probe(WakeupProbe::Mode::Stale);
    const auto stats = f.run(probe);

    EXPECT_GE(stats.totalFrames(), 1u);
    ASSERT_FALSE(probe.invocationTimes.empty());
    // Virtual time never moved backwards across invocations.
    for (size_t i = 1; i < probe.invocationTimes.size(); ++i)
        EXPECT_GE(probe.invocationTimes[i],
                  probe.invocationTimes[i - 1]);
    // Only real events (frame arrivals) triggered the scheduler: one
    // invocation per arrival, no wake-up-driven re-invocations.
    EXPECT_EQ(probe.invocationTimes.size(), size_t(stats.totalFrames()));
}

TEST(Wakeup, PresentTimeWakeupIsIgnored)
{
    Fixture f;
    WakeupProbe probe(WakeupProbe::Mode::Now);
    const auto stats = f.run(probe);
    EXPECT_GE(stats.totalFrames(), 1u);
    EXPECT_EQ(probe.invocationTimes.size(), size_t(stats.totalFrames()));
}

TEST(Wakeup, FutureWakeupFiresAtRequestedTime)
{
    Fixture f;
    const double target = 12345.0;
    WakeupProbe probe(WakeupProbe::Mode::Future, target);
    f.run(probe);

    bool fired = false;
    for (const double t : probe.invocationTimes)
        fired = fired || t == target;
    EXPECT_TRUE(fired) << "scheduler was not re-invoked at its "
                          "requested wake-up time";
}

TEST(Wakeup, WakeupBeyondWindowNeverFires)
{
    Fixture f;
    const double window = 1e5;
    WakeupProbe probe(WakeupProbe::Mode::Future, 2e5);
    f.run(probe, window);

    for (const double t : probe.invocationTimes)
        EXPECT_LT(t, window);
}

} // namespace
} // namespace dream
