/** @file Tests for the adaptivity engine's run-time side: the
 *  windowed objective and the online tuner (the offline search is
 *  tested in test_param_search.cc). */

#include <gtest/gtest.h>

#include <vector>

#include "core/adaptivity.h"
#include "core/dream_scheduler.h"
#include "costmodel/cost_table.h"
#include "hw/system.h"
#include "sim/simulator.h"
#include "workload/scenario.h"
#include "test_util.h"

namespace dream {
namespace {

TEST(WindowedObjective, UsesDeltasBetweenSnapshots)
{
    sim::RunStats begin, end;
    begin.tasks.resize(1);
    end.tasks.resize(1);
    begin.tasks[0].totalFrames = 50;
    begin.tasks[0].violatedFrames = 5;
    begin.tasks[0].energyMj = 10.0;
    begin.tasks[0].worstCaseEnergyMj = 20.0;
    end.tasks[0].totalFrames = 100;
    end.tasks[0].violatedFrames = 15;
    end.tasks[0].energyMj = 30.0;
    end.tasks[0].worstCaseEnergyMj = 60.0;
    // Window: 50 frames, 10 violations, 20/40 energy.
    const double v = core::windowedObjective(
        metrics::Objective::UxCost, begin, end);
    EXPECT_DOUBLE_EQ(v, (10.0 / 50.0) * (20.0 / 40.0));
}

TEST(OnlineTuner, DisabledWhenConfigSaysSo)
{
    auto cfg = core::DreamConfig::fixedParams(1.0, 1.0);
    core::OnlineTuner tuner(cfg);
    core::MapScoreEngine engine(1.0, 1.0);
    test::ContextBuilder cb;
    cb.addTask(test::toyModel());
    EXPECT_LT(tuner.update(cb.context(0.0), engine), 0.0);
    EXPECT_FALSE(tuner.tuning());
}

TEST(OnlineTuner, RunsTrialRoundsAndConverges)
{
    auto cfg = core::DreamConfig::mapScore();
    cfg.trialWindowUs = 100.0;
    cfg.initialRadius = 0.2;
    cfg.radiusThreshold = 0.15; // a single refinement round
    core::OnlineTuner tuner(cfg);
    core::MapScoreEngine engine(1.0, 1.0);
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    cb.addRequest(t, 0.0, 1e6);

    double now = 0.0;
    double wake = tuner.update(cb.context(now), engine);
    EXPECT_GT(wake, now);
    EXPECT_TRUE(tuner.tuning());
    // Drive the trial state machine to completion.
    for (int i = 0; i < 50 && tuner.tuning(); ++i) {
        now = wake > now ? wake : now + 100.0;
        wake = tuner.update(cb.context(now), engine);
    }
    EXPECT_FALSE(tuner.tuning());
    EXPECT_GE(tuner.completedSteps(), 1);
    // Parameters remain within the legal range.
    EXPECT_GE(engine.alpha(), cfg.paramMin);
    EXPECT_LE(engine.alpha(), cfg.paramMax);
    EXPECT_GE(engine.beta(), cfg.paramMin);
    EXPECT_LE(engine.beta(), cfg.paramMax);
}

TEST(OnlineTuner, LiveTaskSetChangeRetriggers)
{
    auto cfg = core::DreamConfig::mapScore();
    cfg.initialRadius = 0.2;
    cfg.radiusThreshold = 0.15; // a single refinement round
    core::OnlineTuner tuner(cfg);
    // Rounds complete synchronously, so the tuner is back to watching
    // for workload changes after every (re)trigger.
    tuner.setBatchEvaluator([](const auto& pts) {
        std::vector<double> costs;
        for (const auto& [a, b] : pts)
            costs.push_back(a + b);
        return costs;
    });
    core::MapScoreEngine engine(1.0, 1.0);
    test::ContextBuilder cb;
    const auto ta = cb.addTask(test::toyModel("a"));
    const auto tb = cb.addTask(test::toyModel("b"));
    auto* ra = cb.addRequest(ta, 0.0, 1e6);

    tuner.update(cb.context(0.0), engine); // first call: {a}
    EXPECT_FALSE(tuner.tuning());
    tuner.update(cb.context(1.0), engine);
    EXPECT_EQ(tuner.retriggers(), 0);

    auto* rb = cb.addRequest(tb, 0.0, 1e6); // {a, b}
    tuner.update(cb.context(2.0), engine);
    EXPECT_EQ(tuner.retriggers(), 1);
    ra->done = true; // {b}
    tuner.update(cb.context(3.0), engine);
    EXPECT_EQ(tuner.retriggers(), 2);
    // An empty live set is no workload change, and coming back to
    // the last non-empty task set is none either.
    rb->done = true;
    tuner.update(cb.context(4.0), engine);
    cb.addRequest(tb, 0.0, 1e6);
    tuner.update(cb.context(5.0), engine);
    EXPECT_EQ(tuner.retriggers(), 2);
}

TEST(OnlineTuner, RetriggerCountsOnDreamFullRuns)
{
    // Short trial windows and a single round keep the tuner mostly
    // idle, so it watches (and retriggers on) the live task set all
    // run. The counts are those the tuner gave when its fingerprint
    // still scanned every live request.
    const struct {
        workload::ScenarioPreset scenario;
        int retriggers;
        uint64_t invocations;
    } cases[] = {
        {workload::ScenarioPreset::VrGaming, 19, 34031},
        {workload::ScenarioPreset::ArCall, 15, 2852},
        {workload::ScenarioPreset::DroneOutdoor, 19, 8900},
        {workload::ScenarioPreset::DroneIndoor, 19, 14386},
        {workload::ScenarioPreset::ArSocial, 18, 12698},
    };
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    for (const auto& c : cases) {
        const auto scenario = workload::makeScenario(c.scenario);
        const cost::CostTable costs(system, scenario.models());
        sim::SimConfig sim_cfg;
        sim_cfg.windowUs = 1e6;
        sim_cfg.seed = 17;
        sim::Simulator simulator(system, scenario, costs, sim_cfg);
        auto cfg = core::DreamConfig::full();
        cfg.trialWindowUs = 1e4;
        cfg.initialRadius = 0.2;
        cfg.radiusThreshold = 0.15;
        core::DreamScheduler sched(cfg);
        const sim::RunStats stats = simulator.run(sched);
        EXPECT_EQ(sched.tuner().retriggers(), c.retriggers)
            << workload::toString(c.scenario);
        EXPECT_EQ(stats.schedulerInvocations, c.invocations)
            << workload::toString(c.scenario);
    }
}

} // namespace
} // namespace dream
