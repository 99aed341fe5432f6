/** @file Tests for the adaptivity engine's run-time side: the
 *  windowed objective and the online tuner (the offline search is
 *  tested in test_param_search.cc). */

#include <gtest/gtest.h>

#include "core/adaptivity.h"
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

} // namespace
} // namespace dream
