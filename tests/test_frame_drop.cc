/** @file Unit tests for the Smart Frame Drop engine's 4 conditions. */

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/frame_drop.h"
#include "test_util.h"

namespace dream {
namespace {

core::DreamConfig
dropConfig()
{
    auto cfg = core::DreamConfig::smartDropConfig();
    cfg.maxDropRate = 0.2;
    cfg.dropRateWindowFrames = 10;
    return cfg;
}

TEST(FrameDrop, NoDropWhenEveryoneMeetsDeadlines)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    cb.addRequest(t, 0.0, 1e6);
    cb.addRequest(cb.addTask(test::toyModel("toy2")), 0.0, 1e6);
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(dropConfig());
    EXPECT_FALSE(drop.selectDrop(cb.context(0.0), engine).has_value());
}

TEST(FrameDrop, Condition2NoDropForSingleViolation)
{
    test::ContextBuilder cb;
    const auto t1 = cb.addTask(test::toyModel("doomed"));
    const auto t2 = cb.addTask(test::toyModel("fine"));
    cb.addRequest(t1, 0.0, 1.0); // hopeless deadline
    cb.addRequest(t2, 0.0, 1e6);
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(dropConfig());
    // Only one expected violation: dropping would be redundant.
    EXPECT_FALSE(drop.selectDrop(cb.context(0.0), engine).has_value());
}

TEST(FrameDrop, DropsWorstRatioWhenMultipleViolations)
{
    test::ContextBuilder cb;
    const auto t1 = cb.addTask(test::toyModel("late1"));
    const auto t2 = cb.addTask(test::toyModel("late2", 2));
    auto* r1 = cb.addRequest(t1, 0.0, 2000.0);
    auto* r2 = cb.addRequest(t2, 0.0, 2000.0);
    (void)r1;
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(dropConfig());
    const auto victim = drop.selectDrop(cb.context(1900.0), engine);
    ASSERT_TRUE(victim.has_value());
    // late2 is the heavier model: higher minToGo / slack ratio.
    EXPECT_EQ(*victim, r2->id);
}

TEST(FrameDrop, Condition3OnlyLeavesDroppable)
{
    test::ContextBuilder cb;
    const auto parent = cb.addTask(test::toyModel("parent", 2));
    const auto child =
        cb.addTask(test::toyModel("child", 2), 30.0, parent);
    (void)child;
    auto* rp = cb.addRequest(parent, 0.0, 100.0);
    // A second doomed frame so condition 2 passes.
    const auto other = cb.addTask(test::toyModel("other", 2));
    auto* ro = cb.addRequest(other, 0.0, 100.0);
    (void)rp;
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(dropConfig());
    const auto victim = drop.selectDrop(cb.context(50.0), engine);
    ASSERT_TRUE(victim.has_value());
    // The parent is not a leaf; only `other` may be dropped.
    EXPECT_EQ(*victim, ro->id);
}

TEST(FrameDrop, Condition4BudgetCapsDropRate)
{
    test::ContextBuilder cb;
    const auto t1 = cb.addTask(test::toyModel("a", 2));
    const auto t2 = cb.addTask(test::toyModel("b", 2));
    cb.addRequest(t1, 0.0, 100.0);
    auto* r2 = cb.addRequest(t2, 0.0, 100.0);
    // Task t1 already at the cap: 2 drops in 10 finished frames.
    cb.stats().tasks[size_t(t1)].droppedFrames = 2;
    cb.stats().tasks[size_t(t1)].completedFrames = 8;
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(dropConfig());
    ASSERT_FALSE(
        drop.dropBudgetAvailable(cb.context(50.0), t1));
    EXPECT_TRUE(drop.dropBudgetAvailable(cb.context(50.0), t2));
    const auto victim = drop.selectDrop(cb.context(50.0), engine);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, r2->id);
}

TEST(FrameDrop, InFlightFramesAreNotDroppable)
{
    test::ContextBuilder cb;
    const auto t1 = cb.addTask(test::toyModel("a", 2));
    const auto t2 = cb.addTask(test::toyModel("b", 2));
    auto* r1 = cb.addRequest(t1, 0.0, 100.0);
    auto* r2 = cb.addRequest(t2, 0.0, 100.0);
    r1->inFlight = true; // running: cannot be pre-empted/dropped
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(dropConfig());
    const auto victim = drop.selectDrop(cb.context(50.0), engine);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, r2->id);
}

TEST(FrameDrop, ExpectedViolationUsesBestVariant)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toySupernet());
    auto* req = cb.addRequest(t, 0.0, 0.0);
    core::MapScoreEngine engine(1.0, 1.0);
    core::FrameDropEngine drop(dropConfig());
    // Pick a deadline between the light and heavy variants' minToGo:
    // the frame must NOT count as an expected violation because
    // switching can still save it.
    auto& ctx = cb.context(0.0);
    const double heavy = engine.minToGoUs(ctx, *req);
    const double best = engine.minToGoBestVariantUs(ctx, *req);
    ASSERT_LT(best, heavy);
    req->deadlineUs = (best + heavy) / 2.0;
    EXPECT_FALSE(drop.expectedViolation(ctx, engine, *req));
    req->deadlineUs = best / 2.0;
    EXPECT_TRUE(drop.expectedViolation(ctx, engine, *req));
}

/** selectDrop as it was before the victim-first rewrite: count the
 *  expected violations over every live frame, then pick the victim. */
std::optional<int>
countFirstSelectDrop(const core::FrameDropEngine& drop,
                     const sim::SchedulerContext& ctx,
                     const core::MapScoreEngine& scores)
{
    int expected_violations = 0;
    for (const auto* req : ctx.live) {
        if (drop.expectedViolation(ctx, scores, *req))
            ++expected_violations;
    }
    if (expected_violations <= 1)
        return std::nullopt;

    const sim::Request* victim = nullptr;
    double worst_ratio = 0.0;
    for (const auto* req : ctx.ready) {
        if (!drop.expectedViolation(ctx, scores, *req))
            continue;
        if (!ctx.scenario->isLeaf(req->task))
            continue;
        if (!drop.dropBudgetAvailable(ctx, req->task))
            continue;
        const double slack =
            std::max(req->deadlineUs - ctx.nowUs, 1.0);
        const double ratio =
            scores.minToGoBestVariantUs(ctx, *req) / slack;
        if (ratio > worst_ratio) {
            worst_ratio = ratio;
            victim = req;
        }
    }
    if (!victim)
        return std::nullopt;
    return victim->id;
}

TEST(FrameDrop, VictimFirstMatchesTheCountFirstReference)
{
    std::mt19937_64 rng(20230306);
    const auto uniform = [&rng](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    const auto pick = [&rng](int n) {
        return int(std::uniform_int_distribution<int>(0, n - 1)(rng));
    };
    // Outcome mix, so the states cover every branch: no victim, a
    // victim vetoed by condition 2, and a drop.
    int none = 0, vetoed = 0, dropped = 0;
    for (int state = 0; state < 400; ++state) {
        test::ContextBuilder cb;
        const int n_tasks = 2 + pick(4);
        for (int t = 0; t < n_tasks; ++t) {
            // Some tasks depend on an earlier one, which makes that
            // one a non-leaf; one in five is a Supernet (variant-aware
            // to-go).
            const workload::TaskId parent =
                t > 0 && pick(3) == 0 ? workload::TaskId(pick(t))
                                      : workload::kNoParent;
            const std::string tag = std::to_string(t);
            models::Model m =
                pick(5) == 0 ? test::toySupernet()
                             : test::toyModel(tag, uint32_t(1 + pick(3)));
            m.name += tag;
            cb.addTask(std::move(m), 30.0, parent);
        }
        std::vector<sim::Request*> reqs;
        const int n_reqs = 1 + pick(8);
        for (int r = 0; r < n_reqs; ++r)
            reqs.push_back(cb.addRequest(
                workload::TaskId(pick(n_tasks)), 0.0, 0.0));
        for (int t = 0; t < n_tasks; ++t) {
            // Exhausted budgets on some tasks (condition 4).
            auto& ts = cb.stats().tasks[size_t(t)];
            ts.completedFrames = uint64_t(pick(12));
            ts.droppedFrames = uint64_t(pick(4));
        }
        const double now = uniform(0.0, 1000.0);
        core::MapScoreEngine engine(1.0, 1.0);
        {
            // Deadlines around each frame's best to-go: a mix of
            // violating and non-violating frames.
            const auto& ctx = cb.context(now);
            for (auto* req : reqs)
                req->deadlineUs =
                    now + uniform(0.3, 1.7) *
                              engine.minToGoBestVariantUs(ctx, *req);
        }
        for (auto* req : reqs) {
            const int fate = pick(8);
            if (fate == 0)
                req->inFlight = true;
            else if (fate == 1)
                req->done = true;
        }
        core::FrameDropEngine drop(dropConfig());
        const auto& ctx = cb.context(now);
        const auto expected = countFirstSelectDrop(drop, ctx, engine);
        ASSERT_EQ(drop.selectDrop(ctx, engine), expected)
            << "state " << state;

        const bool eligible = std::any_of(
            ctx.ready.begin(), ctx.ready.end(), [&](const auto* req) {
                return drop.expectedViolation(ctx, engine, *req) &&
                       ctx.scenario->isLeaf(req->task) &&
                       drop.dropBudgetAvailable(ctx, req->task);
            });
        if (expected)
            ++dropped;
        else if (eligible)
            ++vetoed;
        else
            ++none;
    }
    EXPECT_GT(dropped, 20);
    EXPECT_GT(vetoed, 20);
    EXPECT_GT(none, 20);
}

} // namespace
} // namespace dream
