/** @file Tests for engine::ParamSearch: the shrinking-radius walk of
 *  Section 3.6, its recorded trajectory, and the no-duplicate-
 *  simulation guarantee of its transposition table. */

#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptivity.h"
#include "engine/param_eval.h"
#include "engine/param_search.h"
#include "engine/worker_pool.h"
#include "hw/system.h"
#include "workload/scenario.h"

namespace dream {
namespace {

double
bowl(double a, double b)
{
    const double da = a - 0.7;
    const double db = b - 1.3;
    return da * da + db * db;
}

/** Deterministic synthetic objective: a bowl with its minimum inside
 *  the search box, counting every point it actually evaluates. */
struct CountingBowl {
    std::map<std::pair<double, double>, int> evals;
    int points = 0;

    core::BatchCostFn fn()
    {
        return [this](
                   const std::vector<std::pair<double, double>>& pts) {
            std::vector<double> out;
            out.reserve(pts.size());
            for (const auto& p : pts) {
                ++points;
                ++evals[p];
                out.push_back(bowl(p.first, p.second));
            }
            return out;
        };
    }
};

/** Batched wrapper of a scalar test objective. */
template <typename F>
core::BatchCostFn
batched(F f)
{
    return [f](const std::vector<std::pair<double, double>>& pts) {
        std::vector<double> out;
        out.reserve(pts.size());
        for (const auto& p : pts)
            out.push_back(f(p.first, p.second));
        return out;
    };
}

void
expectResultsBitIdentical(const core::SearchResult& a,
                          const core::SearchResult& b)
{
    EXPECT_EQ(a.alpha, b.alpha);
    EXPECT_EQ(a.beta, b.beta);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.evaluations, b.evaluations);
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    for (size_t i = 0; i < a.trajectory.size(); ++i) {
        EXPECT_EQ(a.trajectory[i].alpha, b.trajectory[i].alpha);
        EXPECT_EQ(a.trajectory[i].beta, b.trajectory[i].beta);
        EXPECT_EQ(a.trajectory[i].cost, b.trajectory[i].cost);
        EXPECT_EQ(a.trajectory[i].radius, b.trajectory[i].radius);
        EXPECT_EQ(a.trajectory[i].step, b.trajectory[i].step);
    }
}

TEST(ParamSearch, MemoizedResultIsBitIdenticalToCoreSearch)
{
    // The trajectory the plain, un-memoized shrinking-radius search
    // (radius 0.5 -> 0.05 on [0, 2]^2) walks on the bowl from
    // (0.2, 1.8), recorded bit for bit: the memo must not change it.
    const core::SearchStep expected[] = {
        {0x1.999999999999ap-3, 0x1.ccccccccccccdp+0, 0x1.fffffffffffffp-2,
         0x1p-1, 0},
        {0x1.cccccccccccccp-2, 0x1.8cccccccccccdp+0, 0x1p-3, 0x1p-1, 1},
        {0x1.2666666666666p-1, 0x1.6cccccccccccdp+0, 0x1p-5, 0x1p-2, 2},
        {0x1.4666666666666p-1, 0x1.5cccccccccccdp+0, 0x1p-7, 0x1p-3, 3},
        {0x1.5666666666666p-1, 0x1.54ccccccccccdp+0, 0x1p-9, 0x1p-4, 4},
    };
    CountingBowl cost;
    engine::ParamSearch memo(cost.fn());
    const auto got = memo.optimize(0.2, 1.8);

    ASSERT_EQ(got.trajectory.size(), std::size(expected));
    for (size_t i = 0; i < got.trajectory.size(); ++i) {
        const auto& s = got.trajectory[i];
        EXPECT_EQ(s.alpha, expected[i].alpha) << i;
        EXPECT_EQ(s.beta, expected[i].beta) << i;
        EXPECT_EQ(s.cost, expected[i].cost) << i;
        EXPECT_EQ(s.radius, expected[i].radius) << i;
        EXPECT_EQ(s.step, expected[i].step) << i;
        // Every trajectory cost is the objective at that point, not
        // a table entry filed under another key.
        EXPECT_EQ(s.cost, bowl(s.alpha, s.beta)) << i;
    }
    EXPECT_EQ(got.alpha, 0x1.5666666666666p-1);
    EXPECT_EQ(got.beta, 0x1.54ccccccccccdp+0);
    EXPECT_EQ(got.cost, 0x1p-9);
    EXPECT_EQ(got.evaluations, 37);
    // The walk revisits clamped/interpolated points; the memo reaches
    // the same answer with strictly fewer executions.
    EXPECT_LT(got.simulated, got.evaluations);
    EXPECT_EQ(got.simulated + got.memoHits, got.evaluations);
    EXPECT_EQ(got.simulated, cost.points);
}

TEST(ParamSearch, NoPointIsEverSimulatedTwice)
{
    CountingBowl cost;
    engine::ParamSearch memo(cost.fn());
    for (const auto& [a0, b0] : std::vector<std::pair<double, double>>{
             {0.2, 1.8}, {1.9, 0.1}, {1.0, 1.0}, {0.0, 0.0}, {0.2, 1.8}})
        memo.optimize(a0, b0);

    for (const auto& [point, count] : cost.evals)
        EXPECT_EQ(count, 1) << "point (" << point.first << ", "
                            << point.second << ") re-simulated";
    // Executions == distinct points evaluated: the table IS the
    // record of what was simulated.
    EXPECT_EQ(memo.simulations(), uint64_t(cost.points));
    EXPECT_EQ(memo.simulations(), uint64_t(cost.evals.size()));
}

TEST(ParamSearch, RepeatSearchIsServedEntirelyFromTheTable)
{
    CountingBowl cost;
    engine::ParamSearch memo(cost.fn());
    const auto first = memo.optimize(0.2, 1.8);
    const int executed = cost.points;

    const auto second = memo.optimize(0.2, 1.8);
    expectResultsBitIdentical(first, second);
    EXPECT_EQ(second.simulated, 0);
    EXPECT_EQ(second.memoHits, second.evaluations);
    EXPECT_EQ(cost.points, executed);
    EXPECT_EQ(memo.simulations(), uint64_t(executed));
}

TEST(ParamSearch, ConvergesOnConvexBowl)
{
    // Minimum at (0.7, 1.3).
    engine::ParamSearch search(batched(bowl));
    const auto r = search.optimize(1.9, 0.1);
    EXPECT_NEAR(r.alpha, 0.7, 0.15);
    EXPECT_NEAR(r.beta, 1.3, 0.15);
    EXPECT_LT(r.cost, 0.05);
    EXPECT_EQ(r.evaluations, 37);
    EXPECT_FALSE(r.trajectory.empty());
}

TEST(ParamSearch, RespectsBounds)
{
    engine::ParamSearch search(
        batched([](double a, double b) { return -(a + b); }));
    const auto r = search.optimize(1.0, 1.0);
    EXPECT_LE(r.alpha, 2.0);
    EXPECT_LE(r.beta, 2.0);
    EXPECT_GE(r.alpha, 0.0);
    EXPECT_GE(r.beta, 0.0);
    // The optimum of -(a+b) on [0,2]^2 is the (2,2) corner.
    EXPECT_NEAR(r.alpha, 2.0, 0.26);
    EXPECT_NEAR(r.beta, 2.0, 0.26);
}

TEST(ParamSearch, TrajectoryMonotoneSteps)
{
    engine::ParamSearch search(batched([](double a, double b) {
        return (a - 1.0) * (a - 1.0) + (b - 1.0) * (b - 1.0);
    }));
    const auto r = search.optimize(0.0, 2.0);
    // Accepted cost never increases along the trajectory.
    for (size_t i = 1; i < r.trajectory.size(); ++i)
        EXPECT_LE(r.trajectory[i].cost, r.trajectory[i - 1].cost + 1e-12);
    // Steps are numbered consecutively from zero.
    for (size_t i = 0; i < r.trajectory.size(); ++i)
        EXPECT_EQ(r.trajectory[i].step, int(i));
}

TEST(ParamSearch, RadiusShrinksBelowThreshold)
{
    int evals = 0;
    engine::ParamSearch search(batched([&evals](double, double) {
        ++evals;
        return 1.0;
    }));
    const auto r = search.optimize(1.0, 1.0);
    // Radii 0.5, 0.25, 0.125, 0.0625 (the next, 0.03125, is below the
    // 0.05 threshold) -> 4 refinement steps + initial point.
    ASSERT_EQ(r.trajectory.size(), 5u);
    EXPECT_EQ(r.trajectory.back().radius, 0.0625);
    EXPECT_EQ(evals, r.simulated);
    EXPECT_EQ(r.simulated + r.memoHits, r.evaluations);
}

TEST(ParamSearch, SimulationBackedCostsMatchTheBatchEvaluator)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    engine::WorkerPool pool(2);

    engine::ParamSearch memo(system, scenario, pool);
    const auto got = memo.optimize(0.2, 1.8);
    EXPECT_EQ(memo.simulations() + memo.transpositionHits(),
              uint64_t(got.evaluations));
    EXPECT_LT(got.simulated, got.evaluations);

    // Every trajectory cost is the simulated objective at that point.
    std::vector<std::pair<double, double>> pts;
    for (const auto& s : got.trajectory)
        pts.push_back({s.alpha, s.beta});
    const auto direct =
        engine::makeBatchEvaluator(system, scenario, pool)(pts);
    for (size_t i = 0; i < pts.size(); ++i)
        EXPECT_EQ(got.trajectory[i].cost, direct[i]) << i;
}

TEST(ParamSearch, SimulationBackedSearchIsJobsInvariant)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);

    const auto search = [&](int jobs) {
        engine::WorkerPool pool(jobs);
        engine::ParamSearch memo(system, scenario, pool);
        const auto r = memo.optimize(0.2, 1.8);
        EXPECT_EQ(memo.simulations() + memo.transpositionHits(),
                  uint64_t(r.evaluations));
        EXPECT_EQ(memo.simulations(), uint64_t(r.simulated));
        return r;
    };
    const auto serial = search(1);
    const auto parallel = search(4);
    expectResultsBitIdentical(serial, parallel);
    EXPECT_EQ(serial.simulated, parallel.simulated);
    EXPECT_EQ(serial.memoHits, parallel.memoHits);
}

} // anonymous namespace
} // namespace dream
