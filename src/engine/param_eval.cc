#include "engine/param_eval.h"

#include <cassert>
#include <limits>

#include "core/dream_config.h"
#include "core/dream_scheduler.h"
#include "runner/experiment.h"

namespace dream {
namespace engine {

core::BatchCostFn
makeBatchEvaluator(const hw::SystemConfig& system,
                   const workload::Scenario& scenario,
                   const WorkerPool& pool, metrics::Objective objective,
                   uint64_t seed)
{
    return [&system, &scenario, &pool, objective,
            seed](const std::vector<std::pair<double, double>>& pts) {
        std::vector<double> out(pts.size());
        pool.parallelFor(pts.size(), [&](size_t i) {
            core::DreamConfig cfg = core::DreamConfig::fixedParams(
                pts[i].first, pts[i].second);
            cfg.smartDrop = true;
            core::DreamScheduler sched(cfg);
            const auto r = runner::runOnce(system, scenario, sched,
                                           kSearchWindowUs, seed);
            out[i] = metrics::evaluate(objective, r.stats);
        });
        return out;
    };
}

void
attachBatchTuner(core::DreamScheduler& sched,
                 const hw::SystemConfig& system,
                 const workload::Scenario& scenario,
                 const WorkerPool& pool, metrics::Objective objective,
                 uint64_t seed)
{
    sched.tuner().setBatchEvaluator(
        makeBatchEvaluator(system, scenario, pool, objective, seed));
}

SchedulerSpec
dreamFixedParamScheduler()
{
    SchedulerSpec spec;
    spec.name = "DREAM-Fixed";
    spec.make = [](const ParamMap& params) {
        core::DreamConfig cfg = core::DreamConfig::fixedParams(
            paramValue(params, "alpha"), paramValue(params, "beta"));
        cfg.smartDrop = true;
        return std::unique_ptr<sim::Scheduler>(
            std::make_unique<core::DreamScheduler>(cfg));
    };
    return spec;
}

SweepGrid
paramSpaceGrid(hw::SystemPreset system, workload::ScenarioPreset scenario,
               int n, double window_us, uint64_t seed)
{
    assert(n >= 2 && "parameter grid needs at least 2 points per axis");
    SweepGrid grid;
    grid.addScenario(scenario)
        .addSystem(system)
        .linspaceParam("alpha", 0.0, 2.0, n)
        .linspaceParam("beta", 0.0, 2.0, n)
        .seeds({seed})
        .window(window_us);
    const SchedulerSpec sched = dreamFixedParamScheduler();
    grid.addScheduler(sched.name, sched.make);
    return grid;
}

ParamOptimum
bestParams(const std::vector<RunRecord>& records)
{
    assert(!records.empty());
    ParamOptimum best;
    best.cost = std::numeric_limits<double>::max();
    for (const auto& r : records) {
        if (r.uxCost < best.cost) {
            best.alpha = paramValue(r.params, "alpha");
            best.beta = paramValue(r.params, "beta");
            best.cost = r.uxCost;
        }
    }
    return best;
}

} // namespace engine
} // namespace dream
