/**
 * @file
 * (alpha, beta) parameter-space evaluation on the sweep engine —
 * the engine-side home of what bench/search_util.h used to provide
 * for Figures 3, 10, 11 and 13.
 *
 * makeBatchEvaluator() scores a batch of parameter pairs, each by a
 * short fixed-parameter DREAM simulation, concurrently on a
 * WorkerPool (the evaluator of engine::ParamSearch and of the
 * OnlineTuner's batched rounds); paramSpaceGrid() declares the
 * [0, 2]^2 scan of the parameter space as a SweepGrid so the full
 * grid runs through Engine::run() with any --jobs value.
 */

#ifndef DREAM_ENGINE_PARAM_EVAL_H
#define DREAM_ENGINE_PARAM_EVAL_H

#include <vector>

#include "core/adaptivity.h"
#include "core/dream_scheduler.h"
#include "engine/engine.h"
#include "engine/sweep_grid.h"
#include "engine/worker_pool.h"
#include "metrics/uxcost.h"

namespace dream {
namespace engine {

/** Window used for each parameter evaluation run. */
constexpr double kSearchWindowUs = 1e6;

/** Default seed of parameter evaluation runs. */
constexpr uint64_t kSearchSeed = 11;

/**
 * Batched cost function over (alpha, beta): for each pair, the
 * objective of a fixed-parameter smart-drop DREAM run on
 * (system, scenario) over kSearchWindowUs, evaluated concurrently on
 * @p pool. Results are positional and independent of the pool's
 * worker count. Captures @p system, @p scenario and @p pool by
 * reference.
 */
core::BatchCostFn
makeBatchEvaluator(const hw::SystemConfig& system,
                   const workload::Scenario& scenario,
                   const WorkerPool& pool,
                   metrics::Objective objective =
                       metrics::Objective::UxCost,
                   uint64_t seed = kSearchSeed);

/**
 * Install a batched candidate evaluator on @p sched's online tuner
 * (ROADMAP item "OnlineTuner trial windows reuse the batched
 * evaluator"): tuning rounds in simulation studies then evaluate
 * their candidate (alpha, beta) pairs concurrently on @p pool in
 * forked short runs instead of consuming consecutive live trial
 * windows. Captures @p system, @p scenario and @p pool by reference.
 */
void attachBatchTuner(core::DreamScheduler& sched,
                      const hw::SystemConfig& system,
                      const workload::Scenario& scenario,
                      const WorkerPool& pool,
                      metrics::Objective objective =
                          metrics::Objective::UxCost,
                      uint64_t seed = kSearchSeed);

/**
 * Scheduler axis of parameter sweeps: fixed-(alpha, beta) DREAM with
 * smart drop, reading the grid parameters "alpha" and "beta".
 */
SchedulerSpec dreamFixedParamScheduler();

/**
 * The n x n scan of (alpha, beta) in [0, 2]^2 used as the global-
 * optimum reference of Figures 3, 10 and 11, as an engine grid:
 * one scenario, one system, dreamFixedParamScheduler(), and
 * linspace parameter axes "alpha" (outer) and "beta" (inner).
 */
SweepGrid paramSpaceGrid(hw::SystemPreset system,
                         workload::ScenarioPreset scenario, int n,
                         double window_us = kSearchWindowUs,
                         uint64_t seed = kSearchSeed);

/** Minimum-UXCost point of a parameter sweep's records. */
struct ParamOptimum {
    double alpha = 0.0;
    double beta = 0.0;
    double cost = 0.0;
};

/**
 * Locate the optimum over @p records (first record wins ties, i.e.
 * row-major grid order).
 */
ParamOptimum bestParams(const std::vector<RunRecord>& records);

} // namespace engine
} // namespace dream

#endif // DREAM_ENGINE_PARAM_EVAL_H
