/**
 * @file
 * The offline (alpha, beta) search of Section 3.6, memoized on a
 * transposition table (the AlphaBetaSearch + hash_table idiom).
 *
 * Each step samples neighbouring pairs at the radius and distant
 * pairs at twice the radius, moves to the interpolation of the two
 * minimum-cost pairs, and halves the radius until it passes the
 * threshold (Figures 3, 10, 11 and 13). Radius, threshold and bounds
 * are core::DreamConfig's defaults, the values OnlineTuner reads.
 *
 * The walk re-visits parameter points constantly: clamped candidates
 * collapse onto bounds, interpolated moves land on already-probed
 * pairs, and consecutive searches over one workload (Figure 10's case
 * (c) -> (d)) re-walk the same region. The table, keyed by the exact
 * (alpha, beta) bit patterns, serves every revisit, so a point is
 * never evaluated twice on one searcher, within one optimize() call
 * or across calls.
 *
 * Determinism: the memo only short-circuits re-evaluations of a
 * deterministic evaluator at bit-identical points, so the result is
 * the one the un-memoized walk gives, trajectory included
 * (tests/test_param_search.cc pins it bit for bit).
 */

#ifndef DREAM_ENGINE_PARAM_SEARCH_H
#define DREAM_ENGINE_PARAM_SEARCH_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/adaptivity.h"
#include "engine/param_eval.h"
#include "engine/worker_pool.h"

namespace dream {
namespace engine {

/** Memoized shrinking-radius (alpha, beta) searcher. */
class ParamSearch {
public:
    struct Options {
        metrics::Objective objective = metrics::Objective::UxCost;
        uint64_t seed = kSearchSeed;
    };

    /**
     * Search over fixed-parameter DREAM simulations of
     * (system, scenario): makeBatchEvaluator(system, scenario, pool,
     * opts.objective, opts.seed), which captures its arguments by
     * reference.
     */
    ParamSearch(const hw::SystemConfig& system,
                const workload::Scenario& scenario,
                const WorkerPool& pool, Options opts);
    ParamSearch(const hw::SystemConfig& system,
                const workload::Scenario& scenario,
                const WorkerPool& pool);

    /** Search over an explicit batched cost function. */
    explicit ParamSearch(core::BatchCostFn evaluate);

    /**
     * Run the search from (a0, b0). Each step's candidates go to the
     * evaluator as one batch; memoHits/simulated report this call's
     * transposition traffic.
     */
    core::SearchResult optimize(double a0, double b0);

    /** Cost-function executions across this searcher's lifetime. */
    uint64_t simulations() const { return simulations_; }
    /** Evaluations served from the transposition table. */
    uint64_t transpositionHits() const { return hits_; }

private:
    /** Exact transposition key: the (alpha, beta) bit patterns. */
    using PointKey = std::pair<uint64_t, uint64_t>;

    /** Costs of @p pts, evaluating only first occurrences of points
     *  missing from the table; later duplicates count as hits. */
    std::vector<double>
    evaluate(const std::vector<std::pair<double, double>>& pts);

    core::BatchCostFn evaluate_;
    std::map<PointKey, double> table_;
    uint64_t simulations_ = 0;
    uint64_t hits_ = 0;
};

} // namespace engine
} // namespace dream

#endif // DREAM_ENGINE_PARAM_SEARCH_H
