/**
 * @file
 * Adaptivity engine (Sections 3.6 and 4.4).
 *
 *  - SearchResult / BatchCostFn: the result and evaluator types of
 *    the offline iterative (alpha, beta) optimisation of Section 3.6
 *    (Figures 3, 10, 11, 13). The search itself is
 *    engine::ParamSearch (engine/param_search.h), which runs it on a
 *    transposition table.
 *
 *  - OnlineTuner: the non-blocking run-time variant of Section 4.4 —
 *    tests a small number of (alpha, beta) pairs around the current
 *    value in consecutive short execution windows, moves to the pair
 *    with the lowest windowed UXCost, and re-triggers itself when the
 *    workload fingerprint or the violation/drop level changes. The
 *    workload keeps executing with valid schedules throughout.
 */

#ifndef DREAM_CORE_ADAPTIVITY_H
#define DREAM_CORE_ADAPTIVITY_H

#include <functional>
#include <utility>
#include <vector>

#include "core/dream_config.h"
#include "core/mapscore.h"
#include "sim/scheduler.h"

namespace dream {
namespace core {

/** One evaluated point of an offline search. */
struct SearchStep {
    double alpha = 0.0;
    double beta = 0.0;
    double cost = 0.0;
    double radius = 0.0;
    int step = 0;  ///< optimisation step index (0 == initial point)
};

/** Result of an offline search. */
struct SearchResult {
    double alpha = 0.0;
    double beta = 0.0;
    double cost = 0.0;
    /** The point accepted after each step (Figure 10 trajectory). */
    std::vector<SearchStep> trajectory;
    /** Every point evaluated (for search-cost accounting). */
    int evaluations = 0;
    /** Candidate evaluations served from the search's
     *  transposition table (evaluations == memoHits + simulated). */
    int memoHits = 0;
    /** Cost-function executions actually performed. */
    int simulated = 0;
};

/**
 * Batched cost callback: objective values for a list of (alpha,
 * beta) pairs, in order; lower is better. Lets callers evaluate the
 * independent candidate points of one search step concurrently
 * (e.g. on the sweep engine's WorkerPool) while the search itself
 * stays sequential.
 */
using BatchCostFn = std::function<std::vector<double>(
    const std::vector<std::pair<double, double>>&)>;

/**
 * Windowed objective between two cumulative stats snapshots: applies
 * Algorithm 2 to the per-task deltas of the interval.
 */
double windowedObjective(metrics::Objective objective,
                         const sim::RunStats& begin,
                         const sim::RunStats& end);

/** Non-blocking run-time (alpha, beta) tuner. */
class OnlineTuner {
public:
    explicit OnlineTuner(const DreamConfig& config);

    /**
     * Advance the tuner state machine; may update @p engine's
     * parameters.
     *
     * @return the time at which the tuner wants to be re-invoked, or
     *         a negative value if no timer is needed.
     */
    double update(const sim::SchedulerContext& ctx,
                  MapScoreEngine& engine);

    /**
     * Simulation-study shortcut: when set, each tuning round
     * evaluates its candidate (alpha, beta) pairs through one
     * batched call (e.g. engine::makeBatchEvaluator, which runs the
     * batch concurrently on a worker pool) instead of consuming
     * consecutive live trial windows. Rounds then complete
     * synchronously inside update(), shrinking the radius until the
     * threshold passes — the workload never runs under probe
     * parameters. Deterministic for any worker count as long as the
     * evaluator is (the engine's is).
     */
    void setBatchEvaluator(BatchCostFn evaluate);

    /**
     * Return to the initial (not-yet-started) state for a fresh run,
     * keeping the configuration and any installed batch evaluator.
     */
    void reset();

    /** True while a tuning round is in flight. */
    bool tuning() const { return phase_ == Phase::Trial; }
    /** Completed tuning rounds (radius shrink steps). */
    int completedSteps() const { return completedSteps_; }
    /** Tuning restarts triggered by workload changes. */
    int retriggers() const { return retriggers_; }

private:
    enum class Phase { Idle, Trial };

    struct Candidate {
        double alpha, beta, cost;
        bool evaluated = false;
    };

    void buildCandidates();
    void startRound(const sim::SchedulerContext& ctx,
                    MapScoreEngine& engine);
    void beginTrial(const sim::SchedulerContext& ctx,
                    MapScoreEngine& engine, size_t candidate);
    void finishRound(MapScoreEngine& engine);
    uint64_t fingerprint(const sim::SchedulerContext& ctx) const;

    DreamConfig config_;
    BatchCostFn batchEvaluate_;
    Phase phase_ = Phase::Idle;
    double radius_ = 0.0;
    double curAlpha_ = 1.0;
    double curBeta_ = 1.0;
    std::vector<Candidate> candidates_;
    size_t trialIdx_ = 0;
    double trialEndUs_ = -1.0;
    sim::RunStats trialStart_;
    uint64_t lastFingerprint_ = 0;
    double lastViolationFraction_ = 0.0;
    bool started_ = false;
    int completedSteps_ = 0;
    int retriggers_ = 0;
};

} // namespace core
} // namespace dream

#endif // DREAM_CORE_ADAPTIVITY_H
