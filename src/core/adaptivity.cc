#include "core/adaptivity.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace dream {
namespace core {

double
windowedObjective(metrics::Objective objective,
                  const sim::RunStats& begin, const sim::RunStats& end)
{
    assert(begin.tasks.size() == end.tasks.size());
    sim::RunStats window;
    window.tasks.resize(end.tasks.size());
    for (size_t t = 0; t < end.tasks.size(); ++t) {
        auto& w = window.tasks[t];
        const auto& s0 = begin.tasks[t];
        const auto& s1 = end.tasks[t];
        w.model = s1.model;
        w.totalFrames = s1.totalFrames - s0.totalFrames;
        w.completedFrames = s1.completedFrames - s0.completedFrames;
        w.violatedFrames = s1.violatedFrames - s0.violatedFrames;
        w.droppedFrames = s1.droppedFrames - s0.droppedFrames;
        w.energyMj = s1.energyMj - s0.energyMj;
        w.worstCaseEnergyMj = s1.worstCaseEnergyMj -
                              s0.worstCaseEnergyMj;
    }
    return metrics::evaluate(objective, window);
}

OnlineTuner::OnlineTuner(const DreamConfig& config) : config_(config)
{
    curAlpha_ = config.alpha;
    curBeta_ = config.beta;
}

uint64_t
OnlineTuner::fingerprint(const sim::SchedulerContext& ctx) const
{
    // The inference-model list the paper's adaptivity engine tracks:
    // which tasks currently have live requests.
    uint64_t fp = 0;
    for (const auto* req : ctx.live)
        fp |= 1ull << (unsigned(req->task) & 63u);
    return fp;
}

void
OnlineTuner::setBatchEvaluator(BatchCostFn evaluate)
{
    batchEvaluate_ = std::move(evaluate);
}

void
OnlineTuner::reset()
{
    phase_ = Phase::Idle;
    radius_ = 0.0;
    curAlpha_ = config_.alpha;
    curBeta_ = config_.beta;
    candidates_.clear();
    trialIdx_ = 0;
    trialEndUs_ = -1.0;
    trialStart_ = sim::RunStats{};
    lastFingerprint_ = 0;
    lastViolationFraction_ = 0.0;
    started_ = false;
    completedSteps_ = 0;
    retriggers_ = 0;
}

void
OnlineTuner::buildCandidates()
{
    candidates_.clear();
    const auto add = [this](double pa, double pb) {
        pa = std::min(config_.paramMax, std::max(config_.paramMin, pa));
        pb = std::min(config_.paramMax, std::max(config_.paramMin, pb));
        for (const auto& c : candidates_) {
            if (std::abs(c.alpha - pa) < 1e-9 &&
                std::abs(c.beta - pb) < 1e-9) {
                return;
            }
        }
        candidates_.push_back({pa, pb, 0.0, false});
    };
    // Online rounds probe only the immediate neighbourhood: unlike
    // the offline search, every probe executes real frames, so
    // distant (potentially bad) parameter pairs are not worth the
    // exploration cost while the workload is live.
    add(curAlpha_, curBeta_);
    add(curAlpha_ + radius_, curBeta_);
    add(curAlpha_ - radius_, curBeta_);
    add(curAlpha_, curBeta_ + radius_);
    add(curAlpha_, curBeta_ - radius_);
}

void
OnlineTuner::startRound(const sim::SchedulerContext& ctx,
                        MapScoreEngine& engine)
{
    buildCandidates();

    if (batchEvaluate_) {
        // Simulation-study path: the candidates of each round are
        // independent, so evaluate them as one batch (concurrently
        // on the caller's worker pool) and complete rounds
        // synchronously until the radius passes the threshold.
        phase_ = Phase::Trial;
        while (phase_ == Phase::Trial) {
            std::vector<std::pair<double, double>> pts;
            pts.reserve(candidates_.size());
            for (const auto& c : candidates_)
                pts.push_back({c.alpha, c.beta});
            const std::vector<double> costs = batchEvaluate_(pts);
            assert(costs.size() == pts.size());
            for (size_t i = 0; i < candidates_.size(); ++i) {
                candidates_[i].cost = costs[i];
                candidates_[i].evaluated = true;
            }
            finishRound(engine);
            if (phase_ == Phase::Trial)
                buildCandidates();
        }
        return;
    }

    phase_ = Phase::Trial;
    beginTrial(ctx, engine, 0);
}

void
OnlineTuner::beginTrial(const sim::SchedulerContext& ctx,
                        MapScoreEngine& engine, size_t candidate)
{
    trialIdx_ = candidate;
    trialStart_ = *ctx.stats;
    trialEndUs_ = ctx.nowUs + config_.trialWindowUs;
    engine.setParams(candidates_[candidate].alpha,
                     candidates_[candidate].beta);
}

void
OnlineTuner::finishRound(MapScoreEngine& engine)
{
    // Move to the interpolation of the two minimum-cost candidates —
    // but only when the winner beats the current point's own measured
    // cost by a clear margin, so windowed measurement noise cannot
    // drag the parameters away from a good operating point.
    size_t best = 0, second = 0;
    double best_c = std::numeric_limits<double>::max();
    double second_c = best_c;
    for (size_t i = 0; i < candidates_.size(); ++i) {
        const double c = candidates_[i].cost;
        if (c < best_c) {
            second = best;
            second_c = best_c;
            best = i;
            best_c = c;
        } else if (c < second_c) {
            second = i;
            second_c = c;
        }
    }
    // candidates_[0] is always the current point.
    const double current_cost = candidates_[0].cost;
    if (best != 0 &&
        best_c < current_cost * config_.onlineImprovementFactor) {
        curAlpha_ = 0.5 * (candidates_[best].alpha +
                           candidates_[second].alpha);
        curBeta_ = 0.5 * (candidates_[best].beta +
                          candidates_[second].beta);
        engine.setParams(curAlpha_, curBeta_);
    } else {
        engine.setParams(curAlpha_, curBeta_);
    }
    radius_ *= 0.5;
    ++completedSteps_;
    phase_ = (radius_ < config_.radiusThreshold) ? Phase::Idle
                                                 : Phase::Trial;
}

double
OnlineTuner::update(const sim::SchedulerContext& ctx,
                    MapScoreEngine& engine)
{
    if (!config_.paramOptimization)
        return -1.0;

    if (!started_) {
        started_ = true;
        lastFingerprint_ = fingerprint(ctx);
        radius_ = config_.initialRadius;
        startRound(ctx, engine);
        return phase_ == Phase::Trial ? trialEndUs_ : -1.0;
    }

    if (phase_ == Phase::Trial) {
        if (ctx.nowUs + 1e-9 < trialEndUs_)
            return trialEndUs_;
        // Close the current trial.
        candidates_[trialIdx_].cost =
            windowedObjective(config_.objective, trialStart_,
                              *ctx.stats);
        candidates_[trialIdx_].evaluated = true;
        if (trialIdx_ + 1 < candidates_.size()) {
            beginTrial(ctx, engine, trialIdx_ + 1);
            return trialEndUs_;
        }
        finishRound(engine);
        if (phase_ == Phase::Trial) {
            startRound(ctx, engine);
            return trialEndUs_;
        }
        return -1.0;
    }

    // Idle: watch for workload changes (task set or violation level).
    const uint64_t fp = fingerprint(ctx);
    const double viol = ctx.stats->violationFraction();
    const bool task_change = fp != lastFingerprint_ && fp != 0;
    const bool load_change =
        std::abs(viol - lastViolationFraction_) > 0.15;
    lastFingerprint_ = fp != 0 ? fp : lastFingerprint_;
    lastViolationFraction_ = viol;
    if (task_change || load_change) {
        ++retriggers_;
        radius_ = config_.initialRadius;
        startRound(ctx, engine);
        return phase_ == Phase::Trial ? trialEndUs_ : -1.0;
    }
    return -1.0;
}

} // namespace core
} // namespace dream
