#include "core/frame_drop.h"

#include <algorithm>

namespace dream {
namespace core {

bool
FrameDropEngine::expectedViolation(const sim::SchedulerContext& ctx,
                                   const MapScoreEngine& scores,
                                   const sim::Request& req) const
{
    const double slack = req.deadlineUs - ctx.nowUs;
    // Variant-aware: a frame that Supernet switching can still save
    // is not a violation candidate.
    return scores.minToGoBestVariantUs(ctx, req) > slack;
}

bool
FrameDropEngine::dropBudgetAvailable(const sim::SchedulerContext& ctx,
                                     workload::TaskId task) const
{
    const auto& ts = ctx.stats->tasks[size_t(task)];
    // Cumulative-rate form of the per-window bound: one more drop must
    // keep the task at or under maxDropRate, evaluated against at
    // least one window's worth of frames so early drops are allowed.
    const double frames = std::max<double>(
        double(config_.dropRateWindowFrames),
        double(ts.completedFrames + ts.droppedFrames + 1));
    return (double(ts.droppedFrames) + 1.0) / frames <=
           config_.maxDropRate + 1e-12;
}

std::optional<int>
FrameDropEngine::selectDrop(const sim::SchedulerContext& ctx,
                            const MapScoreEngine& scores) const
{
    // Conditions 1, 3 and 4 pick the victim first: most rounds have
    // none, and then the O(live) condition-2 count below is skipped.
    const sim::Request* victim = nullptr;
    double worst_ratio = 0.0;
    for (const auto* req : ctx.ready) { // droppable: not in flight
        // Condition 1.
        if (!expectedViolation(ctx, scores, *req))
            continue;
        // Condition 3: only pipeline leaves may be dropped.
        if (!ctx.scenario->isLeaf(req->task))
            continue;
        // Condition 4: drop-rate bound.
        if (!dropBudgetAvailable(ctx, req->task))
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

    // Condition 2: more than one live job expected to violate. The
    // victim is live and violating, so this only needs a second one.
    int expected_violations = 0;
    for (const auto* req : ctx.live) {
        if (expectedViolation(ctx, scores, *req) &&
            ++expected_violations > 1)
            return victim->id;
    }
    return std::nullopt;
}

} // namespace core
} // namespace dream
