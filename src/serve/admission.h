/**
 * @file
 * Online admission control for serve mode: a bounded ingest gate in
 * front of the simulator. Each offered frame is either admitted,
 * admitted on a degraded (lightest Supernet variant) path, or
 * rejected, based on the live queue depth and a projected-backlog
 * estimate derived from the cost table's best-case path latencies.
 */

#ifndef DREAM_SERVE_ADMISSION_H
#define DREAM_SERVE_ADMISSION_H

#include <cstdint>
#include <vector>

#include "costmodel/cost_table.h"
#include "workload/frame_source.h"
#include "workload/scenario.h"

namespace dream {
namespace serve {

/** What to do with an arrival that would overload the system. */
enum class OverloadPolicy {
    /** Drop the frame at the door (never enters the simulator). */
    Reject,
    /**
     * Re-materialise the frame on its model's lightest Supernet
     * variant path; tasks without variants fall back to Reject.
     */
    Degrade,
};

struct AdmissionConfig {
    /** Reject when this many frames are live (0 = unbounded). */
    size_t maxQueueDepth = 0;
    /** Reject/degrade when the projected backlog would exceed this
     *  many microseconds of best-case work (0 = unbounded). */
    double maxBacklogUs = 0.0;
    OverloadPolicy policy = OverloadPolicy::Reject;

    /** True when any bound is active. */
    bool
    enabled() const
    {
        return maxQueueDepth > 0 || maxBacklogUs > 0.0;
    }
};

enum class AdmissionDecision { Admit, Degrade, Reject };

struct AdmissionStats {
    uint64_t offered = 0;
    uint64_t admitted = 0;  ///< admitted on the original path
    uint64_t degraded = 0;  ///< admitted on the degraded path
    uint64_t rejected = 0;
};

/**
 * The admission gate. Deterministic: decisions depend only on the
 * offered frame sequence, the queue depths the caller reports, and
 * the immutable cost table — never on wall time.
 *
 * The backlog model is intentionally simple (the gate must be cheap):
 * admitting a frame adds its best-case path latency, and the backlog
 * drains at the aggregate service rate (numAccels microseconds of
 * work per microsecond of virtual time). Cascade children admitted
 * inside the simulator bypass the gate — admission governs ingest,
 * dependent pipeline stages ride on their parent's admission.
 */
class AdmissionController {
public:
    AdmissionController(const AdmissionConfig& config,
                        const workload::Scenario& scenario,
                        const cost::CostTable& costs);

    /**
     * Decide one arrival at virtual time @p now_us with
     * @p queue_depth frames live in the simulator. On Degrade the
     * frame's path is replaced in place. Frames must be offered in
     * nondecreasing time order.
     */
    AdmissionDecision offer(workload::FrameSpec& frame, double now_us,
                            size_t queue_depth);

    /** Drain the backlog projection to @p now_us without deciding a
     *  frame (telemetry snapshots between arrivals). */
    void advanceTo(double now_us);

    /** Best-case work admitted but not yet projected-drained (us). */
    double backlogUs() const { return backlogUs_; }

    const AdmissionStats& stats() const { return stats_; }

private:
    double pathLatencyUs(
        const std::vector<models::Layer>& path) const;

    AdmissionConfig config_;
    const cost::CostTable* costs_;
    double capacity_;  ///< us of work drained per us (numAccels)
    /** Per task: the lightest Supernet variant path (empty when the
     *  task's model has no variants) and its best-case latency. */
    std::vector<std::vector<models::Layer>> degradePath_;
    std::vector<double> degradeLatencyUs_;
    double backlogUs_ = 0.0;
    double lastNowUs_ = 0.0;
    AdmissionStats stats_;
};

} // namespace serve
} // namespace dream

#endif // DREAM_SERVE_ADMISSION_H
