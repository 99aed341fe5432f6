/**
 * @file
 * The scheduler plug-in interface of the simulator.
 *
 * At every scheduling event (frame arrival, job completion) the
 * simulator hands the scheduler a SchedulerContext snapshot and asks
 * for a Plan: Supernet variant switches, proactive frame drops and
 * job dispatches. The simulator applies the plan and re-invokes the
 * scheduler until it returns an empty plan, letting it fill every
 * idle accelerator.
 */

#ifndef DREAM_SIM_SCHEDULER_H
#define DREAM_SIM_SCHEDULER_H

#include <string>
#include <vector>

#include "costmodel/cost_table.h"
#include "hw/system.h"
#include "sim/request.h"
#include "sim/stats.h"
#include "workload/scenario.h"

namespace dream {
namespace sim {

/** Dispatch @p numLayers layers of a request onto an accelerator. */
struct Dispatch {
    int requestId = -1;
    size_t numLayers = 1;
    int accel = -1;
    /** Slice allocation; 0 means "all slices of the accelerator". */
    uint32_t slices = 0;
};

/** Proactively drop a (not in-flight) frame. */
struct FrameDrop {
    int requestId = -1;
};

/** Switch a Supernet request to a (lighter) variant. */
struct VariantSwitch {
    int requestId = -1;
    int variant = 0;
};

/** One round of scheduling decisions. */
struct Plan {
    std::vector<VariantSwitch> switches;
    std::vector<FrameDrop> drops;
    std::vector<Dispatch> dispatches;
    /**
     * Optional timer: ask the simulator to re-invoke the scheduler at
     * this time even if no arrival/completion event fires (used by
     * timetable replay and windowed online tuning). Honoured only if
     * strictly in the future; stale (past or present) values are
     * ignored by Simulator::applyPlan, and wake-ups at or beyond the
     * window end never fire. Negative means "no timer" (the default).
     */
    double wakeUpUs = -1.0;

    bool
    empty() const
    {
        return switches.empty() && drops.empty() && dispatches.empty();
    }
};

/**
 * Read-only snapshot handed to the scheduler.
 *
 * `ready` holds, per task queue, the head frame if it is schedulable
 * (arrived, unfinished, not in flight). `live` holds every admitted,
 * unfinished frame (for multi-violation checks and frame-drop
 * policies) in admission order; the simulator keeps it up to date as
 * frames are admitted, completed and dropped rather than rebuilding
 * it each round, so a round costs O(tasks + accelerators + ready),
 * not O(live). `livePerTask[t]` counts the `live` entries of task t.
 */
struct SchedulerContext {
    double nowUs = 0.0;
    double windowUs = 0.0;
    const hw::SystemConfig* system = nullptr;
    const cost::CostTable* costs = nullptr;
    const workload::Scenario* scenario = nullptr;
    std::vector<const Request*> ready;
    std::vector<const Request*> live;
    std::vector<size_t> livePerTask;
    const std::vector<AcceleratorState>* accels = nullptr;
    /** Cumulative stats of the run so far (for online adaptivity). */
    const RunStats* stats = nullptr;

    /** Number of accelerators. */
    size_t numAccels() const { return accels->size(); }
    /** Occupancy state of accelerator @p i. */
    const AcceleratorState& accel(size_t i) const
    {
        return (*accels)[i];
    }
    /** Peak activation bytes of a task's model (context switches). */
    uint64_t taskActivationBytes(workload::TaskId t) const
    {
        return scenario->tasks[t].model.peakActivationBytes();
    }
};

/** Abstract scheduler. */
class Scheduler {
public:
    virtual ~Scheduler() = default;

    /** Human-readable name used in benches and tables. */
    virtual std::string name() const = 0;

    /** Called once before a run starts. */
    virtual void reset(const SchedulerContext& ctx) { (void)ctx; }

    /** Produce the next round of decisions. */
    virtual Plan plan(const SchedulerContext& ctx) = 0;
};

} // namespace sim
} // namespace dream

#endif // DREAM_SIM_SCHEDULER_H
