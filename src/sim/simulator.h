/**
 * @file
 * Discrete-event multi-accelerator simulator.
 *
 * Executes a Scenario's materialised frames on a SystemConfig under a
 * pluggable Scheduler. Layer jobs are non-preemptive; accelerators
 * are slice-divisible so spatial-fission schedulers can co-locate
 * jobs. Latency/energy of every job comes from the CostTable; context
 * switches between tasks on an accelerator charge the activation
 * flush/fetch energy and DRAM transfer latency.
 */

#ifndef DREAM_SIM_SIMULATOR_H
#define DREAM_SIM_SIMULATOR_H

#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "costmodel/cost_table.h"
#include "hw/system.h"
#include "sim/request.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "workload/frame_source.h"
#include "workload/scenario.h"

namespace dream {

namespace obs {
struct SimTelemetry;
}

namespace sim {

/** Run parameters. */
struct SimConfig {
    /** Execution window Texec in microseconds (paper example: 2 s). */
    double windowUs = 2e6;
    /** Workload randomness seed. */
    uint64_t seed = 1;
    /**
     * Optional externally-owned arrival source. When set, the
     * simulator draws its frames from it (e.g. a
     * workload::ReplaySource re-injecting a recorded trace's exact
     * arrival sequence) instead of constructing a periodic
     * FrameSource from the scenario and @ref seed. Must outlive every
     * run() call; the caller keeps ownership.
     */
    const workload::ArrivalSource* arrivals = nullptr;
    /**
     * Optional externally-owned telemetry outputs (src/obs/). Null —
     * the default — records nothing and costs one pointer test per
     * hook site; the run itself is bit-identical either way (the
     * instrumentation only observes). Must outlive every run() call.
     */
    obs::SimTelemetry* telemetry = nullptr;
};

/**
 * The simulator. One instance runs one (system, scenario) pair; call
 * run() with different schedulers for comparisons — each run starts
 * from a clean state and an identical materialised workload.
 */
class Simulator {
public:
    Simulator(const hw::SystemConfig& system,
              const workload::Scenario& scenario,
              const cost::CostTable& costs, SimConfig config = {});

    /** Execute the window under @p sched and return the run stats. */
    RunStats run(Scheduler& sched);

    /**
     * Incremental (streaming) execution. run() is exactly
     *
     *     beginStream(sched);
     *     for (frame : stable-sorted rootFrames) offerArrival(frame);
     *     return finishStream();
     *
     * so a serve loop that offers each arrival before advancing past
     * its arrival time produces bit-identical RunStats to the offline
     * run — the determinism anchor of stream-mode replay. Between
     * beginStream() and finishStream() the caller may interleave
     * offerArrival() and advanceTo() freely, subject to the ordering
     * contracts below.
     */

    /** Reset per-run state and bind @p sched for this stream. */
    void beginStream(Scheduler& sched);

    /**
     * Queue one externally-released frame. Arrivals must be offered
     * in nondecreasing arrival order and before the stream clock has
     * advanced past them (offer, then advanceTo); violating either
     * throws std::invalid_argument. Cascade children are still
     * materialised internally via ArrivalSource::childFrame. Taken by
     * value: callers that are done with the frame move it in.
     */
    void offerArrival(workload::FrameSpec spec);

    /**
     * Process every event strictly before min(@p limit_us, window):
     * the same event loop as run(), with the window bound replaced by
     * the limit. Idempotent for a fixed limit; the stream clock never
     * moves backwards.
     */
    void advanceTo(double limit_us);

    /** Drain remaining events to the window end and finalize stats.
     *  Idempotent: calling again after the stream has finished
     *  returns the same finalized stats without re-running. */
    RunStats finishStream();

    /** Virtual time of the last processed event (us). */
    double nowUs() const { return nowUs_; }

    /** Admitted frames (root + cascade) not yet finished: the queue
     *  depth serve-mode admission control reads. */
    size_t liveFrames() const { return ctx_.live.size(); }

private:
    struct JobEvent {
        double endUs;
        Job job;

        bool operator>(const JobEvent& o) const { return endUs > o.endUs; }
    };

    void admitFrame(workload::FrameSpec spec);
    void retireFrame(const Request& req);
    void completeJob(const Job& job);
    void invokeScheduler(Scheduler& sched);
    bool applyPlan(const Plan& plan);
    void applySwitch(const VariantSwitch& sw);
    void applyDrop(const FrameDrop& drop);
    void applyDispatch(const Dispatch& d);
    void buildContext();
    void finalizeStats();
    Request* headOfTask(workload::TaskId task);

    const hw::SystemConfig& system_;
    const workload::Scenario& scenario_;
    const cost::CostTable& costs_;
    SimConfig config_;

    // Per-run state.
    std::unique_ptr<workload::FrameSource> ownedSource_;
    const workload::ArrivalSource* source_ = nullptr;
    std::vector<std::unique_ptr<Request>> requests_;
    std::vector<std::deque<int>> taskQueues_;  ///< FIFO req ids per task
    std::vector<AcceleratorState> accels_;
    std::priority_queue<JobEvent, std::vector<JobEvent>,
                        std::greater<JobEvent>> completions_;
    std::priority_queue<double, std::vector<double>,
                        std::greater<double>> wakeups_;
    double nowUs_ = 0.0;
    RunStats stats_;
    /** The scheduler's view. Its live set (and per-task counts) is
     *  kept up to date by admitFrame and retireFrame; buildContext
     *  only refreshes the clock and the ready heads. */
    SchedulerContext ctx_;
    /** Stream state: offered-but-unadmitted arrivals (FIFO from
     *  nextArrival_; admitted entries are moved from) and the bound
     *  scheduler. */
    std::vector<workload::FrameSpec> pendingArrivals_;
    size_t nextArrival_ = 0;
    Scheduler* streamSched_ = nullptr;
    bool streaming_ = false;
    /** Start of the current busy interval per accelerator (valid
     *  while runningJobs > 0) — feeds RunStats::accelBusyUs. */
    std::vector<double> busyStartUs_;
    /** Scheduler/frame-lifecycle track ids of the trace sink. */
    int64_t schedTid_ = 0;
    int64_t framesTid_ = 0;
};

} // namespace sim
} // namespace dream

#endif // DREAM_SIM_SIMULATOR_H
