/**
 * @file
 * Event-driven serve loop: drives the simulator incrementally as
 * arrivals land on a StreamSource — no end-of-window barrier. Each
 * drained frame passes the admission gate, then the simulator is
 * advanced to its arrival time before the frame is offered, which
 * preserves the offline event order exactly: with admission disabled,
 * the final RunStats is bit-identical to Simulator::run() over the
 * same source. Rolling-window telemetry (p50/p99 latency,
 * SLO-violation/drop/reject rates) is reported at fixed virtual-time
 * intervals and published through obs::MetricsRegistry.
 *
 * The loop exposes two driving styles over one state machine:
 * run() serves a whole StreamSource to the window end, and the
 * incremental begin()/offer()/advanceTo()/finish() primitives let a
 * serve::Cluster drive N loops (one per device) in virtual-time lock
 * step. run() is implemented exactly on the primitives, so a cluster
 * of one device is the same computation as the single-device loop.
 */

#ifndef DREAM_SERVE_SERVE_LOOP_H
#define DREAM_SERVE_SERVE_LOOP_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "costmodel/cost_table.h"
#include "hw/system.h"
#include "obs/metrics.h"
#include "obs/rolling.h"
#include "obs/telemetry.h"
#include "serve/admission.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "workload/scenario.h"
#include "workload/stream_source.h"

namespace dream {
namespace serve {

struct ServeConfig {
    /** Execution window Texec in microseconds. */
    double windowUs = 2e6;
    /** Workload randomness seed (cascade children etc.). */
    uint64_t seed = 1;
    /** Virtual-time spacing of rolling reports (0 = final only). */
    double reportIntervalUs = 2e5;
    /** Span of the rolling telemetry windows. */
    double rollingSpanUs = 5e5;
    AdmissionConfig admission;
    /** Optional metrics registry for the canonical serve schema
     *  (src/obs/README.md) plus the simulator's own hooks. */
    obs::MetricsRegistry* metrics = nullptr;
    /** Optional stream for one human-readable line per report. */
    std::ostream* log = nullptr;
    /** Prefix of every published serve metric key. A cluster rewrites
     *  this to "serve/dev<k>/" per device so N loops sharing one
     *  registry never collide (src/obs/README.md). */
    std::string metricsPrefix = "serve/";
    /** Tag of per-report log lines ("[<label>] t=..."). */
    std::string logLabel = "serve";
    /** Attach the simulator's own metric hooks (keys under frames/,
     *  sim/ and accel/) to @ref metrics. A cluster disables this for
     *  N > 1: those keys are not device-namespaced, and their gauges
     *  would be last-writer-wins across devices. */
    bool attachSimMetrics = true;
};

/** One rolling-telemetry report, taken at virtual time tUs. */
struct ServeSnapshot {
    double tUs = 0.0;
    size_t queueDepth = 0;     ///< live frames in the simulator
    uint64_t windowSamples = 0;  ///< completions in the rolling span
    double p50Us = 0.0;        ///< NaN when the span has no samples
    double p99Us = 0.0;        ///< NaN when the span has no samples
    double violationRate = 0.0;  ///< violations / outcomes in span
    double dropRate = 0.0;       ///< scheduler drops / outcomes
    double rejectRate = 0.0;     ///< admission rejects / offers
    double backlogUs = 0.0;      ///< admission backlog projection
};

struct ServeResult {
    sim::RunStats stats;
    AdmissionStats admission;
    std::vector<ServeSnapshot> snapshots;
};

/**
 * One serving session over one (system, scenario, cost table). The
 * loop consumes a StreamSource until it is closed and drained; a
 * producer thread may keep pushing while run() executes, and the
 * result is deterministic regardless of producer timing because all
 * decisions key off virtual arrival times.
 */
class ServeLoop : public obs::FrameOutcomeSink {
public:
    ServeLoop(const hw::SystemConfig& system,
              const workload::Scenario& scenario,
              const cost::CostTable& costs, ServeConfig config);

    /** Serve the stream to the window end under @p sched. */
    ServeResult run(sim::Scheduler& sched,
                    workload::StreamSource& stream);

    // ------------------------------------------- incremental API
    // run() is exactly begin() + offer() per drained frame +
    // finish(). A cluster interleaves the offers of N loops in
    // global arrival order; each loop's device sees the identical
    // event sequence a standalone run over its share would.

    /** Reset per-serve state, bind @p sched, and open the stream.
     *  @p arrivals materialises cascade children (and, for run(),
     *  supplies the root frames); it must outlive finish(). */
    void begin(sim::Scheduler& sched,
               const workload::ArrivalSource& arrivals);

    /** Advance to just short of the frame's arrival, gate it through
     *  admission, and offer it to the simulator. Frames must be
     *  offered in nondecreasing arrival order. */
    AdmissionDecision offer(workload::FrameSpec frame);

    /** Drive the event loop (and rolling reports) up to
     *  min(@p t_us, window). The clock never moves backwards. */
    void advanceTo(double t_us);

    /** Drain to the window end, take the final snapshot, publish
     *  metrics, and return the result. */
    ServeResult finish();

    /** Live load gauges a cluster dispatcher routes on — pure
     *  functions of virtual time. Advances the rolling windows (and
     *  the admission backlog projection) to @p t_us, which must be
     *  nondecreasing across calls. */
    struct Gauges {
        double backlogUs = 0.0;    ///< admission backlog projection
        size_t liveFrames = 0;     ///< frames live in the simulator
        double violationRate = 0.0;  ///< rolling SLO-violation rate
    };
    Gauges pollGauges(double t_us);

    /** Frames live in the simulator (admitted, not yet finished);
     *  0 before begin(). */
    size_t liveFrames() const { return sim_ ? sim_->liveFrames() : 0; }

    /** FrameOutcomeSink: feeds the rolling windows. */
    void onFrameOutcome(const obs::FrameOutcome& outcome) override;

private:
    void advanceWithReports(double target_us);
    ServeSnapshot takeSnapshot(double t_us);
    void publishMetrics(const ServeResult& result, double wall_ms);

    const hw::SystemConfig& system_;
    const workload::Scenario& scenario_;
    const cost::CostTable& costs_;
    ServeConfig config_;

    // Per-serve state (reset by begin()).
    std::unique_ptr<sim::Simulator> sim_;
    std::unique_ptr<AdmissionController> admission_;
    /** Pass-through tally when the admission gate is disabled. */
    AdmissionStats tally_;
    obs::SimTelemetry telemetry_;
    std::chrono::steady_clock::time_point wall0_;
    obs::RollingQuantileWindow latency_;
    obs::RollingEventCounter outcomes_;
    obs::RollingEventCounter violations_;
    obs::RollingEventCounter drops_;
    obs::RollingEventCounter offers_;
    obs::RollingEventCounter rejects_;
    std::vector<ServeSnapshot> snapshots_;
    double nextReportUs_ = 0.0;
};

} // namespace serve
} // namespace dream

#endif // DREAM_SERVE_SERVE_LOOP_H
