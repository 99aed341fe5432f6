/**
 * @file
 * The benchmark's four workloads. Each one generates its inputs from
 * the workload seed, hands them to the library through public calls,
 * and reports what one timed pass (a "unit") did: host times, exact
 * work counters, virtual-time results, a digest of the simulated
 * results, and any output check that failed.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "costmodel/cost_table.h"
#include "engine/sweep_grid.h"
#include "hw/system.h"
#include "models/layer.h"
#include "serve/admission.h"
#include "trace.h"
#include "workload/scenario.h"

namespace perfbench {

/** One timed pass of a workload. */
struct Unit {
    /** Host seconds of the timed pass. */
    double wallS = 0.0;
    /** Thread CPU ms per point: per grid point on the sweeps, per
     *  fixed slice of served virtual time on serving. */
    std::vector<double> pointMs;
    /** CPU seconds of the simulations whose frames exact["frames"]
     *  counts: the grid points' summed thread CPU time on the sweeps,
     *  the serving thread's CPU time on serving. The base of
     *  host_us_per_frame, sched.plan_share and sim.self_s. */
    double simCpuS = 0.0;
    /** Busy share of the engine workers over the grid phases; -1 when
     *  no grid ran. */
    double busyShare = -1.0;
    /** FNV-1a digest of every simulated result. */
    uint64_t digest = 0;
    /**
     * Exact, deterministic values: work counters and virtual-time
     * results. They must be identical in every pass of a run.
     */
    std::map<std::string, double> exact;
    /** What the scheduler decorators saw (traced passes). */
    SchedTotals sched;
    /** Output checks that failed. */
    std::vector<std::string> errors;
};

/** Host time of one set-up. */
struct SetupTimes {
    double totalS = 0.0;
    double materialiseMs = 0.0;
    double buildMs = 0.0;
    /** Cost tables built (cost-table cache misses). */
    uint64_t tablesBuilt = 0;
};

/** What the serve-call rung serves: the workload's (first) scenario
 *  on its (first) system under DREAM-Full, with its admission
 *  bounds. Pointers stay valid until the next set-up. */
struct ServeInputs {
    const dream::workload::Scenario* scenario = nullptr;
    const dream::hw::SystemConfig* system = nullptr;
    std::shared_ptr<const dream::cost::CostTable> costs;
    dream::serve::AdmissionConfig admission;
    uint64_t seed = 0;
};

/** A cost table and the layer set the workload looks up in it. */
struct LookupSet {
    std::shared_ptr<const dream::cost::CostTable> table;
    std::vector<dream::models::Layer> layers;
};

class Workload {
public:
    virtual ~Workload() = default;

    /**
     * Generate the inputs from the seed and build their cost tables,
     * starting from an empty cost-table cache. Repeatable; the last
     * set-up's inputs are the ones the passes use.
     */
    virtual SetupTimes setup() = 0;

    /** One timed pass; @p traced swaps in the scheduler decorator and
     *  records spans. */
    virtual Unit run(bool traced) = 0;

    /**
     * Untimed reference pass after the timed passes, given the first
     * pass: re-runs what the timed path cannot observe (sweep frame
     * latencies, context switches), adds it to @p first.exact, and
     * records failed cross-checks in @p first.errors.
     */
    virtual void reference(Unit& first) { (void) first; }

    /** Cost tables and layer sets of the cost-lookup rung. */
    virtual std::vector<LookupSet> lookupSets() const = 0;

    /** The workload's (scenario, system, scheduler) points with a
     *  near-empty window: the per-point fixed-cost rung. */
    virtual dream::engine::SweepGrid fixedCostGrid() const = 0;

    /** Inputs of the serve-call rung. */
    virtual ServeInputs serveInputs() const = 0;
};

/** Host times of single ServeLoop calls. */
struct ServeCallTimes {
    Samples offerUs;
    Samples advanceUs;
};

/**
 * The serve-call rung: serves the first 2e6 us of @p in through
 * ServeLoop's incremental calls, again and again for @p seconds,
 * timing every offer() and every 1e5 us advanceTo() step.
 */
ServeCallTimes serveCallRung(const ServeInputs& in, double seconds);

/** The workload called @p name, or null. */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
