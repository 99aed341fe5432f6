/**
 * @file
 * Experiment harness: one-call execution of (system, scenario,
 * scheduler) runs with shared CostTables, multi-seed averaging
 * and a scheduler factory covering every scheduler in the repo.
 */

#ifndef DREAM_RUNNER_EXPERIMENT_H
#define DREAM_RUNNER_EXPERIMENT_H

#include <memory>
#include <vector>

#include "core/dream_config.h"
#include "core/dream_scheduler.h"
#include "hw/system.h"
#include "metrics/uxcost.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace dream {
namespace runner {

/** Every scheduler evaluated in the paper. */
enum class SchedKind {
    Fcfs,
    StaticFcfs,
    Veltair,
    Planaria,
    DreamFixed,     ///< MapScore with fixed alpha = beta = 1
    DreamMapScore,  ///< Table 4 row 1
    DreamSmartDrop, ///< Table 4 row 2
    DreamFull,      ///< Table 4 row 3
};

/** Instantiate a scheduler. */
std::unique_ptr<sim::Scheduler> makeScheduler(SchedKind kind);

/** Instantiate a DREAM scheduler with an explicit config. */
std::unique_ptr<core::DreamScheduler>
makeDream(const core::DreamConfig& config);

/** The scheduler set of Figures 7, 8 and 12. */
std::vector<SchedKind> evaluationSchedulers();

/** Every SchedKind, in declaration order (name-lookup registries). */
std::vector<SchedKind> allSchedKinds();

/** Display name of a scheduler kind. */
const char* toString(SchedKind kind);

/** Result of one run. */
struct RunResult {
    sim::RunStats stats;
    double uxCost = 0.0;
};

/** Multi-seed aggregate (arithmetic means). */
struct AggregateResult {
    double uxCost = 0.0;
    double dlvRate = 0.0;      ///< overall (summed per-task) DLV rate
    double normEnergy = 0.0;   ///< overall normalised energy
    double energyMj = 0.0;     ///< total actual energy
    double violationFraction = 0.0;
    /** Stats of the last seed's run (for detail inspection). */
    sim::RunStats lastStats;
};

/** Execute one window under @p sched. */
RunResult runOnce(const hw::SystemConfig& system,
                  const workload::Scenario& scenario,
                  sim::Scheduler& sched, double window_us,
                  uint64_t seed);

/** Execute one window per seed and aggregate. */
AggregateResult runSeeds(const hw::SystemConfig& system,
                         const workload::Scenario& scenario,
                         sim::Scheduler& sched, double window_us,
                         const std::vector<uint64_t>& seeds);

/** Default evaluation window (2 s, the paper's Texec example). */
constexpr double kDefaultWindowUs = 2e6;

/** Default seed set for multi-seed averaging. */
std::vector<uint64_t> defaultSeeds();

} // namespace runner
} // namespace dream

#endif // DREAM_RUNNER_EXPERIMENT_H
