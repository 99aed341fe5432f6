#include "runner/experiment.h"

#include "costmodel/cost_table_cache.h"
#include "sched/fcfs.h"
#include "sched/planaria.h"
#include "sched/static_fcfs.h"
#include "sched/veltair.h"

namespace dream {
namespace runner {

std::unique_ptr<sim::Scheduler>
makeScheduler(SchedKind kind)
{
    switch (kind) {
      case SchedKind::Fcfs:
        return std::make_unique<sched::FcfsScheduler>();
      case SchedKind::StaticFcfs:
        return std::make_unique<sched::StaticFcfsScheduler>();
      case SchedKind::Veltair:
        return std::make_unique<sched::VeltairScheduler>();
      case SchedKind::Planaria:
        return std::make_unique<sched::PlanariaScheduler>();
      case SchedKind::DreamFixed:
        return makeDream(core::DreamConfig::fixedParams());
      case SchedKind::DreamMapScore:
        return makeDream(core::DreamConfig::mapScore());
      case SchedKind::DreamSmartDrop:
        return makeDream(core::DreamConfig::smartDropConfig());
      case SchedKind::DreamFull:
        return makeDream(core::DreamConfig::full());
    }
    return nullptr;
}

std::unique_ptr<core::DreamScheduler>
makeDream(const core::DreamConfig& config)
{
    return std::make_unique<core::DreamScheduler>(config);
}

std::vector<SchedKind>
evaluationSchedulers()
{
    return {SchedKind::Fcfs,          SchedKind::Veltair,
            SchedKind::Planaria,      SchedKind::DreamMapScore,
            SchedKind::DreamSmartDrop, SchedKind::DreamFull};
}

std::vector<SchedKind>
allSchedKinds()
{
    return {SchedKind::Fcfs,           SchedKind::StaticFcfs,
            SchedKind::Veltair,        SchedKind::Planaria,
            SchedKind::DreamFixed,     SchedKind::DreamMapScore,
            SchedKind::DreamSmartDrop, SchedKind::DreamFull};
}

const char*
toString(SchedKind kind)
{
    switch (kind) {
      case SchedKind::Fcfs:
        return "FCFS";
      case SchedKind::StaticFcfs:
        return "StaticFCFS";
      case SchedKind::Veltair:
        return "Veltair";
      case SchedKind::Planaria:
        return "Planaria";
      case SchedKind::DreamFixed:
        return "DREAM-Fixed";
      case SchedKind::DreamMapScore:
        return "DREAM-MapScore";
      case SchedKind::DreamSmartDrop:
        return "DREAM-SmartDrop";
      case SchedKind::DreamFull:
        return "DREAM-Full";
    }
    return "??";
}

RunResult
runOnce(const hw::SystemConfig& system,
        const workload::Scenario& scenario, sim::Scheduler& sched,
        double window_us, uint64_t seed)
{
    // Route through the shared cache: the multi-seed / multi-
    // scheduler loops above this call (runSeeds, bench sweeps,
    // ParamSearch evaluations) repeat one (system, model set) pair
    // many times — each repeat now reuses one table instead of
    // rebuilding it.
    const std::shared_ptr<const cost::CostTable> costs =
        cost::acquireCostTable(system, scenario);

    sim::SimConfig cfg;
    cfg.windowUs = window_us;
    cfg.seed = seed;
    sim::Simulator simulator(system, scenario, *costs, cfg);

    RunResult r;
    r.stats = simulator.run(sched);
    r.uxCost = metrics::uxCost(r.stats);
    return r;
}

AggregateResult
runSeeds(const hw::SystemConfig& system,
         const workload::Scenario& scenario, sim::Scheduler& sched,
         double window_us, const std::vector<uint64_t>& seeds)
{
    AggregateResult agg;
    for (const uint64_t seed : seeds) {
        RunResult r = runOnce(system, scenario, sched, window_us, seed);
        agg.uxCost += r.uxCost;
        agg.dlvRate += r.stats.overallDlvRate();
        agg.normEnergy += r.stats.overallNormEnergy();
        agg.energyMj += r.stats.totalEnergyMj();
        agg.violationFraction += r.stats.violationFraction();
        agg.lastStats = std::move(r.stats);
    }
    const double n = double(seeds.size());
    agg.uxCost /= n;
    agg.dlvRate /= n;
    agg.normEnergy /= n;
    agg.energyMj /= n;
    agg.violationFraction /= n;
    return agg;
}

std::vector<uint64_t>
defaultSeeds()
{
    return {11, 23, 47};
}

} // namespace runner
} // namespace dream
