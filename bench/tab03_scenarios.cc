/**
 * @file
 * Table 3 reproduction: the five RTMM scenarios with their models,
 * FPS targets and dependencies, extended with each model's size and
 * estimated whole-model latency per accelerator dataflow (the data
 * the paper's scheduler consumes from its offline cost model), plus
 * a measured difficulty sweep: FCFS vs DREAM-Full UXCost per
 * scenario through the engine.
 */

#include <cstdio>
#include <vector>

#include "bench_main.h"
#include "costmodel/cost_table.h"
#include "engine/engine.h"
#include "hw/system.h"
#include "runner/experiment.h"
#include "runner/table.h"
#include "workload/scenario.h"

using namespace dream;

namespace {

double
modelLatencyUs(const cost::CostTable& costs, const models::Model& m,
               size_t acc)
{
    double sum = 0.0;
    for (const auto& l : m.layers)
        sum += costs.cost(l, acc).latencyUs;
    return sum;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto opts = bench::parseArgs(argc, argv);

    engine::SweepGrid grid;
    for (const auto preset : workload::allScenarioPresets())
        grid.addScenario(preset);
    grid.addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addScheduler(runner::SchedKind::Fcfs)
        .addScheduler(runner::SchedKind::DreamFull)
        .seeds(runner::defaultSeeds())
        .window(runner::kDefaultWindowUs);

    auto file_sink = bench::makeFileSink(opts);
    if (!bench::runOrList(opts, grid, file_sink.get()))
        return 0;

    std::printf("Table 3: evaluated real-time workload scenarios\n");
    std::printf("(latency columns: whole-model estimate on a 2K-PE "
                "accelerator of each dataflow)\n\n");

    // One accelerator of each dataflow at the 2K size used in the 4K
    // heterogeneous systems.
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    hw::SystemConfig probe;
    probe.name = "probe";
    probe.accelerators = {system.accelerators[0]};
    probe.accelerators.push_back(system.accelerators[0]);
    probe.accelerators[1].name = "OS-2K";
    probe.accelerators[1].dataflow = hw::Dataflow::OutputStationary;

    for (const auto preset : workload::allScenarioPresets()) {
        const auto scenario = workload::makeScenario(preset);
        const cost::CostTable costs(probe, scenario.models());

        runner::Table table({"Model", "FPS", "Dep", "Trigger", "MMACs",
                             "Weights(MB)", "WS-2K(ms)", "OS-2K(ms)",
                             "Load(WS)"});
        double total_load = 0.0;
        for (workload::TaskId t = 0;
             t < workload::TaskId(scenario.tasks.size()); ++t) {
            const auto& spec = scenario.tasks[t];
            const double ws_ms =
                modelLatencyUs(costs, spec.model, 0) / 1e3;
            const double os_ms =
                modelLatencyUs(costs, spec.model, 1) / 1e3;
            const double eff_fps =
                spec.fps * (spec.dependsOn == workload::kNoParent
                                ? 1.0
                                : spec.triggerProb);
            const double load = eff_fps * ws_ms / 1e3;
            total_load += load;
            table.addRow(
                {spec.model.name, runner::fmt(spec.fps, 0),
                 spec.dependsOn == workload::kNoParent
                     ? "-"
                     : scenario.tasks[spec.dependsOn].model.name,
                 runner::fmt(spec.triggerProb, 2),
                 runner::fmt(double(spec.model.totalMacs()) / 1e6, 0),
                 runner::fmt(double(spec.model.totalWeightBytes()) /
                                 (1024.0 * 1024.0),
                             1),
                 runner::fmt(ws_ms, 2), runner::fmt(os_ms, 2),
                 runner::fmtPct(load)});
        }
        std::printf("== %s ==\n", scenario.name.c_str());
        table.print();
        std::printf("aggregate WS-2K-equivalent load: %s\n\n",
                    runner::fmtPct(total_load).c_str());
    }

    engine::AggregateSink agg;
    engine::Engine eng(bench::engineOptions(opts));
    eng.run(grid, bench::sinkList({&agg, file_sink.get()}));
    const auto cells = agg.cells();

    std::printf("== measured scenario difficulty (on %s) ==\n",
                hw::toString(hw::SystemPreset::Sys4k1Ws2Os).c_str());
    runner::Table measured({"Scenario", "FCFS UXCost",
                            "DREAM-Full UXCost", "DREAM reduction"});
    const auto ratios = engine::schedulerRatios(
        cells, runner::toString(runner::SchedKind::DreamFull),
        runner::toString(runner::SchedKind::Fcfs));
    for (const auto& r : ratios) {
        measured.addRow({r.scenario, runner::fmt(r.denominator, 4),
                         runner::fmt(r.numerator, 4),
                         runner::fmtPct(r.reduction())});
    }
    measured.print();
    return 0;
}
