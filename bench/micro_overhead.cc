/**
 * @file
 * Scheduler-overhead microbenchmarks: the cost of one MapScore
 * evaluation, one full DREAM planning round, the analytical cost
 * model, and cost-table lookups. The paper argues DREAM's scoring is
 * light-weight enough to run at every scheduling event; these
 * numbers quantify that for this implementation.
 *
 * Two parts: a deterministic engine sweep of per-scheduler
 * invocation counts (streamed through --out, byte-identical for any
 * --jobs value), and wall-clock ns/op timing loops printed to stdout
 * only (timings are inherently run-dependent and stay out of the
 * result rows).
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_main.h"
#include "core/dream_scheduler.h"
#include "core/mapscore.h"
#include "costmodel/cost_table.h"
#include "costmodel/layer_cost.h"
#include "engine/engine.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "runner/experiment.h"
#include "runner/table.h"
#include "sim/scheduler.h"
#include "workload/frame_source.h"
#include "workload/scenario.h"

using namespace dream;

namespace {

/** Fixture state: a populated SchedulerContext snapshot. */
struct ContextFixture {
    hw::SystemConfig system;
    workload::Scenario scenario;
    cost::CostTable costs;
    std::vector<sim::AcceleratorState> accels;
    std::vector<std::unique_ptr<sim::Request>> requests;
    sim::RunStats stats;
    sim::SchedulerContext ctx;

    ContextFixture()
        : system(hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os)),
          scenario(workload::makeScenario(
              workload::ScenarioPreset::VrGaming)),
          costs(system, scenario.models())
    {
        for (const auto& acc : system.accelerators) {
            sim::AcceleratorState st;
            st.config = &acc;
            st.freeSlices = acc.numSlices;
            accels.push_back(st);
        }
        workload::FrameSource source(scenario, 1);
        const auto frames = source.rootFrames(2e5);
        int id = 0;
        for (const auto& f : frames) {
            auto req = std::make_unique<sim::Request>();
            req->id = id++;
            req->task = f.task;
            req->frameIdx = f.frameIdx;
            req->arrivalUs = 0.0;
            req->deadlineUs = f.deadlineUs;
            req->path = f.path;
            requests.push_back(std::move(req));
            if (id >= 6)
                break;
        }
        stats.tasks.resize(scenario.tasks.size());
        ctx.nowUs = 0.0;
        ctx.windowUs = 2e6;
        ctx.system = &system;
        ctx.costs = &costs;
        ctx.scenario = &scenario;
        ctx.accels = &accels;
        ctx.stats = &stats;
        ctx.livePerTask.assign(scenario.tasks.size(), 0);
        for (const auto& r : requests) {
            ctx.ready.push_back(r.get());
            ctx.live.push_back(r.get());
            ctx.livePerTask[r->task] += 1;
        }
    }
};

/**
 * Distribution of ns/op over @p batches timed batches of @p inner
 * iterations each (batching keeps the steady_clock read out of the
 * hot loop for ops in the few-ns range). The histogram gives the
 * spread — min/p50/p90/p99/max — where the old single-loop average
 * hid tail effects like cache warmup and scheduler preemption.
 */
template <typename Body>
obs::LatencyHistogram
timeOp(size_t batches, size_t inner, Body&& body)
{
    obs::LatencyHistogram h;
    size_t op = 0;
    for (size_t b = 0; b < batches; ++b) {
        const auto t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < inner; ++i)
            body(op++);
        const auto t1 = std::chrono::steady_clock::now();
        h.record(
            double(std::chrono::duration_cast<
                       std::chrono::nanoseconds>(t1 - t0)
                       .count()) /
            double(inner));
    }
    return h;
}

/** "Microbenchmark | min | p50 | p90 | p99 | max" row cells. */
std::vector<std::string>
opRow(const std::string& name, const obs::LatencyHistogram& h)
{
    return {name,
            runner::fmt(h.min(), 1),
            runner::fmt(h.quantile(0.50), 1),
            runner::fmt(h.quantile(0.90), 1),
            runner::fmt(h.quantile(0.99), 1),
            runner::fmt(h.max(), 1)};
}

volatile double g_side_effect = 0.0;

} // namespace

int
main(int argc, char** argv)
{
    const auto opts = bench::parseArgs(argc, argv);

    // Part 1: deterministic scheduler-invocation accounting through
    // the engine (one short window per evaluated scheduler).
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os);
    for (const auto kind : runner::evaluationSchedulers())
        grid.addScheduler(kind);
    grid.seeds({11}).window(5e5);

    auto file_sink = bench::makeFileSink(opts);
    if (!bench::runOrList(opts, grid, file_sink.get()))
        return 0;

    engine::Engine eng(bench::engineOptions(opts));
    const auto records =
        eng.run(grid, bench::sinkList({file_sink.get()}));

    std::printf("Scheduler invocations over a %.1f ms VR_Gaming "
                "window on %s\n\n", 5e5 / 1e3,
                hw::toString(hw::SystemPreset::Sys4k1Ws2Os).c_str());
    runner::Table inv({"Scheduler", "Invocations", "Invocations/s",
                       "Frames"});
    for (const auto& r : records) {
        inv.addRow({r.scheduler,
                    std::to_string(r.schedulerInvocations),
                    runner::fmt(double(r.schedulerInvocations) /
                                    (r.windowUs / 1e6), 0),
                    std::to_string(r.totalFrames)});
    }
    inv.print();

    // Part 2: wall-clock timing loops (stdout only; excluded from
    // --out so result rows stay deterministic). Each op is timed in
    // batches into an obs::LatencyHistogram, so the table reports
    // the distribution of ns/op rather than one average.
    ContextFixture f;
    runner::Table t({"Microbenchmark", "min", "p50", "p90", "p99",
                     "max"});

    core::MapScoreEngine mapscore(1.0, 1.0);
    t.addRow(opRow(
        "MapScore single evaluation",
        timeOp(1000, 100, [&](size_t i) {
            const auto* req =
                f.ctx.ready[i % f.ctx.ready.size()];
            const auto s =
                mapscore.score(f.ctx, *req, i % f.ctx.numAccels());
            g_side_effect = s.mapScore;
        })));

    core::DreamScheduler dream(core::DreamConfig::full());
    dream.reset(f.ctx);
    t.addRow(opRow("DREAM full planning round",
                   timeOp(500, 10, [&](size_t) {
                       auto plan = dream.plan(f.ctx);
                       g_side_effect =
                           double(plan.dispatches.size());
                   })));

    const auto model = models::zoo::ssdMobileNetV2();
    t.addRow(opRow(
        "Analytical layer cost estimate",
        timeOp(1000, 100, [&](size_t i) {
            const auto& layer =
                model.layers[i % model.layers.size()];
            const auto c =
                cost::estimateLayer(layer,
                                    f.system.accelerators[0]);
            g_side_effect = c.latencyUs;
        })));

    const auto& fixture_model = f.scenario.tasks[0].model;
    t.addRow(opRow(
        "Cost-table lookup",
        timeOp(1000, 1000, [&](size_t i) {
            const auto& c = f.costs.cost(
                fixture_model.layers[i %
                                     fixture_model.layers.size()],
                i % f.system.size());
            g_side_effect = c.latencyUs;
        })));

    std::printf("\n");
    t.print();
    std::printf("\nns/op, wall-clock on this host, over timed "
                "batches; the CSV rows\nabove carry only "
                "deterministic counters\n");
    return 0;
}
