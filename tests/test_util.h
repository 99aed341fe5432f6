/**
 * @file
 * Shared fixtures for unit tests: a tiny synthetic scenario/system
 * pair plus a hand-buildable SchedulerContext, so scoring, frame-drop
 * and Supernet logic can be tested without running the simulator.
 */

#ifndef DREAM_TESTS_TEST_UTIL_H
#define DREAM_TESTS_TEST_UTIL_H

#include <memory>
#include <vector>

#include "costmodel/cost_table.h"
#include "hw/system.h"
#include "models/model.h"
#include "sim/request.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "workload/scenario.h"

namespace dream {
namespace test {

/** A three-layer toy model with a distinctive conv/fc mix. */
inline models::Model
toyModel(const std::string& name = "toy", uint32_t scale = 1)
{
    models::Model m;
    m.name = name;
    m.layers.push_back(
        models::conv(name + ".conv", 56, 56, 32 * scale, 64 * scale,
                     3, 1));
    m.layers.push_back(
        models::dwConv(name + ".dw", 56, 56, 64 * scale, 3, 2));
    m.layers.push_back(models::fc(name + ".fc", 64 * scale, 128));
    return m;
}

/** A toy Supernet: shared 1-layer stem + heavy/light bodies. */
inline models::Model
toySupernet()
{
    models::Model m = toyModel("supernet", 2);
    m.supernetSwitchPoint = 1;
    models::SupernetVariant light;
    light.name = "light";
    light.bodyLayers.push_back(
        models::dwConv("supernet.lite.dw", 56, 56, 32, 3, 2));
    light.bodyLayers.push_back(models::fc("supernet.lite.fc", 32, 64));
    m.variants.push_back(light);
    return m;
}

/**
 * Hand-buildable scheduler context over a 2-accelerator (1 WS + 1 OS)
 * system and a synthetic scenario. Requests added via addRequest()
 * appear in both `ready` and `live`.
 */
class ContextBuilder {
public:
    ContextBuilder()
    {
        system_.name = "test-1WS+1OS";
        hw::AcceleratorConfig ws;
        ws.name = "WS";
        ws.numPes = 2048;
        ws.dataflow = hw::Dataflow::WeightStationary;
        hw::AcceleratorConfig os = ws;
        os.name = "OS";
        os.dataflow = hw::Dataflow::OutputStationary;
        system_.accelerators = {ws, os};
        costs_ = std::make_unique<cost::CostTable>(system_,
                                                   scenario_.models());
        for (const auto& acc : system_.accelerators) {
            sim::AcceleratorState st;
            st.config = &acc;
            st.freeSlices = acc.numSlices;
            accels_.push_back(st);
        }
    }

    /** Add a task (model at @p fps); returns the task id. */
    workload::TaskId
    addTask(models::Model model, double fps = 30.0,
            workload::TaskId depends_on = workload::kNoParent)
    {
        workload::TaskSpec spec;
        spec.model = std::move(model);
        spec.fps = fps;
        spec.dependsOn = depends_on;
        scenario_.tasks.push_back(std::move(spec));
        // A table covers a fixed model set: rebuild it for the new one.
        costs_ = std::make_unique<cost::CostTable>(system_,
                                                   scenario_.models());
        stats_.tasks.emplace_back();
        stats_.tasks.back().model = scenario_.tasks.back().model.name;
        return workload::TaskId(scenario_.tasks.size() - 1);
    }

    /** Add a ready request for @p task; returns a mutable pointer. */
    sim::Request*
    addRequest(workload::TaskId task, double arrival_us,
               double deadline_us)
    {
        auto req = std::make_unique<sim::Request>();
        req->id = int(requests_.size());
        req->task = task;
        req->arrivalUs = arrival_us;
        req->deadlineUs = deadline_us;
        req->lastEventUs = arrival_us;
        req->path = scenario_.tasks[task].model.layers;
        requests_.push_back(std::move(req));
        return requests_.back().get();
    }

    /** Build the context snapshot at @p now_us. */
    sim::SchedulerContext&
    context(double now_us = 0.0)
    {
        ctx_.nowUs = now_us;
        ctx_.windowUs = 2e6;
        ctx_.system = &system_;
        ctx_.costs = costs_.get();
        ctx_.scenario = &scenario_;
        ctx_.accels = &accels_;
        ctx_.stats = &stats_;
        ctx_.ready.clear();
        ctx_.live.clear();
        ctx_.livePerTask.assign(scenario_.tasks.size(), 0);
        for (const auto& r : requests_) {
            if (r->finished())
                continue;
            ctx_.live.push_back(r.get());
            ctx_.livePerTask[r->task] += 1;
            if (!r->inFlight)
                ctx_.ready.push_back(r.get());
        }
        return ctx_;
    }

    hw::SystemConfig& system() { return system_; }
    workload::Scenario& scenario() { return scenario_; }
    const cost::CostTable& costs() { return *costs_; }
    std::vector<sim::AcceleratorState>& accels() { return accels_; }
    sim::RunStats& stats() { return stats_; }

private:
    hw::SystemConfig system_;
    workload::Scenario scenario_;
    std::unique_ptr<cost::CostTable> costs_;
    std::vector<sim::AcceleratorState> accels_;
    std::vector<std::unique_ptr<sim::Request>> requests_;
    sim::RunStats stats_;
    sim::SchedulerContext ctx_;
};

} // namespace test
} // namespace dream

#endif // DREAM_TESTS_TEST_UTIL_H
