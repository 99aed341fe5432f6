/**
 * @file
 * The simulator's incrementally maintained live set
 * (SchedulerContext::live and livePerTask). A checking scheduler
 * decorator asserts, at every plan() call, what a full rescan of the
 * task queues would give: only unfinished frames, each once, in
 * admission order; as many as Simulator::liveFrames(); every ready
 * head among them; per-task counts that match; and nothing lost — a
 * frame live at one round is either still live or finished at the
 * next, and every admitted frame shows up. It runs over every Table 3
 * scenario under FCFS and DREAM-Full, and over an overloaded
 * ServeLoop with cascades, admission and frame drops.
 */

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "costmodel/cost_table.h"
#include "hw/system.h"
#include "runner/experiment.h"
#include "serve/serve_loop.h"
#include "sim/simulator.h"
#include "workload/frame_source.h"
#include "workload/scenario.h"
#include "workload/stream_source.h"

namespace dream {
namespace {

/** Forwards to @p inner after checking the context it is handed. */
class LiveSetChecker : public sim::Scheduler {
public:
    LiveSetChecker(sim::Scheduler& inner,
                   std::function<size_t()> live_frames)
        : inner_(inner), liveFrames_(std::move(live_frames))
    {}

    std::string name() const override { return inner_.name(); }

    void reset(const sim::SchedulerContext& ctx) override
    {
        prev_.clear();
        nextId_ = 0;
        checks_ = 0;
        inner_.reset(ctx);
    }

    sim::Plan plan(const sim::SchedulerContext& ctx) override
    {
        if (!::testing::Test::HasFailure())
            check(ctx);
        return inner_.plan(ctx);
    }

    /** Admitted frames seen so far (request ids are admission
     *  indices, so this is also the next expected id). */
    size_t admitted() const { return nextId_; }
    /** plan() calls checked. */
    size_t checks() const { return checks_; }

private:
    static bool byId(const sim::Request* a, const sim::Request* b)
    {
        return a->id < b->id;
    }

    void check(const sim::SchedulerContext& ctx)
    {
        ++checks_;
        const auto& live = ctx.live;
        // Unfinished, each once, in admission (= id) order.
        for (size_t i = 0; i < live.size(); ++i) {
            ASSERT_FALSE(live[i]->finished())
                << "request " << live[i]->id;
            if (i > 0) {
                ASSERT_LT(live[i - 1]->id, live[i]->id);
            }
        }
        ASSERT_EQ(live.size(), liveFrames_());
        for (const auto* r : ctx.ready)
            ASSERT_TRUE(std::binary_search(live.begin(), live.end(), r,
                                           byId))
                << "ready request " << r->id << " is not live";

        ASSERT_EQ(ctx.livePerTask.size(), ctx.scenario->tasks.size());
        std::vector<size_t> per_task(ctx.livePerTask.size(), 0);
        for (const auto* r : live)
            per_task[size_t(r->task)] += 1;
        ASSERT_EQ(ctx.livePerTask, per_task);

        // Nothing lost: a frame live last round has finished if it
        // left, and every newcomer is the next admitted frame.
        for (const auto* r : prev_) {
            if (!std::binary_search(live.begin(), live.end(), r, byId)) {
                ASSERT_TRUE(r->finished()) << "request " << r->id
                                           << " left the live set";
            }
        }
        for (const auto* r : live) {
            if (!std::binary_search(prev_.begin(), prev_.end(), r,
                                    byId)) {
                ASSERT_EQ(size_t(r->id), nextId_++)
                    << "live set skipped an admitted frame";
            }
        }
        prev_ = live;
    }

    sim::Scheduler& inner_;
    std::function<size_t()> liveFrames_;
    std::vector<const sim::Request*> prev_;
    size_t nextId_ = 0;
    size_t checks_ = 0;
};

struct LiveCase {
    runner::SchedKind sched;
    workload::ScenarioPreset scenario;
};

class LiveSet : public ::testing::TestWithParam<LiveCase> {};

TEST_P(LiveSet, MatchesAFullRescanAtEveryDecision)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario = workload::makeScenario(GetParam().scenario);
    const cost::CostTable costs(system, scenario.models());
    sim::SimConfig cfg;
    cfg.windowUs = 1e6;
    cfg.seed = 17;
    sim::Simulator simulator(system, scenario, costs, cfg);
    auto inner = runner::makeScheduler(GetParam().sched);
    LiveSetChecker checker(*inner,
                           [&] { return simulator.liveFrames(); });
    const sim::RunStats stats = simulator.run(checker);
    EXPECT_GT(checker.checks(), 0u);
    EXPECT_EQ(checker.admitted(), stats.frames.size());
}

std::vector<LiveCase>
liveCases()
{
    std::vector<LiveCase> cases;
    for (const auto sched :
         {runner::SchedKind::Fcfs, runner::SchedKind::DreamFull}) {
        for (const auto sc : workload::allScenarioPresets())
            cases.push_back({sched, sc});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Table3, LiveSet, ::testing::ValuesIn(liveCases()),
    [](const ::testing::TestParamInfo<LiveCase>& info) {
        std::string n = std::string(runner::toString(info.param.sched)) +
                        "_" + workload::toString(info.param.scenario);
        for (auto& c : n) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

TEST(LiveSetServe, OverloadedServeLoopWithCascadesAndDrops)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    auto scenario = workload::makeScenario(
        workload::ScenarioPreset::VrGaming, 0.9);
    for (auto& task : scenario.tasks)
        task.fps *= 4.0;
    const cost::CostTable costs(system, scenario.models());
    const double window_us = 5e5;
    const uint64_t seed = 23;

    const workload::FrameSource frames(scenario, seed);
    auto roots = frames.rootFrames(window_us);
    std::stable_sort(roots.begin(), roots.end(),
                     [](const auto& a, const auto& b) {
                         return a.arrivalUs < b.arrivalUs;
                     });
    workload::StreamSource stream(frames);
    for (auto& f : roots)
        stream.push(std::move(f));
    stream.close();

    serve::ServeConfig config;
    config.windowUs = window_us;
    config.seed = seed;
    config.admission.maxQueueDepth = 48;
    config.admission.policy = serve::OverloadPolicy::Degrade;
    serve::ServeLoop loop(system, scenario, costs, config);
    auto inner = runner::makeScheduler(runner::SchedKind::DreamFull);
    LiveSetChecker checker(*inner, [&] { return loop.liveFrames(); });
    const serve::ServeResult result = loop.run(checker, stream);

    EXPECT_GT(checker.checks(), 0u);
    EXPECT_EQ(checker.admitted(), result.stats.frames.size());
    // The run exercised what the live set must track besides
    // arrivals and completions: drops and cascade children.
    size_t dropped = 0, children = 0;
    for (const auto& fr : result.stats.frames) {
        dropped += fr.dropped;
        children += scenario.tasks[size_t(fr.task)].dependsOn !=
                    workload::kNoParent;
    }
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(children, 0u);
    EXPECT_GT(result.admission.rejected + result.admission.degraded, 0u);
}

} // anonymous namespace
} // namespace dream
