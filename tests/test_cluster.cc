/** @file Tests for the cluster serving layer: Simulator streaming
 *  edge cases, SessionDemux pinning, Dispatcher policies, the
 *  single-device Cluster's bit-identity with ServeLoop::run,
 *  N-device replay determinism, and the device-namespaced metric
 *  schema. */

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "costmodel/cost_table.h"
#include "runner/experiment.h"
#include "runner/trace.h"
#include "sched/fcfs.h"
#include "serve/cluster.h"
#include "serve/dispatcher.h"
#include "serve/serve_loop.h"
#include "sim/simulator.h"
#include "workload/frame_source.h"
#include "workload/session_demux.h"
#include "workload/stream_source.h"

#include "test_util.h"

namespace dream {
namespace {

/** Push every root frame in arrival order and close the stream. */
void
feedStream(workload::StreamSource& stream,
           const workload::ArrivalSource& source, double window_us)
{
    auto frames = source.rootFrames(window_us);
    std::stable_sort(frames.begin(), frames.end(),
                     [](const auto& a, const auto& b) {
                         return a.arrivalUs < b.arrivalUs;
                     });
    for (auto& frame : frames)
        stream.push(std::move(frame));
    stream.close();
}

serve::ClusterResult
runCluster(const hw::SystemConfig& system,
           const workload::Scenario& scenario,
           const cost::CostTable& costs, serve::ClusterConfig config,
           double window_us, uint64_t seed)
{
    config.serve.windowUs = window_us;
    config.serve.seed = seed;
    const workload::FrameSource frames(scenario, seed);
    workload::StreamSource intake(frames);
    feedStream(intake, frames, window_us);
    serve::Cluster cluster(system, scenario, costs, config);
    return cluster.run(
        [] { return runner::makeScheduler(runner::SchedKind::Fcfs); },
        intake);
}

// --------------------------------- Simulator streaming edge cases

TEST(ClusterSim, AdvanceToWithNoPendingArrivalsIsHarmless)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const cost::CostTable costs(system, scenario.models());

    sim::SimConfig cfg;
    cfg.windowUs = 2e5;
    sim::Simulator sim(system, scenario, costs, cfg);
    sched::FcfsScheduler fcfs;
    sim.beginStream(fcfs);

    // Advancing an idle simulator (nothing offered yet) is a no-op:
    // the clock is event-driven, so with no pending arrivals,
    // completions or wakeups it stays put — in any number of steps.
    sim.advanceTo(1e4);
    sim.advanceTo(5e4);
    EXPECT_EQ(sim.nowUs(), 0.0);
    EXPECT_EQ(sim.liveFrames(), 0u);

    // A frame offered after the silent advance still executes.
    workload::FrameSpec f;
    f.arrivalUs = 6e4;
    f.deadlineUs = 1e5;
    f.path = scenario.tasks[0].model.layers;
    sim.offerArrival(f);
    const auto stats = sim.finishStream();
    EXPECT_EQ(stats.frames.size(), 1u);
    EXPECT_TRUE(stats.frames[0].isCompleted());
}

TEST(ClusterSim, OfferArrivalExactlyAtNowIsAccepted)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const cost::CostTable costs(system, scenario.models());

    sim::Simulator sim(system, scenario, costs, {});
    sched::FcfsScheduler fcfs;
    sim.beginStream(fcfs);

    // Process a first frame so the event loop moves the clock off
    // zero, then offer a second arrival at exactly nowUs(). That is
    // legal — the serve loop advances to arrival - 1e-9 before
    // offering, so "exactly now" is the common case, not the
    // violation (only arrivals strictly behind the clock throw).
    workload::FrameSpec f;
    f.arrivalUs = 0.0;
    f.deadlineUs = 1e5;
    f.path = scenario.tasks[0].model.layers;
    sim.offerArrival(f);
    sim.advanceTo(1e5);
    ASSERT_GT(sim.nowUs(), 0.0);
    workload::FrameSpec g = f;
    g.arrivalUs = sim.nowUs();
    g.deadlineUs = g.arrivalUs + 1e5;
    EXPECT_NO_THROW(sim.offerArrival(g));
    const auto stats = sim.finishStream();
    EXPECT_EQ(stats.frames.size(), 2u);
}

TEST(ClusterSim, FinishStreamIsIdempotent)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const cost::CostTable costs(system, scenario.models());

    sim::SimConfig cfg;
    cfg.windowUs = 2e5;
    sim::Simulator sim(system, scenario, costs, cfg);
    sched::FcfsScheduler fcfs;
    sim.beginStream(fcfs);
    workload::FrameSpec f;
    f.arrivalUs = 0.0;
    f.deadlineUs = 1e5;
    f.path = scenario.tasks[0].model.layers;
    sim.offerArrival(f);

    const auto first = sim.finishStream();
    const auto second = sim.finishStream();
    EXPECT_EQ(runner::frameTraceCsv(first, scenario),
              runner::frameTraceCsv(second, scenario));
    EXPECT_EQ(first.schedulerInvocations,
              second.schedulerInvocations);
    EXPECT_EQ(first.accelBusyUs, second.accelBusyUs);
}

// ------------------------------------------- FrameSource::rootFrame

TEST(ClusterIngest, RootFrameValidatesItsInputs)
{
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall, 1.0);
    const workload::FrameSource source(scenario, 7);

    const auto frame = source.rootFrame(0, 3, 1234.5);
    EXPECT_EQ(frame.task, 0);
    EXPECT_EQ(frame.frameIdx, 3);
    EXPECT_EQ(frame.arrivalUs, 1234.5);
    EXPECT_GT(frame.deadlineUs, frame.arrivalUs);

    // Out-of-range task, dependent (non-root) task, and non-finite
    // or negative arrivals are contract violations.
    EXPECT_THROW(source.rootFrame(workload::TaskId(99), 0, 0.0),
                 std::invalid_argument);
    workload::TaskId dependent = workload::kNoParent;
    for (size_t t = 0; t < scenario.tasks.size(); ++t) {
        if (scenario.tasks[t].dependsOn != workload::kNoParent)
            dependent = workload::TaskId(t);
    }
    ASSERT_NE(dependent, workload::kNoParent);
    EXPECT_THROW(source.rootFrame(dependent, 0, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(source.rootFrame(0, 0, -1.0),
                 std::invalid_argument);
    EXPECT_THROW(source.rootFrame(0, 0, std::nan("")),
                 std::invalid_argument);
}

// ------------------------------------------------- SessionDemux

TEST(ClusterDemux, SessionsStickToTheirFirstDevice)
{
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const workload::FrameSource delegate(scenario, 1);
    workload::SessionDemux demux(delegate, 3);

    EXPECT_EQ(demux.assignment(0), -1);

    workload::FrameSpec f;
    f.task = 0;
    f.arrivalUs = 0.0;
    EXPECT_EQ(demux.push(f, 2), 2u);
    EXPECT_EQ(demux.assignment(0), 2);

    // Later frames of the pinned session ignore device_if_new.
    f.arrivalUs = 100.0;
    EXPECT_EQ(demux.push(f, 0), 2u);
    EXPECT_EQ(demux.stream(2).pending(), 2u);
    EXPECT_EQ(demux.stream(0).pending(), 0u);

    workload::FrameSpec g;
    g.task = 1;
    g.arrivalUs = 50.0;
    EXPECT_EQ(demux.push(g, 0), 0u);
    EXPECT_EQ(demux.assignment(1), 0);

    EXPECT_THROW(demux.push(f, 7), std::out_of_range);
    workload::FrameSpec bad;
    bad.task = workload::TaskId(-1);
    EXPECT_THROW(demux.push(bad, 0), std::invalid_argument);

    demux.closeAll();
    EXPECT_TRUE(demux.stream(0).closed());
    EXPECT_TRUE(demux.stream(1).closed());
    EXPECT_TRUE(demux.stream(2).closed());
}

// --------------------------------------------------- Dispatcher

TEST(ClusterDispatcher, PolicyNamesRoundTrip)
{
    for (const auto policy : serve::allRouterPolicies()) {
        serve::RouterPolicy parsed;
        EXPECT_TRUE(
            serve::parseRouterPolicy(toString(policy), &parsed));
        EXPECT_EQ(parsed, policy);
    }
    EXPECT_FALSE(serve::parseRouterPolicy("fastest_first", nullptr));
}

TEST(ClusterDispatcher, RoundRobinCyclesAndValidatesSessions)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const cost::CostTable costs(system, scenario.models());
    serve::Dispatcher dispatcher(serve::RouterPolicy::RoundRobin, 3,
                                 scenario, costs, 1e6);

    const std::vector<serve::DeviceGauges> gauges(3);
    EXPECT_EQ(dispatcher.route(0, 0.0, gauges), 0u);
    EXPECT_EQ(dispatcher.route(1, 1.0, gauges), 1u);
    EXPECT_EQ(dispatcher.route(0, 2.0, gauges), 2u);
    EXPECT_EQ(dispatcher.route(1, 3.0, gauges), 0u);
    EXPECT_THROW(dispatcher.route(workload::TaskId(99), 0.0, gauges),
                 std::invalid_argument);
}

TEST(ClusterDispatcher, LeastLoadedAvoidsTheBackloggedDevice)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const cost::CostTable costs(system, scenario.models());
    serve::Dispatcher dispatcher(serve::RouterPolicy::LeastLoaded, 2,
                                 scenario, costs, 1e6);

    // Equal gauges tie toward the lower index; a backlogged device 0
    // pushes the next session to device 1.
    std::vector<serve::DeviceGauges> gauges(2);
    EXPECT_EQ(dispatcher.route(0, 0.0, gauges), 0u);
    gauges[0].backlogUs = 1e9;
    EXPECT_EQ(dispatcher.route(1, 0.0, gauges), 1u);
}

// ----------------------------------------------------- Cluster

TEST(Cluster, SingleDeviceIsBitIdenticalToServeLoopRun)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall, 0.7);
    const cost::CostTable costs(system, scenario.models());
    const double window_us = 1e6;
    const uint64_t seed = 11;

    const workload::FrameSource frames(scenario, seed);
    workload::StreamSource direct(frames);
    feedStream(direct, frames, window_us);
    serve::ServeConfig serve_config;
    serve_config.windowUs = window_us;
    serve_config.seed = seed;
    serve::ServeLoop loop(system, scenario, costs, serve_config);
    auto sched = runner::makeScheduler(runner::SchedKind::Fcfs);
    const auto direct_stats = loop.run(*sched, direct).stats;

    for (const auto router : serve::allRouterPolicies()) {
        serve::ClusterConfig config;
        config.devices = 1;
        config.router = router;
        const auto clustered = runCluster(
            system, scenario, costs, config, window_us, seed);
        EXPECT_EQ(runner::frameTraceCsv(direct_stats, scenario),
                  runner::frameTraceCsv(clustered.stats, scenario));
        EXPECT_EQ(direct_stats.schedulerInvocations,
                  clustered.stats.schedulerInvocations);
        EXPECT_EQ(direct_stats.accelBusyUs,
                  clustered.stats.accelBusyUs);
    }
}

TEST(Cluster, FourDeviceRunsReplayIdenticallyUnderEveryRouter)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario = workload::makeScenario(
        workload::ScenarioPreset::VrGaming, 0.9);
    const cost::CostTable costs(system, scenario.models());
    const double window_us = 5e5;

    for (const auto router : serve::allRouterPolicies()) {
        serve::ClusterConfig config;
        config.devices = 4;
        config.router = router;
        const auto a = runCluster(system, scenario, costs, config,
                                  window_us, 23);
        const auto b = runCluster(system, scenario, costs, config,
                                  window_us, 23);
        EXPECT_EQ(runner::frameTraceCsv(a.stats, scenario),
                  runner::frameTraceCsv(b.stats, scenario));
        EXPECT_EQ(a.assignment, b.assignment);
        EXPECT_EQ(a.fairnessSpread, b.fairnessSpread);
        ASSERT_EQ(a.devices.size(), 4u);
        for (size_t k = 0; k < 4; ++k) {
            EXPECT_EQ(
                runner::frameTraceCsv(a.devices[k].stats, scenario),
                runner::frameTraceCsv(b.devices[k].stats, scenario))
                << "device " << k;
        }
        // Sessions are pinned: every root task that arrived has a
        // device, and the merged frame tallies match the sum of the
        // per-device tallies.
        uint64_t device_frames = 0;
        for (const auto& device : a.devices)
            device_frames += device.stats.totalFrames();
        EXPECT_EQ(a.stats.totalFrames(), device_frames);
    }
}

TEST(Cluster, MetricsAreDeviceNamespacedWithClusterRollups)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall, 0.5);
    const cost::CostTable costs(system, scenario.models());

    obs::MetricsRegistry metrics;
    serve::ClusterConfig config;
    config.devices = 2;
    config.router = serve::RouterPolicy::RoundRobin;
    config.serve.metrics = &metrics;
    const auto result =
        runCluster(system, scenario, costs, config, 5e5, 11);

    const auto& counters = metrics.counters();
    ASSERT_TRUE(counters.count("serve/dev0/frames/offered"));
    ASSERT_TRUE(counters.count("serve/dev1/frames/offered"));
    ASSERT_TRUE(counters.count("serve/frames/offered"));
    EXPECT_EQ(counters.at("serve/frames/offered"),
              counters.at("serve/dev0/frames/offered") +
                  counters.at("serve/dev1/frames/offered"));
    EXPECT_EQ(counters.at("serve/frames/offered"),
              result.admission.offered);

    // The simulator's un-namespaced keys stay detached in cluster
    // mode: their gauges would be last-writer-wins across devices.
    EXPECT_FALSE(counters.count("frames/completed"));

    const auto& gauges = metrics.gauges();
    ASSERT_TRUE(gauges.count("serve/cluster/devices"));
    EXPECT_EQ(gauges.at("serve/cluster/devices"), 2.0);
    ASSERT_TRUE(gauges.count("serve/cluster/fairness_spread"));
    EXPECT_EQ(gauges.at("serve/cluster/fairness_spread"),
              result.fairnessSpread);
}

TEST(Cluster, FairnessRatiosComeFromCompletedFrames)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall, 0.5);
    const cost::CostTable costs(system, scenario.models());

    serve::ClusterConfig config;
    config.devices = 2;
    config.router = serve::RouterPolicy::RoundRobin;
    const auto result =
        runCluster(system, scenario, costs, config, 1e6, 11);

    ASSERT_EQ(result.fairnessRatio.size(), 2u);
    for (const double ratio : result.fairnessRatio) {
        if (std::isfinite(ratio)) {
            EXPECT_GT(ratio, 0.0);
        }
    }
    EXPECT_GE(result.fairnessSpread, 1.0);
}

} // namespace
} // namespace dream
