/**
 * @file
 * Tests for the telemetry layer: the exact-quantile latency
 * histogram and metrics registry (src/obs/metrics.h), the Chrome
 * trace-event sink (src/obs/trace_event.h), the trace reader/
 * profiler behind dream_prof (src/tools/trace_prof.h), the
 * simulator/engine hooks that feed them, and the per-worker
 * occupancy reporting in WorkerPool and the shard orchestrator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/worker_pool.h"
#include "costmodel/cost_table.h"
#include "costmodel/cost_table_cache.h"
#include "hw/system.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace_event.h"
#include "runner/experiment.h"
#include "sched/fcfs.h"
#include "sim/simulator.h"
#include "tools/shard_sched.h"
#include "tools/trace_prof.h"
#include "workload/scenario.h"

namespace dream {
namespace {

// ------------------------------------------------ LatencyHistogram

TEST(LatencyHistogram, EmptyHistogramYieldsNaNEverywhere)
{
    obs::LatencyHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(std::isnan(h.min()));
    EXPECT_TRUE(std::isnan(h.max()));
    EXPECT_TRUE(std::isnan(h.mean()));
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
    EXPECT_EQ(h.sum(), 0.0);
}

TEST(LatencyHistogram, SingleSampleIsEveryQuantile)
{
    obs::LatencyHistogram h;
    h.record(42.5);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 42.5);
    EXPECT_EQ(h.max(), 42.5);
    EXPECT_EQ(h.quantile(0.0), 42.5);
    EXPECT_EQ(h.quantile(0.5), 42.5);
    EXPECT_EQ(h.quantile(0.999), 42.5);
    EXPECT_EQ(h.mean(), 42.5);
}

TEST(LatencyHistogram, NaNSamplesAreDropped)
{
    obs::LatencyHistogram h;
    h.record(std::numeric_limits<double>::quiet_NaN());
    EXPECT_TRUE(h.empty());
    h.record(1.0);
    h.record(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.quantile(0.5), 1.0);
}

TEST(LatencyHistogram, QuantilesInterpolateBetweenOrderStatistics)
{
    obs::LatencyHistogram h;
    // Inserted out of order on purpose: quantiles sort internally.
    for (double v : {40.0, 10.0, 30.0, 20.0})
        h.record(v);
    // pos = q * (n - 1): q=0.5 -> 1.5 -> halfway 20..30.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 25.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0 / 3.0), 20.0);
}

TEST(LatencyHistogram, MergeIsOrderIndependent)
{
    // The sum is accumulated over the sorted samples, so any merge
    // interleaving yields bit-identical aggregates — the property
    // the --jobs determinism of --metrics rests on.
    obs::LatencyHistogram a, b;
    const std::vector<double> va = {3.125, 1e9, 0.1, 7.75};
    const std::vector<double> vb = {2.5, 1e-3, 88.0};
    for (double v : va)
        a.record(v);
    for (double v : vb)
        b.record(v);

    obs::LatencyHistogram ab, ba;
    ab.merge(a);
    ab.merge(b);
    ba.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab.count(), ba.count());
    EXPECT_EQ(ab.sum(), ba.sum());
    EXPECT_EQ(ab.min(), ba.min());
    EXPECT_EQ(ab.max(), ba.max());
    for (double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_EQ(ab.quantile(q), ba.quantile(q)) << q;
}

// ------------------------------------------------- MetricsRegistry

TEST(MetricsRegistry, MergeAddsCountersGaugesAndHistograms)
{
    obs::MetricsRegistry a, b;
    a.count("frames", 3);
    b.count("frames", 4);
    b.count("drops");
    a.gaugeAdd("energy", 1.5);
    b.gaugeAdd("energy", 2.5);
    a.histogram("lat").record(1.0);
    b.histogram("lat").record(2.0);

    obs::MetricsRegistry m;
    m.merge(a);
    m.merge(b);
    std::ostringstream out;
    m.writeJson(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"frames\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"drops\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"energy\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

TEST(MetricsRegistry, VolatileMetricsStayOutOfTheCanonicalDump)
{
    obs::MetricsRegistry m;
    m.count("stable", 1);
    m.histogram("wall_ns").record(123.0);
    m.markVolatile("wall_ns");
    m.gaugeSet("busy_s", 9.0);
    m.markVolatile("busy_s");

    std::ostringstream canonical, full;
    m.writeJson(canonical);
    m.writeJson(full, /*include_volatile=*/true);
    EXPECT_EQ(canonical.str().find("wall_ns"), std::string::npos);
    EXPECT_EQ(canonical.str().find("busy_s"), std::string::npos);
    EXPECT_NE(canonical.str().find("stable"), std::string::npos);
    EXPECT_NE(full.str().find("wall_ns"), std::string::npos);
    EXPECT_NE(full.str().find("busy_s"), std::string::npos);
}

TEST(MetricsRegistry, MergedDumpIsByteIdenticalInAnyOrder)
{
    obs::MetricsRegistry a, b;
    for (int i = 0; i < 17; ++i)
        a.histogram("h").record(std::sqrt(double(i) + 0.3));
    for (int i = 0; i < 11; ++i)
        b.histogram("h").record(1.0 / (double(i) + 1.7));
    a.count("c", 5);
    b.count("c", 9);

    obs::MetricsRegistry ab, ba;
    ab.merge(a);
    ab.merge(b);
    ba.merge(b);
    ba.merge(a);
    std::ostringstream sab, sba;
    ab.writeJson(sab);
    ba.writeJson(sba);
    EXPECT_EQ(sab.str(), sba.str());
}

// -------------------------------------------------- TraceEventSink

TEST(TraceEventSink, WritesParsableChromeTraceJson)
{
    obs::TraceEventSink sink{7};
    sink.processName("point-key");
    sink.threadName(0, "accel0 WS0-2K");
    sink.threadName(1, "scheduler");
    sink.runMeta(obs::TraceArgs()
                     .str("key", "point-key")
                     .num("window_us", 1000.0));
    sink.span(0, "ssd", "job", 10.0, 30.0,
              obs::TraceArgs().integer("frame", 1));
    sink.span(1, "schedule", "sched", 15.0, 0.0,
              obs::TraceArgs().num("wall_ns", 250.0).num("rounds",
                                                         1.0));
    sink.instant(1, "frame_arrival", "frame", 20.0,
                 obs::TraceArgs().str("task", "a \"b\"\nc"));

    std::ostringstream out;
    sink.writeJson(out);

    std::istringstream in(out.str());
    const auto profile = tools::readTraceEventJson(in, "test");
    ASSERT_EQ(profile.events.size(), 7u);
    ASSERT_EQ(profile.points.size(), 1u);
    const auto& pt = profile.points[0];
    EXPECT_EQ(pt.pid, 7);
    EXPECT_EQ(pt.key, "point-key");
    EXPECT_EQ(pt.windowUs, 1000.0);
    ASSERT_EQ(pt.accels.size(), 1u);
    EXPECT_EQ(pt.accels[0].name, "accel0 WS0-2K");
    EXPECT_EQ(pt.accels[0].jobs, 1u);
    EXPECT_EQ(pt.accels[0].busyUs, 30.0);
    EXPECT_EQ(pt.schedInvocations, 1u);
    ASSERT_EQ(pt.decisionWallNs.size(), 1u);
    EXPECT_EQ(pt.decisionWallNs[0], 250.0);
    EXPECT_EQ(pt.frameArrivals, 1u);

    // The escaped instant arg round-trips through quote/unquote.
    bool found = false;
    for (const auto& ev : profile.events) {
        if (ev.ph != 'i')
            continue;
        const std::string* task = ev.arg("task");
        ASSERT_NE(task, nullptr);
        EXPECT_EQ(*task, "a \"b\"\nc");
        found = true;
    }
    EXPECT_TRUE(found);
}

TEST(TraceProf, RejectsBackwardTimestampsOnOneTrack)
{
    const std::string bad =
        "[\n"
        "{\"name\": \"a\", \"ph\": \"i\", \"ts\": 10, \"s\": \"t\","
        " \"pid\": 0, \"tid\": 0},\n"
        "{\"name\": \"b\", \"ph\": \"i\", \"ts\": 5, \"s\": \"t\","
        " \"pid\": 0, \"tid\": 0}\n"
        "]\n";
    std::istringstream in(bad);
    EXPECT_THROW(tools::readTraceEventJson(in, "bad"),
                 std::runtime_error);

    // The same timestamps on DIFFERENT tracks are fine — the
    // monotonicity contract is per (pid, tid).
    const std::string ok =
        "[\n"
        "{\"name\": \"a\", \"ph\": \"i\", \"ts\": 10, \"s\": \"t\","
        " \"pid\": 0, \"tid\": 0},\n"
        "{\"name\": \"b\", \"ph\": \"i\", \"ts\": 5, \"s\": \"t\","
        " \"pid\": 0, \"tid\": 1}\n"
        "]\n";
    std::istringstream in_ok(ok);
    EXPECT_NO_THROW(tools::readTraceEventJson(in_ok, "ok"));
}

TEST(TraceProf, RejectsMalformedEvents)
{
    const auto reject = [](const std::string& text) {
        std::istringstream in(text);
        EXPECT_THROW(tools::readTraceEventJson(in, "t"),
                     std::runtime_error)
            << text;
    };
    reject("{}");                   // not an array
    reject("[{\"ph\": \"X\"}]");    // missing name/pid/tid
    reject("[{\"name\": \"a\", \"ph\": \"X\", \"ts\": 1, "
           "\"dur\": -2, \"pid\": 0, \"tid\": 0}]"); // negative dur
    reject("[{\"name\": \"a\", \"ph\": \"Q\", \"ts\": 1, "
           "\"pid\": 0, \"tid\": 0}]"); // unknown phase
    reject("[] trailing");
}

// ------------------------------------------- metrics-dump reader

TEST(MetricsProf, RoundTripsARegistryDumpIntoTheCacheReport)
{
    obs::MetricsRegistry m;
    m.count("costcache/hit", 9);
    m.count("costcache/miss", 3);
    m.count("costcache/evict", 1);
    m.markVolatile("costcache/hit");
    m.markVolatile("costcache/miss");
    m.markVolatile("costcache/evict");
    m.count("frames/total", 42);
    m.gaugeSet("busy", 0.5);
    m.histogram("wall_ns").record(100.0);

    std::ostringstream full;
    m.writeJson(full, /*include_volatile=*/true);
    std::istringstream in(full.str());
    const auto profile = tools::readMetricsJson(in, "t");

    EXPECT_TRUE(profile.has("costcache/hit"));
    EXPECT_EQ(profile.counter("costcache/hit"), 9.0);
    EXPECT_EQ(profile.counter("costcache/miss"), 3.0);
    EXPECT_EQ(profile.counter("frames/total"), 42.0);
    EXPECT_EQ(profile.counter("absent", -1.0), -1.0);

    const auto report = tools::cacheReport(profile);
    EXPECT_NE(report.find("hits"), std::string::npos);
    EXPECT_NE(report.find("9"), std::string::npos);
    EXPECT_NE(report.find("75.0%"), std::string::npos);
}

TEST(MetricsProf, CanonicalDumpWithoutCacheCountersExplainsItself)
{
    obs::MetricsRegistry m;
    m.count("costcache/hit", 9);
    m.markVolatile("costcache/hit");
    m.count("frames/total", 42);

    // The canonical dump excludes the volatile cache counters, so
    // the report must say how to record them, not print zeros.
    std::ostringstream canonical;
    m.writeJson(canonical);
    std::istringstream in(canonical.str());
    const auto report = tools::cacheReport(tools::readMetricsJson(in));
    EXPECT_NE(report.find("--metrics-full"), std::string::npos);
    EXPECT_EQ(report.find("hit rate"), std::string::npos);
}

TEST(MetricsProf, RejectsMalformedDumps)
{
    const auto reject = [](const std::string& text) {
        std::istringstream in(text);
        EXPECT_THROW(tools::readMetricsJson(in, "t"),
                     std::runtime_error)
            << text;
    };
    reject("");
    reject("[]");                      // not an object
    reject("{\"counters\": 3}");       // section not an object
    reject("{\"counters\": {}} junk"); // trailing data
}

// ------------------------------------------- simulator telemetry

struct SimRun {
    sim::RunStats stats;
    obs::TraceEventSink trace{0};
    obs::MetricsRegistry metrics;
};

SimRun
runWithTelemetry(bool attach)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);
    const cost::CostTable costs(system, scenario.models());

    sim::SimConfig cfg;
    cfg.windowUs = 2e5;
    cfg.seed = 11;
    SimRun run;
    obs::SimTelemetry telemetry;
    if (attach) {
        run.trace.runMeta(
            obs::TraceArgs().num("window_us", cfg.windowUs));
        telemetry.trace = &run.trace;
        telemetry.metrics = &run.metrics;
        cfg.telemetry = &telemetry;
    }
    sched::FcfsScheduler fcfs;
    sim::Simulator simulator(system, scenario, costs, cfg);
    run.stats = simulator.run(fcfs);
    return run;
}

TEST(SimTelemetry, JobSpanUnionMatchesReportedBusyTime)
{
    SimRun run = runWithTelemetry(true);
    ASSERT_GT(run.trace.size(), 0u);

    std::ostringstream out;
    run.trace.writeJson(out);
    std::istringstream in(out.str());
    const auto profile = tools::readTraceEventJson(in, "sim");
    ASSERT_EQ(profile.points.size(), 1u);
    const auto& pt = profile.points[0];
    ASSERT_EQ(pt.accels.size(), run.stats.accelBusyUs.size());
    for (size_t i = 0; i < pt.accels.size(); ++i) {
        // dream_prof recomputes the SAME busy quantity the
        // simulator tracks: union of job spans clamped to the
        // window. Exact equality, not approximate.
        EXPECT_DOUBLE_EQ(pt.accels[i].busyUs,
                         run.stats.accelBusyUs[i])
            << "accel " << i;
        EXPECT_GT(pt.accels[i].jobs, 0u);
        EXPECT_LE(run.stats.accelBusyUs[i], run.stats.windowUs);
    }
    EXPECT_GT(pt.frameArrivals, 0u);
    EXPECT_GT(pt.schedInvocations, 0u);
    EXPECT_EQ(pt.decisionWallNs.size(), pt.schedInvocations);
}

TEST(SimTelemetry, AttachingTelemetryDoesNotChangeTheRun)
{
    SimRun with = runWithTelemetry(true);
    SimRun without = runWithTelemetry(false);
    EXPECT_EQ(without.trace.size(), 0u);
    EXPECT_TRUE(without.metrics.empty());

    ASSERT_EQ(with.stats.tasks.size(), without.stats.tasks.size());
    for (size_t t = 0; t < with.stats.tasks.size(); ++t) {
        EXPECT_EQ(with.stats.tasks[t].totalFrames,
                  without.stats.tasks[t].totalFrames);
        EXPECT_EQ(with.stats.tasks[t].violatedFrames,
                  without.stats.tasks[t].violatedFrames);
        EXPECT_EQ(with.stats.tasks[t].energyMj,
                  without.stats.tasks[t].energyMj);
    }
    EXPECT_EQ(with.stats.contextSwitches,
              without.stats.contextSwitches);
    ASSERT_EQ(with.stats.accelBusyUs.size(),
              without.stats.accelBusyUs.size());
    for (size_t i = 0; i < with.stats.accelBusyUs.size(); ++i)
        EXPECT_EQ(with.stats.accelBusyUs[i],
                  without.stats.accelBusyUs[i]);
}

TEST(SimTelemetry, FrameCountersMatchRunStats)
{
    SimRun run = runWithTelemetry(true);
    std::ostringstream out;
    run.metrics.writeJson(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"frames/total\": " +
                        std::to_string(run.stats.totalFrames())),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"frames/violated\": " +
                        std::to_string(run.stats.totalViolated())),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("frame/latency_us"), std::string::npos);
    EXPECT_NE(json.find("frame/queue_wait_us"), std::string::npos);
    // Wall-clock decision time is volatile: in the trace args and
    // the full dump, never in the canonical one.
    EXPECT_EQ(json.find("sched/decision_wall_ns"),
              std::string::npos);
    std::ostringstream full;
    run.metrics.writeJson(full, /*include_volatile=*/true);
    EXPECT_NE(full.str().find("sched/decision_wall_ns"),
              std::string::npos);
}

// ----------------------------------------------- engine plumbing

engine::SweepGrid
obsGrid()
{
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::ArCall)
        .addSystem(hw::SystemPreset::Sys4k2Ws)
        .addScheduler(runner::SchedKind::Fcfs)
        .addScheduler(runner::SchedKind::StaticFcfs)
        .seeds({11, 13})
        .window(1e5);
    return grid;
}

TEST(EngineTelemetry, MetricsDumpIsByteIdenticalAcrossJobs)
{
    const auto grid = obsGrid();
    obs::MetricsRegistry m1, m4;
    engine::EngineOptions o1, o4;
    o1.jobs = 1;
    o1.metrics = &m1;
    o4.jobs = 4;
    o4.metrics = &m4;
    engine::Engine(o1).run(grid);
    engine::Engine(o4).run(grid);

    std::ostringstream s1, s4;
    m1.writeJson(s1);
    m4.writeJson(s4);
    EXPECT_FALSE(m1.empty());
    EXPECT_EQ(s1.str(), s4.str());
}

TEST(EngineTelemetry, CostCacheCountersAreRecordedButVolatile)
{
    // Cache traffic depends on scheduling history (which worker
    // misses first), so the counters must reach profilers through
    // the full dump while staying out of the canonical one.
    cost::CostTableCache::global().clear();

    const auto grid = obsGrid();
    obs::MetricsRegistry m;
    engine::EngineOptions opts;
    opts.jobs = 1;
    opts.metrics = &m;
    engine::Engine(opts).run(grid);

    cost::CostTableCache::global().clear();

    ASSERT_TRUE(m.counters().count("costcache/hit"));
    ASSERT_TRUE(m.counters().count("costcache/miss"));
    // One (system, model set) pair across the grid's four points:
    // the first acquisition builds, the other three hit.
    EXPECT_EQ(m.counters().at("costcache/miss"), 1u);
    EXPECT_EQ(m.counters().at("costcache/hit"), 3u);

    std::ostringstream canonical, full;
    m.writeJson(canonical);
    m.writeJson(full, /*include_volatile=*/true);
    EXPECT_EQ(canonical.str().find("costcache/"), std::string::npos);
    EXPECT_NE(full.str().find("costcache/hit"), std::string::npos);
    EXPECT_NE(full.str().find("costcache/miss"), std::string::npos);
}

TEST(EngineTelemetry, WritesOneValidTraceFilePerPoint)
{
    const std::string dir =
        ::testing::TempDir() + "dream_obs_trace_events";
    std::filesystem::remove_all(dir);
    const auto grid = obsGrid();
    engine::EngineOptions opts;
    opts.jobs = 2;
    opts.traceEventDir = dir;
    engine::Engine(opts).run(grid);

    for (size_t i = 0; i < grid.size(); ++i) {
        const auto point = grid.point(i);
        const std::string name = engine::traceEventFileName(point);
        EXPECT_EQ(name.substr(name.size() - 11), ".trace.json");
        const std::string path = dir + '/' + name;
        ASSERT_TRUE(std::filesystem::exists(path)) << path;
        const auto profile = tools::readTraceEventJson(path);
        ASSERT_EQ(profile.points.size(), 1u);
        EXPECT_EQ(profile.points[0].pid, (long long) i);
        EXPECT_EQ(profile.points[0].key, point.key());
        EXPECT_EQ(profile.points[0].windowUs, point.windowUs);
        EXPECT_FALSE(profile.points[0].accels.empty());
    }
    std::filesystem::remove_all(dir);
}

TEST(EngineTelemetry, DisabledTelemetryWritesNoFiles)
{
    const std::string dir =
        ::testing::TempDir() + "dream_obs_disabled";
    std::filesystem::remove_all(dir);
    const auto grid = obsGrid();
    engine::EngineOptions opts; // no traceEventDir, no metrics
    opts.jobs = 2;
    engine::Engine(opts).run(grid);
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(WorkerPool, ReportsPerWorkerOccupancy)
{
    engine::WorkerPool pool(3);
    pool.parallelFor(16, [](size_t) {});
    const auto& stats = pool.lastRunStats();
    ASSERT_LE(stats.size(), 3u);
    ASSERT_FALSE(stats.empty());
    uint64_t items = 0;
    for (const auto& ws : stats) {
        items += ws.items;
        EXPECT_GE(ws.busySeconds, 0.0);
        EXPECT_GE(ws.idleSeconds, 0.0);
    }
    EXPECT_EQ(items, 16u);

    engine::WorkerPool serial(1);
    serial.parallelFor(5, [](size_t) {});
    ASSERT_EQ(serial.lastRunStats().size(), 1u);
    EXPECT_EQ(serial.lastRunStats()[0].items, 5u);
    EXPECT_EQ(serial.lastRunStats()[0].steals, 0u);
}

TEST(ChunkReport, IncludesPerWorkerUtilizationSection)
{
    tools::OrchestratorOptions opts;
    opts.command = {"bench"};
    tools::OrchestratorResult result;
    result.ok = true;
    result.workers = 2;
    result.wallSeconds = 10.0;
    result.chunks.resize(2);
    result.chunks[0].chunk = {0, 4};
    result.chunks[0].attempts = 1;
    result.chunks[0].worker = 0;
    result.chunks[0].wallSeconds = 4.0;
    result.chunks[0].ok = true;
    result.chunks[1].chunk = {4, 8};
    result.chunks[1].attempts = 2;
    result.chunks[1].worker = 1;
    result.chunks[1].wallSeconds = 6.0;
    result.chunks[1].ok = true;
    result.workerStats.resize(2);
    result.workerStats[0] = {2, 1, 7.5};
    result.workerStats[1] = {1, 0, 6.0};

    std::ostringstream out;
    tools::writeChunkReport(opts, result, out);
    const std::string report = out.str();
    EXPECT_NE(report.find("| worker | chunks run | failed attempts "
                          "| busy (s) | idle (s) | utilization |"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("| 0 | 2 | 1 | 7.500 | 2.500 | 75.0% |"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("| 1 | 1 | 0 | 6.000 | 4.000 | 60.0% |"),
              std::string::npos)
        << report;
}

// --------------------------------------------------- FrameRecord

TEST(FrameRecord, CompletionDefaultsToNaNNotSentinel)
{
    sim::FrameRecord fr;
    EXPECT_TRUE(std::isnan(fr.completionUs));
    EXPECT_FALSE(fr.isCompleted());
    fr.completionUs = 0.0; // completing exactly at t=0 is valid
    EXPECT_TRUE(fr.isCompleted());
}

} // namespace
} // namespace dream
