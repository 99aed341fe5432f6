/**
 * @file
 * Sweep engine tests: worker-pool semantics, grid decoding, sink
 * formatting, percentile aggregation, the --jobs determinism
 * contract (parallel == serial, byte for byte) and the equivalence
 * of the engine's parameter grid with the single-point evaluator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/adaptivity.h"
#include "costmodel/cost_table_cache.h"
#include "engine/engine.h"
#include "engine/param_eval.h"
#include "engine/result_sink.h"
#include "engine/worker_pool.h"
#include "runner/trace.h"

namespace dream {
namespace {

TEST(WorkerPool, CoversEveryIndexExactlyOnce)
{
    constexpr size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits)
        h.store(0);

    engine::WorkerPool pool(8);
    pool.parallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(WorkerPool, SerialModeRunsInline)
{
    engine::WorkerPool pool(1);
    EXPECT_EQ(pool.jobs(), 1);
    std::vector<size_t> order;
    pool.parallelFor(5, [&](size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, PropagatesWorkerExceptions)
{
    engine::WorkerPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
}

TEST(WorkerPool, NonPositiveJobsSelectsHardwareConcurrency)
{
    engine::WorkerPool pool(0);
    EXPECT_GE(pool.jobs(), 1);
    EXPECT_EQ(pool.jobs(), engine::WorkerPool::defaultJobs());
}

TEST(SweepGrid, DecodesIndicesSeedFastest)
{
    engine::SweepGrid grid;
    grid.addScenario("SC", [] { return workload::Scenario{}; })
        .addSystem("SYS", [] { return hw::SystemConfig{}; })
        .addScheduler("A", [](const engine::ParamMap&) {
            return std::unique_ptr<sim::Scheduler>();
        })
        .addScheduler("B", [](const engine::ParamMap&) {
            return std::unique_ptr<sim::Scheduler>();
        })
        .addParam("x", {0.0, 1.0, 2.0})
        .seeds({7, 9})
        .window(1e5);

    ASSERT_EQ(grid.size(), 2u * 3u * 2u);

    const auto p0 = grid.point(0);
    EXPECT_EQ(p0.scheduler, "A");
    EXPECT_EQ(engine::paramValue(p0.params, "x"), 0.0);
    EXPECT_EQ(p0.seed, 7u);
    EXPECT_EQ(p0.key(), "SC/SYS/A/x=0/seed=7");
    EXPECT_EQ(p0.cellKey(), "SC/SYS/A/x=0");

    // Seed varies fastest...
    EXPECT_EQ(grid.point(1).seed, 9u);
    EXPECT_EQ(engine::paramValue(grid.point(1).params, "x"), 0.0);
    // ...then the parameter axis...
    EXPECT_EQ(engine::paramValue(grid.point(2).params, "x"), 1.0);
    EXPECT_EQ(grid.point(2).seed, 7u);
    // ...then the scheduler axis.
    const auto last = grid.point(grid.size() - 1);
    EXPECT_EQ(last.scheduler, "B");
    EXPECT_EQ(engine::paramValue(last.params, "x"), 2.0);
    EXPECT_EQ(last.seed, 9u);
    EXPECT_EQ(last.windowUs, 1e5);
}

TEST(SweepGrid, UnknownParamNameThrows)
{
    const engine::ParamMap params = {{"alpha", 1.0}};
    EXPECT_EQ(engine::paramValue(params, "alpha"), 1.0);
    EXPECT_THROW(engine::paramValue(params, "beta"),
                 std::out_of_range);
}

TEST(SweepGrid, LinspaceHitsEndpoints)
{
    engine::SweepGrid grid;
    grid.linspaceParam("a", 0.0, 2.0, 9);
    const auto& axis = grid.paramAxes().front();
    ASSERT_EQ(axis.values.size(), 9u);
    EXPECT_DOUBLE_EQ(axis.values.front(), 0.0);
    EXPECT_DOUBLE_EQ(axis.values[4], 1.0);
    EXPECT_DOUBLE_EQ(axis.values.back(), 2.0);
}

TEST(AggregateSink, PercentileInterpolatesLinearly)
{
    using engine::AggregateSink;
    EXPECT_EQ(AggregateSink::percentile({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(AggregateSink::percentile({5.0}, 99.0), 5.0);
    EXPECT_DOUBLE_EQ(
        AggregateSink::percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(
        AggregateSink::percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(
        AggregateSink::percentile({1.0, 2.0, 3.0, 4.0}, 100.0), 4.0);

    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(double(i));
    EXPECT_DOUBLE_EQ(AggregateSink::percentile(v, 50.0), 50.5);
    EXPECT_NEAR(AggregateSink::percentile(v, 99.0), 99.01, 1e-12);
}

namespace {

engine::RunRecord
syntheticRecord(const std::string& sched, uint64_t seed, double ux)
{
    engine::RunRecord r;
    r.scenario = "sc";
    r.system = "sys";
    r.scheduler = sched;
    r.seed = seed;
    r.uxCost = ux;
    r.energyMj = 10.0 * ux;
    r.totalFrames = 100;
    r.droppedFrames = seed; // distinct drop rates per seed
    r.dropRate = double(seed) / 100.0;
    return r;
}

} // anonymous namespace

TEST(AggregateSink, GroupsSeedsIntoCells)
{
    engine::AggregateSink agg;
    agg.write(syntheticRecord("A", 1, 1.0));
    agg.write(syntheticRecord("A", 2, 3.0));
    agg.write(syntheticRecord("A", 3, 2.0));
    agg.write(syntheticRecord("B", 1, 10.0));

    const auto cells = agg.cells();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].key, "sc/sys/A");
    EXPECT_EQ(cells[0].runs, 3u);
    EXPECT_DOUBLE_EQ(cells[0].uxCost.mean, 2.0);
    EXPECT_DOUBLE_EQ(cells[0].uxCost.p50, 2.0);
    EXPECT_DOUBLE_EQ(cells[0].uxCost.min, 1.0);
    EXPECT_DOUBLE_EQ(cells[0].uxCost.max, 3.0);
    EXPECT_DOUBLE_EQ(cells[0].dropRate.mean, 0.02);
    EXPECT_EQ(cells[1].key, "sc/sys/B");
    EXPECT_EQ(cells[1].runs, 1u);
    EXPECT_DOUBLE_EQ(cells[1].uxCost.p99, 10.0);
}

TEST(CsvSink, EmitsHeaderAndRow)
{
    engine::RunRecord r = syntheticRecord("A", 11, 1.5);
    r.index = 4;
    r.params = {{"alpha", 0.25}};
    r.windowUs = 1e6;

    std::ostringstream out;
    {
        engine::CsvSink sink(out);
        sink.write(r);
    }
    EXPECT_EQ(out.str(),
              "index,scenario,system,scheduler,alpha,seed,window_us,"
              "ux_cost,dlv_rate,norm_energy,energy_mj,violation_frac,"
              "drop_rate,total_frames,violated_frames,dropped_frames,"
              "sched_invocations\n"
              "4,sc,sys,A,0.25,11,1000000,1.5,0,0,15,0,0.11,100,0,11,"
              "0\n");
}

TEST(JsonSink, EmitsWellFormedArray)
{
    std::ostringstream out;
    {
        engine::JsonSink sink(out);
        sink.write(syntheticRecord("A", 1, 1.0));
        sink.write(syntheticRecord("B", 2, 2.0));
        sink.close();
    }
    const std::string s = out.str();
    EXPECT_EQ(s.front(), '[');
    EXPECT_EQ(s.substr(s.size() - 2), "]\n");
    EXPECT_NE(s.find("\"scheduler\": \"A\""), std::string::npos);
    EXPECT_NE(s.find("\"scheduler\": \"B\""), std::string::npos);
    EXPECT_NE(s.find("\"ux_cost\": 2"), std::string::npos);
}

TEST(JsonSink, EmptyRunYieldsEmptyArray)
{
    std::ostringstream out;
    {
        engine::JsonSink sink(out);
        sink.close();
    }
    EXPECT_EQ(out.str(), "[]\n");
}

/** A small but real grid: 2 schedulers x 2 alphas x 2 seeds. */
engine::SweepGrid
smallGrid()
{
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addScheduler(runner::SchedKind::Fcfs)
        .addParam("alpha", {0.5, 1.5})
        .addParam("beta", {1.0})
        .seeds({1, 2})
        .window(5e4);
    const auto dream = engine::dreamFixedParamScheduler();
    grid.addScheduler(dream.name, dream.make);
    return grid;
}

TEST(Engine, ParallelRunsAreByteIdenticalToSerial)
{
    const auto grid = smallGrid();
    ASSERT_EQ(grid.size(), 8u);

    std::ostringstream csv1, csv8;
    engine::CsvSink sink1(csv1), sink8(csv8);
    const auto serial = engine::Engine({1}).run(grid, {&sink1});
    const auto parallel = engine::Engine({8}).run(grid, {&sink8});

    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(csv1.str(), csv8.str());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].key(), parallel[i].key());
        EXPECT_EQ(serial[i].uxCost, parallel[i].uxCost) << i;
        EXPECT_EQ(serial[i].energyMj, parallel[i].energyMj) << i;
        EXPECT_EQ(serial[i].totalFrames, parallel[i].totalFrames) << i;
    }
}

TEST(Engine, CostCacheOnAndOffAreByteIdentical)
{
    // Invariant 3: a table served warm from the shared cache and one
    // built for the point alone (capacity 0 keeps nothing, so every
    // point builds its own) give the same bytes at any --jobs value.
    // Every Table 3 scenario (Supernet variants included) under every
    // evaluation scheduler, on a heterogeneous and a homogeneous
    // system.
    engine::SweepGrid grid;
    for (const auto preset : workload::allScenarioPresets())
        grid.addScenario(preset);
    grid.addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addSystem(hw::SystemPreset::Sys4k2Ws);
    for (const auto kind : runner::evaluationSchedulers())
        grid.addScheduler(kind);
    grid.seeds({1}).window(5e5);

    auto& cache = cost::CostTableCache::global();
    const size_t saved_capacity = cache.capacity();
    std::ostringstream shared1, shared4, fresh1;
    {
        engine::CsvSink sink_s1(shared1), sink_s4(shared4),
            sink_f1(fresh1);
        cache.clear();
        engine::Engine({1}).run(grid, {&sink_s1});
        engine::Engine({4}).run(grid, {&sink_s4});
        EXPECT_GT(cache.stats().hits, 0u);
        cache.clear();
        cache.setCapacity(0);
        engine::Engine({1}).run(grid, {&sink_f1});
        EXPECT_EQ(cache.stats().hits, 0u);
        EXPECT_EQ(cache.stats().misses, grid.size());
    }
    cache.setCapacity(saved_capacity);
    cache.clear();

    EXPECT_EQ(shared1.str(), fresh1.str());
    EXPECT_EQ(shared1.str(), shared4.str());
}

TEST(Engine, ParamGridMatchesSingleEvaluator)
{
    const auto sys_preset = hw::SystemPreset::Sys4k1Ws2Os;
    const auto sc_preset = workload::ScenarioPreset::VrGaming;
    const auto grid =
        engine::paramSpaceGrid(sys_preset, sc_preset, 2);
    const auto records = engine::Engine({2}).run(grid);
    ASSERT_EQ(records.size(), 4u);

    const auto system = hw::makeSystem(sys_preset);
    const auto scenario = workload::makeScenario(sc_preset);
    engine::WorkerPool pool(2);
    std::vector<std::pair<double, double>> pts;
    for (const auto& r : records)
        pts.push_back({engine::paramValue(r.params, "alpha"),
                       engine::paramValue(r.params, "beta")});
    const auto costs =
        engine::makeBatchEvaluator(system, scenario, pool)(pts);
    for (size_t i = 0; i < records.size(); ++i)
        EXPECT_DOUBLE_EQ(records[i].uxCost, costs[i]) << records[i].key();
}

TEST(Engine, FilteredRunSelectsMatchingPointsDeterministically)
{
    const auto grid = smallGrid();
    const auto filter = [](const engine::SweepGrid::Point& p) {
        return p.key().find("seed=1") != std::string::npos;
    };

    std::ostringstream csv1, csv4;
    engine::CsvSink sink1(csv1), sink4(csv4);
    const auto serial =
        engine::Engine({1}).run(grid, {&sink1}, filter);
    const auto parallel =
        engine::Engine({4}).run(grid, {&sink4}, filter);

    ASSERT_EQ(serial.size(), 4u); // half of the 8 points
    EXPECT_EQ(csv1.str(), csv4.str());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].seed, 1u);
        EXPECT_EQ(serial[i].key(), parallel[i].key());
        EXPECT_EQ(serial[i].uxCost, parallel[i].uxCost);
    }
    // Original grid indices are preserved and ascending.
    for (size_t i = 1; i < serial.size(); ++i)
        EXPECT_GT(serial[i].index, serial[i - 1].index);

    // A null filter matches the unfiltered overload.
    const auto all =
        engine::Engine({1}).run(grid, {}, engine::PointFilter{});
    EXPECT_EQ(all.size(), grid.size());
}

TEST(ShardSpec, ParsesValidSpecsAndRejectsMalformedOnes)
{
    engine::ShardSpec s;
    ASSERT_TRUE(engine::ShardSpec::parse("2/4", &s));
    EXPECT_EQ(s.index, 2);
    EXPECT_EQ(s.count, 4);
    EXPECT_TRUE(s.active());
    EXPECT_EQ(s.toString(), "2/4");

    ASSERT_TRUE(engine::ShardSpec::parse("1/1", &s));
    EXPECT_FALSE(s.active());

    for (const char* bad :
         {"", "/", "3", "0/4", "5/4", "-1/4", "1/0", "a/4", "1/b",
          "1/4x", "1//4",
          // Out of int range: must be rejected, not wrapped.
          "4294967297/4294967297", "1/99999999999999999999"}) {
        engine::ShardSpec keep{7, 9};
        EXPECT_FALSE(engine::ShardSpec::parse(bad, &keep)) << bad;
        EXPECT_EQ(keep.index, 7) << bad; // untouched on failure
    }
}

TEST(ShardSpec, RangesTileTheSequenceExactly)
{
    for (const size_t total : {0u, 1u, 3u, 7u, 8u, 100u}) {
        for (const int n : {1, 2, 3, 4, 7, 10}) {
            size_t covered = 0;
            size_t prev_end = 0;
            for (int k = 1; k <= n; ++k) {
                const engine::ShardSpec s{k, n};
                const auto r = s.range(total);
                EXPECT_EQ(r.first, prev_end); // contiguous
                EXPECT_LE(r.second, total);
                prev_end = r.second;
                covered += r.second - r.first;
                for (size_t p = r.first; p < r.second; ++p)
                    EXPECT_TRUE(s.contains(p, total));
            }
            EXPECT_EQ(prev_end, total);   // covering
            EXPECT_EQ(covered, total);    // disjoint
        }
    }
    // More shards than points: some shards are empty, none gets
    // more than one point.
    for (int k = 1; k <= 4; ++k) {
        const auto r = engine::ShardSpec{k, 4}.range(2);
        EXPECT_LE(r.second - r.first, 1u) << k;
    }
    EXPECT_EQ((engine::ShardSpec{1, 4}.range(2).second), 0u);
}

TEST(Engine, ShardedRunsPartitionTheGrid)
{
    const auto grid = smallGrid();
    const auto full = engine::Engine({1}).run(grid);
    ASSERT_EQ(full.size(), 8u);

    std::vector<engine::RunRecord> stitched;
    for (int k = 1; k <= 3; ++k) {
        const auto part = engine::Engine({2}).run(
            grid, {}, engine::PointFilter{},
            engine::ShardSpec{k, 3});
        stitched.insert(stitched.end(), part.begin(), part.end());
    }
    ASSERT_EQ(stitched.size(), full.size());
    for (size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(stitched[i].key(), full[i].key());
        EXPECT_EQ(stitched[i].uxCost, full[i].uxCost) << i;
        EXPECT_EQ(stitched[i].index, full[i].index) << i;
    }

    EXPECT_THROW(engine::Engine({1}).run(grid, {},
                                         engine::PointFilter{},
                                         engine::ShardSpec{5, 4}),
                 std::invalid_argument);
}

TEST(Engine, ShardComposesWithPointFilter)
{
    const auto grid = smallGrid();
    const auto filter = [](const engine::SweepGrid::Point& p) {
        return p.key().find("seed=1") != std::string::npos;
    };
    const auto filtered = engine::Engine({1}).run(grid, {}, filter);
    ASSERT_EQ(filtered.size(), 4u);

    // The shards partition the FILTERED sequence, not the grid.
    std::vector<engine::RunRecord> stitched;
    for (int k = 1; k <= 2; ++k) {
        const auto part = engine::Engine({1}).run(
            grid, {}, filter, engine::ShardSpec{k, 2});
        EXPECT_EQ(part.size(), 2u);
        stitched.insert(stitched.end(), part.begin(), part.end());
    }
    ASSERT_EQ(stitched.size(), filtered.size());
    for (size_t i = 0; i < filtered.size(); ++i)
        EXPECT_EQ(stitched[i].key(), filtered[i].key());

    // A shard of a tiny filtered set can be empty.
    const auto empty = engine::Engine({1}).run(
        grid, {}, filter, engine::ShardSpec{9, 9});
    EXPECT_EQ(empty.size(), 1u); // 4 points, 9 shards: last has one
    const auto mid = engine::Engine({1}).run(
        grid, {}, filter, engine::ShardSpec{2, 9});
    EXPECT_TRUE(mid.empty());
}

TEST(ChunkSpec, ParsesValidSpecsAndRejectsMalformedOnes)
{
    engine::ChunkSpec c;
    ASSERT_TRUE(engine::ChunkSpec::parse("3:7", &c));
    EXPECT_EQ(c.begin, 3u);
    EXPECT_EQ(c.end, 7u);
    EXPECT_TRUE(c.active());
    EXPECT_EQ(c.toString(), "3:7");

    ASSERT_TRUE(engine::ChunkSpec::parse("5:5", &c));
    EXPECT_EQ(c.begin, c.end); // empty chunks are valid

    ASSERT_TRUE(engine::ChunkSpec::parse("4:", &c));
    EXPECT_EQ(c.begin, 4u);
    EXPECT_EQ(c.end, engine::ChunkSpec::npos); // open end
    EXPECT_EQ(c.toString(), "4:");

    ASSERT_TRUE(engine::ChunkSpec::parse("0:", &c));
    EXPECT_FALSE(c.active()); // the whole ordering

    for (const char* bad :
         {"", ":", "3", ":7", "7:3", "-1:4", "1:b", "a:4", "1:4x",
          "1.5:4", " 1:4",
          // Overflow must be rejected, not saturated to npos.
          "99999999999999999999:4", "1:99999999999999999999",
          "99999999999999999999:99999999999999999998"}) {
        engine::ChunkSpec keep{7, 9};
        EXPECT_FALSE(engine::ChunkSpec::parse(bad, &keep)) << bad;
        EXPECT_EQ(keep.begin, 7u) << bad; // untouched on failure
    }
}

TEST(ChunkSpec, RangeClampsAndSliceRebasesGlobally)
{
    const engine::ChunkSpec c{3, 7};
    EXPECT_EQ(c.range(100), (std::pair<size_t, size_t>{3, 7}));
    EXPECT_EQ(c.range(5), (std::pair<size_t, size_t>{3, 5}));
    EXPECT_EQ(c.range(2), (std::pair<size_t, size_t>{2, 2}));
    EXPECT_TRUE(c.contains(3, 100));
    EXPECT_FALSE(c.contains(7, 100));

    const engine::ChunkSpec open{3, engine::ChunkSpec::npos};
    EXPECT_EQ(open.range(10), (std::pair<size_t, size_t>{3, 10}));

    // slice() rebases a global range onto per-grid windows: the
    // slices over consecutive windows tile the global chunk, the
    // multi-grid invariant bench_main's cursor relies on.
    const engine::ChunkSpec global{5, 15};
    const auto a = global.slice(0, 10);  // window [0, 10)
    const auto b = global.slice(10, 10); // window [10, 20)
    const auto d = global.slice(20, 10); // window [20, 30)
    EXPECT_EQ(a.begin, 5u);
    EXPECT_EQ(a.end, 10u);
    EXPECT_EQ(b.begin, 0u);
    EXPECT_EQ(b.end, 5u);
    EXPECT_EQ(d.begin, d.end); // past the chunk: empty
    const size_t sliced = (a.end - a.begin) + (b.end - b.begin) +
                          (d.end - d.begin);
    EXPECT_EQ(sliced, global.end - global.begin);

    // An open-ended chunk covers every later window fully.
    const auto tail = open.slice(10, 4);
    EXPECT_EQ(tail.begin, 0u);
    EXPECT_EQ(tail.end, 4u);
}

TEST(Engine, ChunkedRunsPartitionTheGrid)
{
    const auto grid = smallGrid();
    const auto full = engine::Engine({1}).run(grid);
    ASSERT_EQ(full.size(), 8u);

    // Deliberately uneven chunks (the orchestrator hands out
    // whatever tiles the ordering) stitch back into the full run.
    std::vector<engine::RunRecord> stitched;
    for (const auto& c : {engine::ChunkSpec{0, 3},
                          engine::ChunkSpec{3, 4},
                          engine::ChunkSpec{4, 8}}) {
        const auto part = engine::Engine({2}).run(
            grid, {}, engine::PointFilter{}, c);
        stitched.insert(stitched.end(), part.begin(), part.end());
    }
    ASSERT_EQ(stitched.size(), full.size());
    for (size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(stitched[i].key(), full[i].key());
        EXPECT_EQ(stitched[i].uxCost, full[i].uxCost) << i;
        EXPECT_EQ(stitched[i].index, full[i].index) << i;
    }

    // Ranges beyond the grid clamp to empty; invalid specs throw.
    EXPECT_TRUE(engine::Engine({1})
                    .run(grid, {}, engine::PointFilter{},
                         engine::ChunkSpec{20, 30})
                    .empty());
    EXPECT_THROW(engine::Engine({1}).run(grid, {},
                                         engine::PointFilter{},
                                         engine::ChunkSpec{5, 2}),
                 std::invalid_argument);
}

TEST(Engine, ChunkComposesWithPointFilter)
{
    const auto grid = smallGrid();
    const auto filter = [](const engine::SweepGrid::Point& p) {
        return p.key().find("seed=1") != std::string::npos;
    };
    const auto filtered = engine::Engine({1}).run(grid, {}, filter);
    ASSERT_EQ(filtered.size(), 4u);

    // Chunks address positions of the FILTERED sequence.
    const auto head = engine::Engine({1}).run(
        grid, {}, filter, engine::ChunkSpec{0, 3});
    const auto tail = engine::Engine({1}).run(
        grid, {}, filter, engine::ChunkSpec{3, 4});
    ASSERT_EQ(head.size() + tail.size(), filtered.size());
    for (size_t i = 0; i < head.size(); ++i)
        EXPECT_EQ(head[i].key(), filtered[i].key());
    for (size_t i = 0; i < tail.size(); ++i)
        EXPECT_EQ(tail[i].key(), filtered[3 + i].key());

    // An all-rejecting filter leaves every chunk empty.
    const auto none = engine::Engine({1}).run(
        grid, {}, [](const engine::SweepGrid::Point&) {
            return false;
        },
        engine::ChunkSpec{0, 4});
    EXPECT_TRUE(none.empty());
}

TEST(ReindexSink, ShiftsIndicesAndToleratesNullInner)
{
    std::ostringstream out;
    engine::CsvSink csv(out);
    engine::ReindexSink shifted(&csv, 100);
    engine::RunRecord r = syntheticRecord("A", 11, 1.5);
    r.index = 4;
    shifted.write(r);
    csv.close();
    EXPECT_NE(out.str().find("\n104,sc,sys,A,"), std::string::npos);

    engine::ReindexSink null_sink(nullptr, 5);
    null_sink.write(r); // must not crash
}

TEST(Engine, SupernetRunsCarryVariantShareBreakdown)
{
    // VR_Gaming carries the OFA Supernet; DREAM-Full may switch
    // variants, and even without switches the share columns exist.
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addScheduler(runner::SchedKind::DreamFull)
        .seeds({11})
        .window(1e5);
    const auto records = engine::Engine({1}).run(grid);
    ASSERT_EQ(records.size(), 1u);
    const auto& r = records[0];
    ASSERT_FALSE(r.breakdown.empty());
    double share_sum = 0.0;
    for (const auto& kv : r.breakdown) {
        EXPECT_NE(kv.first.find("_share"), std::string::npos);
        EXPECT_GE(kv.second, 0.0);
        EXPECT_LE(kv.second, 1.0);
        share_sum += kv.second;
    }
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
    EXPECT_TRUE(std::isnan(r.breakdownValue("no_such_column")));
}

TEST(CsvSink, BreakdownColumnsAreTheUnionOverAllRecords)
{
    engine::RunRecord with = syntheticRecord("A", 1, 1.0);
    with.breakdown = {{"net_v0_share", 0.75}, {"net_v1_share", 0.25}};
    engine::RunRecord without = syntheticRecord("B", 2, 2.0);

    std::ostringstream out;
    {
        engine::CsvSink sink(out);
        // The record lacking breakdown columns comes FIRST: the
        // header must still carry the union (a grid whose first
        // point has no Supernet must not drop later points' shares).
        sink.write(without);
        sink.write(with);
    }
    const std::string s = out.str();
    EXPECT_NE(s.find(",net_v0_share,net_v1_share\n"),
              std::string::npos);
    EXPECT_NE(s.find(",0.75,0.25\n"), std::string::npos);
    EXPECT_NE(s.find(",,\n"), std::string::npos);
    // Every row has the same column count.
    size_t header_commas = 0, row_commas = std::string::npos;
    std::istringstream lines(s);
    std::string line;
    std::getline(lines, line);
    header_commas = size_t(std::count(line.begin(), line.end(), ','));
    while (std::getline(lines, line)) {
        row_commas = size_t(std::count(line.begin(), line.end(), ','));
        EXPECT_EQ(row_commas, header_commas) << line;
    }
}

TEST(AggregateSink, SummarisesBreakdownColumnsPerCell)
{
    engine::AggregateSink agg;
    engine::RunRecord a = syntheticRecord("A", 1, 1.0);
    a.breakdown = {{"net_v0_share", 0.8}};
    engine::RunRecord b = syntheticRecord("A", 2, 2.0);
    b.breakdown = {{"net_v0_share", 0.4}};
    agg.write(a);
    agg.write(b);
    const auto cells = agg.cells();
    ASSERT_EQ(cells.size(), 1u);
    const auto* summary = cells[0].breakdownSummary("net_v0_share");
    ASSERT_NE(summary, nullptr);
    EXPECT_DOUBLE_EQ(summary->mean, 0.6);
    EXPECT_DOUBLE_EQ(summary->min, 0.4);
    EXPECT_DOUBLE_EQ(summary->max, 0.8);
    EXPECT_EQ(cells[0].breakdownSummary("nope"), nullptr);
}

TEST(ReportHelpers, GroupFindAndRatioCells)
{
    engine::AggregateSink agg;
    const auto rec = [](const char* sys, const char* sched,
                        double ux, double viol) {
        engine::RunRecord r;
        r.scenario = "sc";
        r.system = sys;
        r.scheduler = sched;
        r.seed = 11;
        r.uxCost = ux;
        r.violationFraction = viol;
        return r;
    };
    agg.write(rec("S1", "Base", 2.0, 0.5));
    agg.write(rec("S1", "New", 1.0, 0.2));
    agg.write(rec("S2", "Base", 4.0, 0.8));
    agg.write(rec("S2", "New", 3.0, 0.4));
    const auto cells = agg.cells();

    const auto groups = engine::groupCells(
        cells, [](const engine::AggregateSink::Cell& c) {
            return c.system;
        });
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].key, "S1");
    EXPECT_EQ(groups[0].cells.size(), 2u);
    EXPECT_EQ(groups[1].key, "S2");

    const auto* found = engine::findCell(cells, "sc", "S2", "New");
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(found->uxCost.mean, 3.0);
    EXPECT_EQ(engine::findCell(cells, "sc", "S3", "New"), nullptr);

    const auto ratios = engine::schedulerRatios(cells, "New", "Base");
    ASSERT_EQ(ratios.size(), 2u);
    EXPECT_EQ(ratios[0].system, "S1");
    EXPECT_DOUBLE_EQ(ratios[0].ratio, 0.5);
    EXPECT_DOUBLE_EQ(ratios[0].reduction(), 0.5);
    EXPECT_DOUBLE_EQ(ratios[1].ratio, 0.75);

    const auto viol_ratios = engine::schedulerRatios(
        cells, "New", "Base",
        [](const engine::AggregateSink::Cell& c) {
            return c.violationFraction.mean;
        });
    ASSERT_EQ(viol_ratios.size(), 2u);
    EXPECT_DOUBLE_EQ(viol_ratios[0].ratio, 0.4);
}

TEST(SweepGrid, GeneratedScenarioAxisIsDeterministic)
{
    workload::ScenarioGenSpec spec;
    spec.minTasks = 2;
    spec.maxTasks = 3;

    const auto build = [&spec]() {
        engine::SweepGrid grid;
        grid.addGeneratedScenarios(spec, 3, 7)
            .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
            .addScheduler(runner::SchedKind::Fcfs)
            .seeds({11})
            .window(5e4);
        return grid;
    };

    const auto grid = build();
    ASSERT_EQ(grid.size(), 3u);
    EXPECT_EQ(grid.point(0).scenario, "Gen7");
    EXPECT_EQ(grid.point(2).scenario, "Gen9");

    // Two independently built grids simulate identically.
    const auto r1 = engine::Engine({1}).run(build());
    const auto r2 = engine::Engine({4}).run(build());
    ASSERT_EQ(r1.size(), r2.size());
    for (size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].key(), r2[i].key());
        EXPECT_EQ(r1[i].uxCost, r2[i].uxCost) << i;
        EXPECT_EQ(r1[i].totalFrames, r2[i].totalFrames) << i;
    }
}

TEST(OnlineTuner, BatchEvaluatorCompletesRoundsSynchronously)
{
    // AR_Call: the lightest preset — each candidate evaluation forks
    // a full search-window simulation, so keep the workload small.
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArCall);

    const auto run = [&](int jobs) {
        engine::WorkerPool pool(jobs);
        core::DreamScheduler sched(core::DreamConfig::full());
        engine::attachBatchTuner(sched, system, scenario, pool);
        const auto r =
            runner::runOnce(system, scenario, sched, 1e5, 11);
        // All rounds completed inside the first update: the radius
        // shrank below the threshold without live trial windows.
        EXPECT_GT(sched.tuner().completedSteps(), 0);
        EXPECT_FALSE(sched.tuner().tuning());
        return r.uxCost;
    };

    // Concurrent candidate evaluation is bit-identical to serial.
    EXPECT_EQ(run(1), run(4));
}

TEST(Engine, TraceFileNameSanitizesTheKey)
{
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::ArCall);
    grid.addSystem(hw::SystemPreset::Sys4k1Ws2Os);
    grid.addScheduler(runner::SchedKind::Fcfs);
    grid.window(1e5);
    const auto point = grid.point(0);
    const std::string name = engine::traceFileName(point);
    EXPECT_EQ(name.find('/'), std::string::npos);
    EXPECT_NE(name.find("AR_Call"), std::string::npos);
    EXPECT_NE(name.find("seed=11"), std::string::npos);
    EXPECT_EQ(name.substr(name.size() - 10), ".trace.csv");
}

TEST(Engine, RecordReplayRoundTripThroughTheGrid)
{
    // Record: a 2-scheduler sweep writes one trace per grid point.
    const std::string dir = ::testing::TempDir() +
                            "dream_engine_trace_roundtrip";
    std::filesystem::remove_all(dir);

    engine::SweepGrid record;
    record.addScenario(workload::ScenarioPreset::ArCall);
    record.addSystem(hw::SystemPreset::Sys4k2Ws);
    record.addScheduler(runner::SchedKind::Fcfs);
    record.addScheduler(runner::SchedKind::StaticFcfs);
    record.seeds({11});
    record.window(2e5);

    engine::EngineOptions ropts;
    ropts.jobs = 2;
    ropts.traceDir = dir;
    const auto recorded = engine::Engine(ropts).run(record);
    ASSERT_EQ(recorded.size(), 2u);

    // Replay: every recorded point, rebuilt from its trace file via
    // the grid's trace axis, reproduces the recorded metrics exactly.
    for (const auto& r : recorded) {
        const auto point = record.point(r.index);
        const auto trace =
            std::make_shared<const workload::FrameTrace>(
                runner::readFrameTraceCsv(dir + '/' +
                                          engine::traceFileName(
                                              point)));
        EXPECT_EQ(trace->metaValue("scenario"), r.scenario);
        EXPECT_EQ(trace->metaValue("scheduler"), r.scheduler);
        EXPECT_EQ(trace->metaValue("seed"),
                  std::to_string(r.seed));

        engine::SweepGrid replay;
        replay.addTraceReplay(
            {r.scenario,
             []() {
                 return workload::makeScenario(
                     workload::ScenarioPreset::ArCall);
             },
             trace});
        replay.addSystem(hw::SystemPreset::Sys4k2Ws);
        replay.addScheduler(r.scheduler == "FCFS"
                                ? runner::SchedKind::Fcfs
                                : runner::SchedKind::StaticFcfs);
        replay.seeds({r.seed});
        replay.window(r.windowUs);

        const auto replayed = engine::Engine({1}).run(replay);
        ASSERT_EQ(replayed.size(), 1u);
        const auto& p = replayed[0];
        EXPECT_EQ(p.key(), r.key());
        EXPECT_EQ(p.uxCost, r.uxCost);
        EXPECT_EQ(p.dlvRate, r.dlvRate);
        EXPECT_EQ(p.normEnergy, r.normEnergy);
        EXPECT_EQ(p.energyMj, r.energyMj);
        EXPECT_EQ(p.violationFraction, r.violationFraction);
        EXPECT_EQ(p.dropRate, r.dropRate);
        EXPECT_EQ(p.totalFrames, r.totalFrames);
        EXPECT_EQ(p.violatedFrames, r.violatedFrames);
        EXPECT_EQ(p.droppedFrames, r.droppedFrames);
        EXPECT_EQ(p.schedulerInvocations, r.schedulerInvocations);
    }
    std::filesystem::remove_all(dir);
}

TEST(Engine, TraceAxisGivesEverySchedulerIdenticalLoad)
{
    // One recorded trace, swept across several schedulers: each grid
    // point must face the same total workload (frames and deadlines
    // are fixed by the trace, not re-derived per scheduler).
    const auto scenario_factory = []() {
        return workload::makeScenario(
            workload::ScenarioPreset::ArCall);
    };
    const auto point_grid = [&]() {
        engine::SweepGrid g;
        g.addScenario("AR_Call", scenario_factory);
        g.addSystem(hw::SystemPreset::Sys4k2Ws);
        g.addScheduler(runner::SchedKind::Fcfs);
        g.seeds({11});
        g.window(2e5);
        return g;
    }();
    const std::string dir =
        ::testing::TempDir() + "dream_engine_trace_axis";
    std::filesystem::remove_all(dir);
    engine::EngineOptions ropts;
    ropts.traceDir = dir;
    engine::Engine(ropts).run(point_grid);
    const auto trace = std::make_shared<const workload::FrameTrace>(
        runner::readFrameTraceCsv(
            dir + '/' +
            engine::traceFileName(point_grid.point(0))));

    engine::SweepGrid sweep;
    sweep.addTraceReplays(
        {{"AR_Call", scenario_factory, trace}});
    sweep.addSystem(hw::SystemPreset::Sys4k2Ws);
    sweep.addScheduler(runner::SchedKind::Fcfs);
    sweep.addScheduler(runner::SchedKind::DreamFull);
    sweep.addScheduler(runner::SchedKind::Planaria);
    sweep.seeds({11});
    sweep.window(2e5);

    uint64_t in_window = 0;
    for (const auto& fr : trace->frames)
        in_window += fr.inWindow ? 1 : 0;
    const auto records = engine::Engine({2}).run(sweep);
    ASSERT_EQ(records.size(), 3u);
    for (const auto& r : records)
        EXPECT_EQ(r.totalFrames, in_window) << r.key();
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace dream
