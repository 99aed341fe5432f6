/**
 * @file
 * Result-toolchain tests: the CSV reader/schema introspection, the
 * shard-merge round trip (merged shard CSVs byte-identical to the
 * unsharded run, including the empty-shard and --filter-composed
 * cases), the overlap validation, regression diffing (NaN cells,
 * within-tolerance drift, added/removed grid points), the shard
 * orchestrator's scheduling logic (chunk partition, retry queue,
 * out-of-order reassembly) and count arguments, and the JSON result
 * reader/merger.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/param_eval.h"
#include "engine/result_sink.h"
#include "tools/csv_diff.h"
#include "tools/csv_merge.h"
#include "tools/json_result.h"
#include "tools/shard_sched.h"

namespace dream {
namespace {

engine::RunRecord
record(size_t index, const std::string& scenario,
       const std::string& sched, uint64_t seed, double ux)
{
    engine::RunRecord r;
    r.index = index;
    r.scenario = scenario;
    r.system = "sys";
    r.scheduler = sched;
    r.seed = seed;
    r.windowUs = 1e6;
    r.uxCost = ux;
    r.totalFrames = 100;
    return r;
}

std::string
toCsv(const std::vector<engine::RunRecord>& records)
{
    std::ostringstream out;
    engine::CsvSink sink(out);
    for (const auto& r : records)
        sink.write(r);
    sink.close();
    return out.str();
}

engine::CsvTable
parse(const std::string& text)
{
    std::istringstream in(text);
    return engine::readResultCsv(in);
}

std::string
merged(const std::vector<std::string>& inputs)
{
    std::vector<engine::CsvTable> tables;
    for (const auto& text : inputs)
        tables.push_back(parse(text));
    std::ostringstream out;
    tools::mergeResultCsvs(tables, out);
    return out.str();
}

TEST(CsvReader, RoundTripsSchemaAndCells)
{
    engine::RunRecord r = record(3, "sc", "A", 11, 1.5);
    r.params = {{"alpha", 0.25}, {"beta", 1.5}};
    r.breakdown = {{"net_v0_share", 0.75}, {"net_v1_share", 0.25}};
    const auto table = parse(toCsv({r}));

    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(table.schema.paramColumns,
              (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_EQ(table.schema.breakdownColumns,
              (std::vector<std::string>{"net_v0_share",
                                        "net_v1_share"}));
    EXPECT_EQ(table.schema.columns.size(),
              4u + 2u + engine::csvMetricColumns().size() + 2u);
    EXPECT_EQ(table.rowIndex(0), 3u);
    EXPECT_EQ(table.rowKey(0),
              "sc/sys/A/alpha=0.25,beta=1.5/seed=11");
    EXPECT_EQ(table.rows[0][table.schema.columnIndex("ux_cost")],
              "1.5");
    EXPECT_EQ(table.schema.columnIndex("no_such_column"),
              std::string::npos);
}

TEST(CsvReader, HandlesQuotedCellsAndEmptyInput)
{
    engine::RunRecord r = record(0, "A,B \"quoted\"", "S", 1, 2.0);
    const std::string csv = toCsv({r});
    EXPECT_NE(csv.find("\"A,B \"\"quoted\"\"\""), std::string::npos);
    const auto table = parse(csv);
    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(table.rows[0][1], "A,B \"quoted\"");
    EXPECT_EQ(table.rowKey(0), "A,B \"quoted\"/sys/S/seed=1");

    const auto empty = parse("");
    EXPECT_TRUE(empty.empty());
    EXPECT_TRUE(empty.schema.columns.empty());
}

TEST(CsvReader, RejectsMalformedInput)
{
    EXPECT_THROW(parse("not,a,result,csv\n1,2,3,4\n"),
                 std::runtime_error);
    const std::string good = toCsv({record(0, "sc", "A", 1, 1.0)});
    EXPECT_THROW(parse(good + "1,short,row\n"), std::runtime_error);
    EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
}

TEST(CsvMerge, ShardedBenchRunMergesByteIdentically)
{
    // A real grid, including breakdown columns (VR_Gaming carries
    // the OFA Supernet): 2 schedulers x 2 seeds = 4 points.
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addScheduler(runner::SchedKind::Fcfs)
        .addScheduler(runner::SchedKind::DreamFull)
        .seeds({1, 2})
        .window(5e4);

    std::ostringstream full;
    engine::CsvSink full_sink(full);
    engine::Engine({2}).run(grid, {&full_sink});
    full_sink.close();

    std::vector<std::string> shards;
    for (int k = 1; k <= 3; ++k) {
        std::ostringstream out;
        engine::CsvSink sink(out);
        engine::Engine({2}).run(grid, {&sink}, engine::PointFilter{},
                                engine::ShardSpec{k, 3});
        sink.close();
        shards.push_back(out.str());
    }

    EXPECT_EQ(merged(shards), full.str());
    // Input order must not matter.
    EXPECT_EQ(merged({shards[2], shards[0], shards[1]}), full.str());
}

TEST(CsvMerge, EmptyShardsAreSkipped)
{
    const std::string only =
        toCsv({record(0, "sc", "A", 1, 1.0),
               record(1, "sc", "A", 2, 2.0)});
    EXPECT_EQ(merged({"", only, ""}), only);
    EXPECT_EQ(merged({"", "", ""}), "");
}

TEST(CsvMerge, BreakdownHeaderIsFirstSeenUnionAcrossShards)
{
    // Shard 1 has no breakdown columns; shard 2 introduces them.
    // The merged header must match what one CsvSink seeing both
    // records would emit.
    engine::RunRecord plain = record(0, "sc", "A", 1, 1.0);
    engine::RunRecord with = record(1, "sc", "A", 2, 2.0);
    with.breakdown = {{"net_v0_share", 0.6}, {"net_v1_share", 0.4}};

    const std::string expect = toCsv({plain, with});
    EXPECT_EQ(merged({toCsv({plain}), toCsv({with})}), expect);
    EXPECT_EQ(merged({toCsv({with}), toCsv({plain})}), expect);
}

TEST(CsvMerge, OverlappingShardsAreRejected)
{
    const std::string a = toCsv({record(0, "sc", "A", 1, 1.0)});
    // Same grid point again: key collision.
    EXPECT_THROW(merged({a, a}), std::runtime_error);
    // Same row index, different grid point: index collision.
    const std::string b = toCsv({record(0, "sc", "B", 1, 1.0)});
    EXPECT_THROW(merged({a, b}), std::runtime_error);
    // Disjoint rows merge fine.
    const std::string c = toCsv({record(1, "sc", "B", 1, 1.0)});
    EXPECT_NO_THROW(merged({a, c}));
}

TEST(CsvMerge, MixedGridsAreRejected)
{
    engine::RunRecord with_param = record(0, "sc", "A", 1, 1.0);
    with_param.params = {{"alpha", 0.5}};
    const std::string a = toCsv({with_param});
    const std::string b = toCsv({record(1, "sc", "B", 1, 1.0)});
    EXPECT_THROW(merged({a, b}), std::runtime_error);
}

TEST(CsvDiff, IdenticalFilesHaveNoDifferences)
{
    const std::string csv =
        toCsv({record(0, "sc", "A", 1, 1.0),
               record(1, "sc", "A", 2, 2.0)});
    const auto result =
        tools::diffResultCsvs(parse(csv), parse(csv));
    EXPECT_TRUE(result.identical());
    EXPECT_EQ(result.compared, 2u);
    EXPECT_EQ(result.changedRows(), 0u);
}

TEST(CsvDiff, DetectsChangedAddedAndRemovedGridPoints)
{
    const auto r0 = record(0, "sc", "A", 1, 1.0);
    const auto r1 = record(1, "sc", "A", 2, 2.0);
    const auto r2 = record(2, "sc", "B", 1, 3.0);
    auto r1_changed = r1;
    r1_changed.uxCost = 2.5;
    r1_changed.totalFrames = 99;

    const auto result = tools::diffResultCsvs(
        parse(toCsv({r0, r1})), parse(toCsv({r1_changed, r2})));
    EXPECT_FALSE(result.identical());
    ASSERT_EQ(result.removed.size(), 1u);
    EXPECT_EQ(result.removed[0], "sc/sys/A/seed=1");
    ASSERT_EQ(result.added.size(), 1u);
    EXPECT_EQ(result.added[0], "sc/sys/B/seed=1");
    ASSERT_EQ(result.changed.size(), 2u);
    EXPECT_EQ(result.changed[0].column, "ux_cost");
    EXPECT_EQ(result.changed[0].before, "2");
    EXPECT_EQ(result.changed[0].after, "2.5");
    EXPECT_EQ(result.changed[1].column, "total_frames");
    EXPECT_EQ(result.changedRows(), 1u);

    // The row index is positional, not compared: the same grid
    // point at a different index is not a change.
    auto r0_shifted = r0;
    r0_shifted.index = 42;
    EXPECT_TRUE(tools::diffResultCsvs(parse(toCsv({r0})),
                                      parse(toCsv({r0_shifted})))
                    .identical());
}

TEST(CsvDiff, ToleranceAllowsBoundedDrift)
{
    const auto base = record(0, "sc", "A", 1, 100.0);
    auto drift = base;
    drift.uxCost = 100.5;

    tools::DiffOptions exact;
    EXPECT_FALSE(tools::diffResultCsvs(parse(toCsv({base})),
                                       parse(toCsv({drift})), exact)
                     .identical());

    tools::DiffOptions abs_tol;
    abs_tol.tolerance.abs = 1.0;
    EXPECT_TRUE(tools::diffResultCsvs(parse(toCsv({base})),
                                      parse(toCsv({drift})), abs_tol)
                    .identical());

    tools::DiffOptions rel_tol;
    rel_tol.tolerance.rel = 0.01;
    EXPECT_TRUE(tools::diffResultCsvs(parse(toCsv({base})),
                                      parse(toCsv({drift})), rel_tol)
                    .identical());

    // A per-column override beats the (exact) global default and
    // only applies to its column.
    tools::DiffOptions column;
    column.columnTolerances = {{"ux_cost", {1.0, 0.0}}};
    EXPECT_TRUE(tools::diffResultCsvs(parse(toCsv({base})),
                                      parse(toCsv({drift})), column)
                    .identical());
    auto frames = base;
    frames.totalFrames = 101;
    EXPECT_FALSE(tools::diffResultCsvs(parse(toCsv({base})),
                                       parse(toCsv({frames})),
                                       column)
                     .identical());
}

TEST(CsvDiff, NanCellsCompareEqualToNan)
{
    auto a = record(0, "sc", "A", 1, 1.0);
    a.dlvRate = std::numeric_limits<double>::quiet_NaN();
    auto b = a;
    const auto same =
        tools::diffResultCsvs(parse(toCsv({a})), parse(toCsv({b})));
    EXPECT_TRUE(same.identical());

    b.dlvRate = 0.5;
    const auto result =
        tools::diffResultCsvs(parse(toCsv({a})), parse(toCsv({b})));
    ASSERT_EQ(result.changed.size(), 1u);
    EXPECT_EQ(result.changed[0].column, "dlv_rate");
    EXPECT_EQ(result.changed[0].before, "nan");
}

TEST(CsvDiff, BreakdownColumnsCompareAcrossTheUnion)
{
    auto a = record(0, "sc", "A", 1, 1.0);
    a.breakdown = {{"net_v0_share", 0.5}};
    auto b = record(0, "sc", "A", 1, 1.0);
    b.breakdown = {{"net_v0_share", 0.5}, {"net_v1_share", 0.5}};

    const auto result =
        tools::diffResultCsvs(parse(toCsv({a})), parse(toCsv({b})));
    ASSERT_EQ(result.changed.size(), 1u);
    EXPECT_EQ(result.changed[0].column, "net_v1_share");
    EXPECT_EQ(result.changed[0].before, "");
    EXPECT_EQ(result.changed[0].after, "0.5");
}

TEST(CsvDiff, RejectsDuplicateKeysAndMixedGrids)
{
    const auto r = record(0, "sc", "A", 1, 1.0);
    auto dup = r;
    dup.index = 1; // distinct row, same grid point
    EXPECT_THROW(tools::diffResultCsvs(parse(toCsv({r, dup})),
                                       parse(toCsv({r}))),
                 std::runtime_error);

    auto with_param = r;
    with_param.params = {{"alpha", 0.5}};
    EXPECT_THROW(tools::diffResultCsvs(parse(toCsv({r})),
                                       parse(toCsv({with_param}))),
                 std::runtime_error);
}

TEST(CsvDiff, SummariesRenderBothFormats)
{
    const auto a = record(0, "sc", "A", 1, 1.0);
    auto b = a;
    b.uxCost = 2.0;
    const auto result =
        tools::diffResultCsvs(parse(toCsv({a})), parse(toCsv({b})));

    std::ostringstream human;
    tools::printDiffSummary(result, human);
    EXPECT_NE(human.str().find("changed cells: 1"),
              std::string::npos);
    EXPECT_NE(human.str().find("ux_cost 1 -> 2"), std::string::npos);
    EXPECT_NE(human.str().find("result CSVs differ"),
              std::string::npos);

    std::ostringstream json;
    tools::printDiffJson(result, json);
    EXPECT_NE(json.str().find("\"identical\": false"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"column\": \"ux_cost\""),
              std::string::npos);
}

// --------------------------------------- shard orchestrator logic

TEST(ShardArgs, CountsAcceptTheIntRange)
{
    int v = -1;
    EXPECT_TRUE(tools::parseCount("0", &v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(tools::parseCount("4", &v));
    EXPECT_EQ(v, 4);
    EXPECT_TRUE(tools::parseCount("2147483647", &v));
    EXPECT_EQ(v, std::numeric_limits<int>::max());
}

TEST(ShardArgs, CountsRejectNegativeMalformedAndOutOfIntValues)
{
    // 2^32 + 1 used to wrap to 1 and 2^31 to INT_MIN.
    for (const char* text : {"4294967297", "2147483648", "-1", "",
                             "4x", "99999999999999999999"}) {
        int v = 7;
        EXPECT_FALSE(tools::parseCount(text, &v)) << text;
        EXPECT_EQ(v, 7) << text;
    }
}

TEST(ShardArgs, BinaryExitsTwoNamingTheRejectedCount)
{
    // Rejected before any worker starts; even a regression that
    // accepted these would run at most all-cores `true` workers.
    for (const std::string flag : {"-j", "--retries", "--worker-jobs"}) {
        for (const std::string value :
             {"4294967297", "2147483648", "-1"}) {
            const std::string cmd = std::string(DREAM_SHARD_BIN) + " " +
                                    flag + " " + value +
                                    " --quiet -- true 2>&1";
            FILE* pipe = popen(cmd.c_str(), "r");
            ASSERT_NE(pipe, nullptr) << cmd;
            std::string output;
            char buf[256];
            while (std::fgets(buf, sizeof buf, pipe))
                output += buf;
            const int status = pclose(pipe);
            ASSERT_TRUE(WIFEXITED(status)) << cmd;
            EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
            EXPECT_NE(output.find("invalid"), std::string::npos) << cmd;
            EXPECT_NE(output.find(value), std::string::npos) << cmd;
        }
    }
}

TEST(ShardSched, ChunkRangesTileTheSequenceExactly)
{
    for (const size_t total : {0u, 1u, 2u, 7u, 16u, 100u}) {
        for (const size_t chunks : {1u, 2u, 3u, 5u, 16u, 200u}) {
            const auto ranges = tools::chunkRanges(total, chunks);
            EXPECT_LE(ranges.size(), chunks);
            EXPECT_EQ(ranges.size(), std::min(total, chunks));
            size_t prev_end = 0;
            size_t lo = total, hi = 0;
            for (const auto& c : ranges) {
                EXPECT_EQ(c.begin, prev_end); // contiguous, in order
                EXPECT_GT(c.end, c.begin);    // never empty
                prev_end = c.end;
                lo = std::min(lo, c.end - c.begin);
                hi = std::max(hi, c.end - c.begin);
            }
            EXPECT_EQ(prev_end, total); // covering, exactly once
            if (!ranges.empty()) {
                EXPECT_LE(hi - lo, 1u); // balanced to within one
            }
        }
    }
    EXPECT_TRUE(tools::chunkRanges(5, 0).empty());
    EXPECT_TRUE(tools::chunkRanges(0, 4).empty());
}

TEST(ShardSched, QueueHandsOutEveryChunkOnce)
{
    tools::ChunkQueue queue(tools::chunkRanges(10, 4), 3);
    ASSERT_EQ(queue.size(), 4u);

    std::vector<size_t> popped;
    size_t id = 0;
    while (queue.next(&id))
        popped.push_back(id);
    EXPECT_EQ(popped, (std::vector<size_t>{0, 1, 2, 3}));
    EXPECT_FALSE(queue.allDone()); // in flight, not completed
    for (const size_t p : popped)
        queue.complete(p);
    EXPECT_TRUE(queue.allDone());
    EXPECT_EQ(queue.requeues(), 0u);
    EXPECT_EQ(queue.failed(), 0u);
}

TEST(ShardSched, QueueRequeuesFailedChunksUntilTheBudget)
{
    // Budget of 2 attempts: one retry after the first failure.
    tools::ChunkQueue queue(tools::chunkRanges(6, 3), 2);
    size_t id = 0;
    ASSERT_TRUE(queue.next(&id));
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(queue.attempts(0), 1);

    // Failure requeues at the BACK: fresh chunks run first.
    EXPECT_TRUE(queue.fail(0));
    EXPECT_EQ(queue.requeues(), 1u);
    std::vector<size_t> order;
    while (queue.next(&id))
        order.push_back(id);
    EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0}));
    EXPECT_EQ(queue.attempts(0), 2);

    // Second failure exhausts the budget: permanent.
    EXPECT_FALSE(queue.fail(0));
    EXPECT_EQ(queue.failed(), 1u);
    queue.complete(1);
    queue.complete(2);
    EXPECT_FALSE(queue.allDone()); // chunk 0 never completed
    EXPECT_FALSE(queue.next(&id)); // and nothing is pending
}

TEST(ShardSched, OutOfOrderChunkCompletionMergesByteIdentically)
{
    // The orchestrator's reassembly invariant: whichever worker
    // finishes whichever chunk in whatever order, the merged file
    // equals the unsharded run byte for byte.
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addScheduler(runner::SchedKind::Fcfs)
        .addScheduler(runner::SchedKind::DreamFull)
        .seeds({1, 2})
        .window(5e4);

    std::ostringstream full;
    engine::CsvSink full_sink(full);
    engine::Engine({2}).run(grid, {&full_sink});
    full_sink.close();

    std::vector<std::string> chunk_csvs;
    for (const auto& c : tools::chunkRanges(grid.size(), 3)) {
        std::ostringstream out;
        engine::CsvSink sink(out);
        engine::Engine({2}).run(grid, {&sink}, engine::PointFilter{},
                                c);
        sink.close();
        chunk_csvs.push_back(out.str());
    }
    ASSERT_EQ(chunk_csvs.size(), 3u);
    // Every completion order reassembles the same bytes.
    EXPECT_EQ(merged({chunk_csvs[0], chunk_csvs[1], chunk_csvs[2]}),
              full.str());
    EXPECT_EQ(merged({chunk_csvs[2], chunk_csvs[0], chunk_csvs[1]}),
              full.str());
    EXPECT_EQ(merged({chunk_csvs[1], chunk_csvs[2], chunk_csvs[0]}),
              full.str());
}

// --------------------------------------------- JSON result files

std::string
toJson(const std::vector<engine::RunRecord>& records)
{
    std::ostringstream out;
    engine::JsonSink sink(out);
    for (const auto& r : records)
        sink.write(r);
    sink.close();
    return out.str();
}

tools::JsonTable
parseJson(const std::string& text)
{
    std::istringstream in(text);
    return tools::readResultJson(in);
}

std::string
mergedJson(const std::vector<std::string>& inputs)
{
    std::vector<tools::JsonTable> tables;
    for (const auto& text : inputs)
        tables.push_back(parseJson(text));
    std::ostringstream out;
    tools::mergeResultJsons(tables, out);
    return out.str();
}

TEST(JsonResult, ReadsBackTheCsvTwinOfTheSameRun)
{
    engine::RunRecord r = record(3, "sc", "A", 11, 1.5);
    r.params = {{"alpha", 0.25}, {"beta", 1.5}};
    r.breakdown = {{"net_v0_share", 0.75}, {"net_v1_share", 0.25}};
    r.dlvRate = std::numeric_limits<double>::quiet_NaN();

    const auto json = parseJson(toJson({r}));
    const auto csv = parse(toCsv({r}));
    ASSERT_EQ(json.raw.size(), 1u);
    EXPECT_EQ(json.raw[0].front(), '{');
    EXPECT_EQ(json.raw[0].back(), '}');
    // Same schema, same cell text (formatValue renders both sides),
    // so the JSON view diffs exactly like the CSV view.
    EXPECT_EQ(json.table.schema.columns, csv.schema.columns);
    EXPECT_EQ(json.table.rows, csv.rows);
    EXPECT_EQ(json.table.rowKey(0), csv.rowKey(0));
    EXPECT_EQ(json.table.rowIndex(0), 3u);
    EXPECT_TRUE(
        tools::diffResultCsvs(csv, json.table).identical());

    // Quoting round-trips through both encoders.
    engine::RunRecord quoted =
        record(0, "A,B \"quoted\"", "S", 1, 2.0);
    EXPECT_EQ(parseJson(toJson({quoted})).table.rows[0][1],
              "A,B \"quoted\"");

    EXPECT_TRUE(parseJson("[]\n").empty());
    EXPECT_TRUE(parseJson("").empty());
}

TEST(JsonResult, RejectsMalformedAndMixedGridInput)
{
    EXPECT_THROW(parseJson("[{]"), std::runtime_error);
    EXPECT_THROW(parseJson("[{\"index\": 0}]"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"not\": \"an array\"}"),
                 std::runtime_error);
    const std::string good = toJson({record(0, "sc", "A", 1, 1.0)});
    EXPECT_THROW(parseJson(good + "trailing"), std::runtime_error);

    // Two records disagreeing on parameter keys = two grids.
    engine::RunRecord a = record(0, "sc", "A", 1, 1.0);
    a.params = {{"alpha", 0.5}};
    EXPECT_THROW(parseJson(toJson({a, record(1, "sc", "A", 2, 1.0)})),
                 std::runtime_error);
}

TEST(JsonMerge, ChunkedJsonRunsMergeByteIdentically)
{
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addScheduler(runner::SchedKind::Fcfs)
        .addScheduler(runner::SchedKind::DreamFull)
        .seeds({1, 2})
        .window(5e4);

    std::ostringstream full;
    engine::JsonSink full_sink(full);
    engine::Engine({2}).run(grid, {&full_sink});
    full_sink.close();

    std::vector<std::string> chunks;
    for (const auto& c : tools::chunkRanges(grid.size(), 3)) {
        std::ostringstream out;
        engine::JsonSink sink(out);
        engine::Engine({2}).run(grid, {&sink}, engine::PointFilter{},
                                c);
        sink.close();
        chunks.push_back(out.str());
    }
    // Out-of-order completion must not matter for JSON either.
    EXPECT_EQ(mergedJson({chunks[0], chunks[1], chunks[2]}),
              full.str());
    EXPECT_EQ(mergedJson({chunks[2], chunks[0], chunks[1]}),
              full.str());
}

TEST(JsonMerge, EmptyInputsAndOverlapsMatchCsvSemantics)
{
    const std::string only =
        toJson({record(0, "sc", "A", 1, 1.0),
                record(1, "sc", "A", 2, 2.0)});
    EXPECT_EQ(mergedJson({"[]\n", only}), only);
    // All-empty: the rowless run's "[]", exactly as JsonSink writes
    // it.
    EXPECT_EQ(mergedJson({"[]\n", "[]\n"}), "[]\n");

    const std::string a = toJson({record(0, "sc", "A", 1, 1.0)});
    EXPECT_THROW(mergedJson({a, a}), std::runtime_error);
    const std::string b = toJson({record(0, "sc", "B", 1, 1.0)});
    EXPECT_THROW(mergedJson({a, b}), std::runtime_error);
}

} // anonymous namespace
} // namespace dream
