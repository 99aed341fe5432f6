#include "engine/engine.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "costmodel/cost_table_cache.h"
#include "engine/worker_pool.h"
#include "metrics/uxcost.h"
#include "obs/telemetry.h"
#include "runner/table.h"
#include "runner/trace.h"
#include "sim/simulator.h"

namespace dream {
namespace engine {

bool
ShardSpec::parse(const std::string& text, ShardSpec* out)
{
    const size_t slash = text.find('/');
    if (slash == 0 || slash == std::string::npos ||
        slash + 1 >= text.size())
        return false;
    char* end = nullptr;
    const long k = std::strtol(text.c_str(), &end, 10);
    if (end != text.c_str() + slash)
        return false;
    const char* n_begin = text.c_str() + slash + 1;
    const long n = std::strtol(n_begin, &end, 10);
    if (end != text.c_str() + text.size())
        return false;
    // Range-check before narrowing: huge K/N must be rejected, not
    // silently wrapped into a small (or whole-grid) shard.
    if (k < 1 || n < 1 || k > INT_MAX || n > INT_MAX)
        return false;
    const ShardSpec spec{int(k), int(n)};
    if (!spec.valid())
        return false;
    *out = spec;
    return true;
}

std::string
ShardSpec::toString() const
{
    return std::to_string(index) + '/' + std::to_string(count);
}

std::pair<size_t, size_t>
ShardSpec::range(size_t total) const
{
    assert(valid());
    const size_t k = size_t(index);
    const size_t n = size_t(count);
    return {total * (k - 1) / n, total * k / n};
}

bool
ShardSpec::contains(size_t pos, size_t total) const
{
    const auto r = range(total);
    return pos >= r.first && pos < r.second;
}

bool
ChunkSpec::parse(const std::string& text, ChunkSpec* out)
{
    const size_t colon = text.find(':');
    if (colon == std::string::npos)
        return false;
    // Digits only on both sides ("B:E", or "B:" for an open end):
    // strtoull would silently accept signs and whitespace. Overflow
    // is just as silent (saturates to ULLONG_MAX == npos), so it is
    // rejected too — a typo'd huge range must not quietly become an
    // empty or open-ended chunk.
    const auto digits = [](const char* s, size_t n) {
        if (n == 0)
            return false;
        for (size_t i = 0; i < n; ++i) {
            if (s[i] < '0' || s[i] > '9')
                return false;
        }
        return true;
    };
    const auto parse_pos = [](const char* s, size_t* value) {
        errno = 0;
        *value = std::strtoull(s, nullptr, 10);
        return errno != ERANGE;
    };
    if (!digits(text.c_str(), colon))
        return false;
    ChunkSpec spec;
    if (!parse_pos(text.c_str(), &spec.begin))
        return false;
    const size_t tail = text.size() - colon - 1;
    if (tail == 0) {
        spec.end = npos;
    } else {
        if (!digits(text.c_str() + colon + 1, tail))
            return false;
        if (!parse_pos(text.c_str() + colon + 1, &spec.end))
            return false;
    }
    if (!spec.valid())
        return false;
    *out = spec;
    return true;
}

std::string
ChunkSpec::toString() const
{
    return std::to_string(begin) + ':' +
           (end == npos ? std::string() : std::to_string(end));
}

std::pair<size_t, size_t>
ChunkSpec::range(size_t total) const
{
    assert(valid());
    const size_t lo = std::min(begin, total);
    return {lo, std::max(lo, std::min(end, total))};
}

bool
ChunkSpec::contains(size_t pos, size_t total) const
{
    const auto r = range(total);
    return pos >= r.first && pos < r.second;
}

ChunkSpec
ChunkSpec::slice(size_t base, size_t count) const
{
    assert(valid());
    const size_t lo =
        begin <= base ? 0 : std::min(begin - base, count);
    const size_t hi =
        end == npos ? count
                    : (end <= base ? 0 : std::min(end - base, count));
    return {lo, std::max(lo, hi)};
}

namespace {

/** Sanitized key + "-<hash>" stem shared by every per-point file. */
std::string
pointFileStem(const SweepGrid::Point& point)
{
    std::string name = point.key();
    // FNV-1a over the RAW key: two keys that sanitize identically
    // (e.g. "Mix A" vs "Mix@A") must not overwrite each other's
    // trace file — the hash suffix keeps the names distinct while
    // staying a pure function of the key, so a replay re-records to
    // the same file name.
    uint64_t hash = 1469598103934665603ull;
    for (const char c : name) {
        hash ^= uint64_t(uint8_t(c));
        hash *= 1099511628211ull;
    }
    for (char& c : name) {
        const bool keep =
            (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
            (c >= '0' && c <= '9') || c == '.' || c == '_' ||
            c == '=' || c == '+' || c == '-';
        if (!keep)
            c = '_';
    }
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "-%08x",
                  unsigned(hash & 0xffffffffu));
    return name + suffix;
}

} // anonymous namespace

std::string
traceFileName(const SweepGrid::Point& point)
{
    return pointFileStem(point) + ".trace.csv";
}

std::string
traceEventFileName(const SweepGrid::Point& point)
{
    return pointFileStem(point) + ".trace.json";
}

namespace {

/** Record one run's frame trace under @p trace_dir (see
 *  EngineOptions::traceDir). Throws on I/O failure — a sweep that
 *  silently recorded nothing must not look like a successful
 *  recording. */
void
recordTrace(const std::string& trace_dir, const SweepGrid::Point& point,
            size_t index_base, const workload::Scenario& scenario,
            const sim::RunStats& stats)
{
    std::filesystem::create_directories(trace_dir);
    const std::string path = trace_dir + '/' + traceFileName(point);
    std::ofstream out(path);
    if (!out.is_open())
        throw std::runtime_error("cannot open trace file for "
                                 "writing: " + path);
    runner::TraceMeta meta;
    meta.push_back({"scenario", point.scenario});
    meta.push_back({"system", point.system});
    meta.push_back({"scheduler", point.scheduler});
    std::string params;
    for (const auto& kv : point.params) {
        if (!params.empty())
            params += ',';
        params += kv.first + '=' + formatValue(kv.second);
    }
    meta.push_back({"params", params});
    meta.push_back({"seed", std::to_string(point.seed)});
    meta.push_back({"window_us", runner::preciseDouble(point.windowUs)});
    meta.push_back({"index", std::to_string(index_base + point.index)});
    runner::writeFrameTraceCsv(out, stats, scenario, meta);
    if (!out)
        throw std::runtime_error("short write to trace file: " + path);
}

/** Write one run's telemetry event trace (Chrome trace-event JSON)
 *  under @p dir. Throws on I/O failure, like recordTrace. */
void
recordTraceEvents(const std::string& dir,
                  const SweepGrid::Point& point,
                  const obs::TraceEventSink& sink)
{
    std::filesystem::create_directories(dir);
    const std::string path = dir + '/' + traceEventFileName(point);
    std::ofstream out(path);
    if (!out.is_open())
        throw std::runtime_error("cannot open trace-event file for "
                                 "writing: " + path);
    sink.writeJson(out);
    if (!out)
        throw std::runtime_error("short write to trace-event file: " +
                                 path);
}

} // anonymous namespace

RunRecord
runGridPoint(const SweepGrid::Point& point, const std::string& trace_dir,
             size_t trace_index_base)
{
    EngineOptions opts;
    opts.traceDir = trace_dir;
    opts.traceIndexBase = trace_index_base;
    return runGridPoint(point, opts, nullptr);
}

RunRecord
runGridPoint(const SweepGrid::Point& point, const EngineOptions& opts,
             obs::MetricsRegistry* metrics_out)
{
    // Materialise everything locally: workers share nothing MUTABLE.
    // The cost table is the exception that proves the rule — an
    // immutable table shared through the process-wide cache, so a
    // sweep builds each distinct (system, model set) table once
    // instead of once per point (see cost_table_cache.h for the
    // determinism argument).
    const workload::Scenario scenario = (*point.makeScenario)();
    const hw::SystemConfig system = (*point.makeSystem)();
    const std::shared_ptr<const cost::CostTable> costs =
        cost::acquireCostTable(system, scenario, metrics_out);

    auto sched = (*point.makeScheduler)(point.params);
    assert(sched && "scheduler factory returned nullptr");

    sim::SimConfig cfg;
    cfg.windowUs = point.windowUs;
    cfg.seed = point.seed;
    std::unique_ptr<workload::ReplaySource> replay;
    if (point.trace) {
        // Trace-replay scenario: inject the recorded arrival/deadline
        // sequence; paths re-materialise from (scenario, seed).
        replay = std::make_unique<workload::ReplaySource>(
            scenario, cfg.seed, *point.trace);
        cfg.arrivals = replay.get();
    }

    // Telemetry: one sink/registry pair per point (share-nothing);
    // pid = the point's global row index, so traces from several
    // grids line up with the --out rows. Identity metadata goes in
    // up front — process_name names the track group in Perfetto,
    // dream_meta carries what dream_prof needs (the window for
    // utilization, the key for the report).
    const size_t global_index = opts.traceIndexBase + point.index;
    obs::TraceEventSink trace_sink{int64_t(global_index)};
    obs::SimTelemetry telemetry;
    if (!opts.traceEventDir.empty()) {
        trace_sink.processName(point.key());
        trace_sink.runMeta(
            obs::TraceArgs()
                .str("key", point.key())
                .num("window_us", point.windowUs)
                .integer("seed", (long long) point.seed)
                .integer("index", (long long) global_index));
        telemetry.trace = &trace_sink;
    }
    if (metrics_out)
        telemetry.metrics = metrics_out;
    if (telemetry.trace || telemetry.metrics)
        cfg.telemetry = &telemetry;

    sim::Simulator simulator(system, scenario, *costs, cfg);
    const sim::RunStats stats = simulator.run(*sched);
    if (!opts.traceDir.empty())
        recordTrace(opts.traceDir, point, opts.traceIndexBase,
                    scenario, stats);
    if (!opts.traceEventDir.empty())
        recordTraceEvents(opts.traceEventDir, point, trace_sink);

    RunRecord r;
    r.index = point.index;
    r.scenario = point.scenario;
    r.system = point.system;
    r.scheduler = point.scheduler;
    r.params = point.params;
    r.seed = point.seed;
    r.windowUs = point.windowUs;
    fillMetrics(r, stats);
    return r;
}

void
fillMetrics(RunRecord& r, const sim::RunStats& stats)
{
    r.uxCost = metrics::uxCost(stats);
    r.dlvRate = stats.overallDlvRate();
    r.normEnergy = stats.overallNormEnergy();
    r.energyMj = stats.totalEnergyMj();
    r.violationFraction = stats.violationFraction();
    r.totalFrames = stats.totalFrames();
    r.violatedFrames = stats.totalViolated();
    r.droppedFrames = 0;
    for (const auto& t : stats.tasks)
        r.droppedFrames += t.droppedFrames;
    r.dropRate = r.totalFrames == 0
                     ? 0.0
                     : double(r.droppedFrames) / double(r.totalFrames);
    r.schedulerInvocations = stats.schedulerInvocations;

    // Breakdown columns: Supernet variant shares of started frames
    // (Figure 14). Columns are named after the model so the same
    // network lines up across scenarios; tasks sharing one Supernet
    // model within a scenario pool their starts before the shares
    // are taken.
    r.breakdown.clear();
    std::vector<std::pair<std::string, std::vector<uint64_t>>> pooled;
    for (const auto& task : stats.tasks) {
        if (task.variantStarts.empty())
            continue;
        auto it = std::find_if(
            pooled.begin(), pooled.end(),
            [&](const auto& p) { return p.first == task.model; });
        if (it == pooled.end()) {
            pooled.push_back({task.model, task.variantStarts});
            continue;
        }
        it->second.resize(
            std::max(it->second.size(), task.variantStarts.size()));
        for (size_t i = 0; i < task.variantStarts.size(); ++i)
            it->second[i] += task.variantStarts[i];
    }
    for (const auto& p : pooled) {
        uint64_t total = 0;
        for (const uint64_t v : p.second)
            total += v;
        for (size_t i = 0; i < p.second.size(); ++i) {
            r.breakdown.push_back(
                {p.first + "_v" + std::to_string(i) + "_share",
                 total == 0 ? 0.0
                            : double(p.second[i]) / double(total)});
        }
    }
}

std::vector<RunRecord>
Engine::run(const SweepGrid& grid,
            const std::vector<ResultSink*>& sinks) const
{
    return run(grid, sinks, PointFilter{});
}

std::vector<RunRecord>
Engine::run(const SweepGrid& grid, const std::vector<ResultSink*>& sinks,
            const PointFilter& select) const
{
    return run(grid, sinks, select, ShardSpec{});
}

namespace {

/** Indices of the points @p select accepts, in ascending order. */
std::vector<size_t>
selectedIndices(const SweepGrid& grid, const PointFilter& select)
{
    const size_t n = grid.size();
    std::vector<size_t> indices;
    indices.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        if (!select || select(grid.point(i)))
            indices.push_back(i);
    }
    return indices;
}

/** Run @p indices on a pool and deliver records in index order. */
std::vector<RunRecord>
runIndices(const SweepGrid& grid, const std::vector<size_t>& indices,
           const std::vector<ResultSink*>& sinks, const EngineOptions& opts)
{
    std::vector<RunRecord> records(indices.size());
    // One registry per point, merged in flat-index order AFTER the
    // pool joins: workers never touch shared telemetry state, so the
    // merged registry — like the record vector — is byte-identical
    // for any worker count.
    std::vector<obs::MetricsRegistry> point_metrics(
        opts.metrics ? indices.size() : 0);
    WorkerPool pool(opts.jobs);
    pool.parallelFor(indices.size(), [&](size_t k) {
        records[k] = runGridPoint(
            grid.point(indices[k]), opts,
            opts.metrics ? &point_metrics[k] : nullptr);
    });
    if (opts.metrics) {
        for (const auto& m : point_metrics)
            opts.metrics->merge(m);
        // Pool-level occupancy (wall clock, hence volatile: kept for
        // profiling, excluded from the canonical dump).
        const auto& workers = pool.lastRunStats();
        for (size_t w = 0; w < workers.size(); ++w) {
            const std::string prefix =
                "engine/worker/" + std::to_string(w) + '/';
            for (const char* name :
                 {"items", "steals", "busy_s", "idle_s"})
                opts.metrics->markVolatile(prefix + name);
            opts.metrics->count(prefix + "items", workers[w].items);
            opts.metrics->count(prefix + "steals", workers[w].steals);
            opts.metrics->gaugeAdd(prefix + "busy_s",
                                   workers[w].busySeconds);
            opts.metrics->gaugeAdd(prefix + "idle_s",
                                   workers[w].idleSeconds);
        }
    }

    for (ResultSink* sink : sinks) {
        if (!sink)
            continue;
        for (const auto& r : records)
            sink->write(r);
    }
    return records;
}

} // anonymous namespace

std::vector<RunRecord>
Engine::run(const SweepGrid& grid, const std::vector<ResultSink*>& sinks,
            const PointFilter& select, const ShardSpec& shard) const
{
    if (!shard.valid())
        throw std::invalid_argument("invalid shard spec " +
                                    std::to_string(shard.index) + '/' +
                                    std::to_string(shard.count));

    std::vector<size_t> indices = selectedIndices(grid, select);
    if (shard.active()) {
        // Key-range partition of the filtered, index-ordered run.
        const auto r = shard.range(indices.size());
        indices = std::vector<size_t>(indices.begin() + long(r.first),
                                      indices.begin() + long(r.second));
    }
    return runIndices(grid, indices, sinks, opts_);
}

std::vector<RunRecord>
Engine::run(const SweepGrid& grid, const std::vector<ResultSink*>& sinks,
            const PointFilter& select, const ChunkSpec& chunk) const
{
    if (!chunk.valid())
        throw std::invalid_argument("invalid chunk spec " +
                                    chunk.toString());

    std::vector<size_t> indices = selectedIndices(grid, select);
    if (chunk.active()) {
        // Explicit position range of the filtered ordering.
        const auto r = chunk.range(indices.size());
        indices = std::vector<size_t>(indices.begin() + long(r.first),
                                      indices.begin() + long(r.second));
    }
    return runIndices(grid, indices, sinks, opts_);
}

std::vector<RunRecord>
Engine::run(const SweepGrid& grid, const std::vector<ResultSink*>& sinks,
            const std::vector<size_t>& indices) const
{
    return runIndices(grid, indices, sinks, opts_);
}

} // namespace engine
} // namespace dream
