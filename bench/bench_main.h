/**
 * @file
 * Shared command-line entry helpers for the bench suite: every bench
 * built on the sweep engine accepts
 *
 *   --jobs N      worker threads (0 = hardware concurrency; default 1)
 *   --out F       stream engine result rows to file F
 *   --json        write --out as a JSON array instead of CSV
 *   --list        print every grid point key and exit (no runs)
 *   --filter S    run only grid points whose key contains S; rows go
 *                 to stdout as CSV (and to --out), then exit
 *   --shard K/N   run only the K-th of N contiguous key ranges of
 *                 the (possibly filtered) grid ordering; rows go to
 *                 stdout as CSV (and to --out), then exit. The N
 *                 shard CSVs merge back into the unsharded --out
 *                 byte for byte with tools/dream_merge.
 *   --chunk B:E   run only positions [B, E) of the (possibly
 *                 filtered) grid ordering — the explicit-range
 *                 protocol tools/dream_shard hands out chunks with.
 *                 Positions are global across every grid the bench
 *                 scans. Mutually exclusive with --shard; chunk
 *                 files that tile the ordering merge back into the
 *                 unsharded --out byte for byte with dream_merge.
 *   --record-trace DIR
 *                 write every executed grid point's per-frame trace
 *                 to DIR/<point key>.trace.csv (self-describing:
 *                 the grid identity rides along as "# key=value"
 *                 metadata). Replay with bench/trace_replay and
 *                 gate with dream_diff — the record -> replay ->
 *                 diff regression loop.
 *   --trace-events DIR
 *                 write every executed grid point's telemetry event
 *                 trace (Chrome trace-event JSON — job spans,
 *                 scheduler invocations, frame lifecycle instants)
 *                 to DIR/<point key>.trace.json; open in Perfetto
 *                 or profile with tools/dream_prof.
 *   --metrics F   dump the run's merged obs::MetricsRegistry
 *                 (counters, gauges, exact-quantile latency
 *                 histograms) as JSON to F when the bench exits.
 *                 Deterministic: byte-identical for any --jobs
 *                 value.
 *   --metrics-full F
 *                 like --metrics, but include volatile metrics
 *                 (engine wall-times, worker counts, cost-cache
 *                 hit/miss/evict counters). NOT byte-stable across
 *                 runs — feed to tools/dream_prof for the
 *                 cache-efficiency table, never to dream_diff.
 *
 * Malformed values of any flag (e.g. a --chunk with B > E,
 * non-numeric or negative positions) are rejected with an error and
 * exit code 2 — never silently mapped to an empty selection.
 *
 * Parallel runs are bit-identical to --jobs 1: the engine orders
 * records by grid index before any sink sees them — with and without
 * --filter/--shard/--chunk.
 */

#ifndef DREAM_BENCH_BENCH_MAIN_H
#define DREAM_BENCH_BENCH_MAIN_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/result_sink.h"
#include "engine/worker_pool.h"
#include "obs/metrics.h"

namespace dream {
namespace bench {

/**
 * The --metrics output: a registry every engine run of the bench
 * accumulates into, written as JSON when the Options go out of scope
 * (same end-of-main flush discipline as the --out sinks), so
 * multi-grid benches dump ONE merged registry without per-bench
 * plumbing.
 */
struct MetricsFile {
    std::string path;     ///< --metrics: canonical, volatile excluded
    std::string fullPath; ///< --metrics-full: volatile included
    obs::MetricsRegistry registry;

    ~MetricsFile()
    {
        const auto write = [this](const std::string& p,
                                  bool include_volatile) {
            if (p.empty())
                return;
            std::ofstream out(p);
            if (!out.is_open()) {
                std::fprintf(stderr,
                             "cannot open metrics file for writing: "
                             "%s\n",
                             p.c_str());
                return;
            }
            registry.writeJson(out, include_volatile);
        };
        write(path, false);
        write(fullPath, true);
    }
};

/** Parsed common bench flags. */
struct Options {
    int jobs = 1;          ///< effective worker count (>= 1)
    std::string out;       ///< result file path; empty = none
    bool json = false;     ///< --out format: JSON instead of CSV
    std::string filter;    ///< grid-point key substring; empty = all
    bool list = false;     ///< print grid point keys and exit
    engine::ShardSpec shard; ///< --shard K/N; 1/1 without the flag
    bool sharded = false;  ///< --shard was given
    engine::ChunkSpec chunk; ///< --chunk B:E; 0:npos without the flag
    bool chunked = false;  ///< --chunk was given
    std::string traceDir;  ///< --record-trace dir; empty = none
    std::string traceEventDir; ///< --trace-events dir; empty = none
    std::string metricsPath;   ///< --metrics file; empty = none
    std::string metricsFullPath; ///< --metrics-full file; empty = none

    /**
     * Global positions consumed by previous runOrList calls.
     * --chunk positions are global across every grid a bench scans,
     * so multi-grid benches advance this cursor per grid (mutable:
     * benches hold a const Options).
     */
    mutable size_t chunkCursor = 0;

    /**
     * The stdout CSV sink shared by every runOrList call of a subset
     * run. Lazily created, closed (flushed) when the Options go out
     * of scope — so a bench that scans several grids emits ONE
     * header and one contiguous row stream, not a header per grid.
     */
    mutable std::shared_ptr<engine::CsvSink> stdoutSink;

    /**
     * The --metrics registry + file writer, shared by every engine
     * run of the bench (like stdoutSink: flushed by the destructor
     * when the Options leave scope). Null without --metrics.
     */
    mutable std::shared_ptr<MetricsFile> metricsFile;

    /** True when only a grid subset should run (then exit). */
    bool subsetRun() const
    {
        return !filter.empty() || sharded || chunked;
    }

    /**
     * True when row @p pos of a @p total-row sequence belongs to
     * this invocation's subset (--shard partitions the sequence,
     * --chunk names positions directly; all rows without either).
     * Grid-less benches (fig13) gate their manual row emission with
     * it.
     */
    bool selectsRow(size_t pos, size_t total) const
    {
        return chunked ? chunk.contains(pos, total)
                       : shard.contains(pos, total);
    }
};

/**
 * True when grid-point key @p key is selected by --filter (an empty
 * filter selects everything). THE definition of --filter semantics:
 * runOrList and benches that pre-compute selections (trace_replay's
 * --shard rewrite) must both use it so their counts agree.
 */
inline bool
filterSelects(const Options& opts, const std::string& key)
{
    return opts.filter.empty() ||
           key.find(opts.filter) != std::string::npos;
}

/** The engine options a bench run should use (jobs + telemetry). */
inline engine::EngineOptions
engineOptions(const Options& opts)
{
    engine::EngineOptions eopts;
    eopts.jobs = opts.jobs;
    eopts.traceDir = opts.traceDir;
    eopts.traceEventDir = opts.traceEventDir;
    eopts.metrics =
        opts.metricsFile ? &opts.metricsFile->registry : nullptr;
    return eopts;
}

/**
 * A bench-specific string flag parseArgs() accepts in addition to
 * the shared set (e.g. trace_replay's --traces DIR).
 */
struct ExtraFlag {
    const char* flag;   ///< e.g. "--traces"
    std::string* value; ///< receives the flag's argument
    const char* help;   ///< one-line description for --help
};

inline void
printUsage(const char* prog, const std::vector<ExtraFlag>& extra = {})
{
    std::printf("usage: %s [--jobs N] [--out FILE [--json]] "
                "[--list | --filter S] [--shard K/N | --chunk B:E] "
                "[--record-trace DIR]\n"
                "  --jobs N     worker threads (0 = all cores; "
                "default 1)\n"
                "  --out F      write engine result rows to F\n"
                "  --json       --out as JSON array instead of CSV\n"
                "  --list       print every grid point key, run "
                "nothing\n"
                "  --filter S   run only grid points whose key "
                "contains S\n"
                "  --shard K/N  run only shard K of N (contiguous "
                "key ranges\n               of the filtered grid "
                "ordering; merge the N\n               CSVs with "
                "dream_merge)\n"
                "  --chunk B:E  run only positions [B, E) of the "
                "filtered grid\n               ordering (the "
                "dream_shard chunk protocol;\n               "
                "chunk files merge with dream_merge too)\n"
                "  --record-trace DIR\n"
                "               write each executed grid point's "
                "per-frame trace\n               to DIR (replay "
                "with trace_replay, gate with\n               "
                "dream_diff)\n"
                "  --trace-events DIR\n"
                "               write each executed grid point's "
                "telemetry event\n               trace (Chrome "
                "trace-event JSON) to DIR — open in\n"
                "               Perfetto or profile with "
                "dream_prof\n"
                "  --metrics F  dump the run's merged metrics "
                "registry (counters,\n               gauges, "
                "latency quantiles) as JSON to F on exit;\n"
                "               byte-identical for any --jobs "
                "value\n"
                "  --metrics-full F\n"
                "               like --metrics but include volatile "
                "metrics\n               (wall-times, cost-cache "
                "counters); for\n               dream_prof, not "
                "byte-stable\n",
                prog);
    for (const auto& e : extra)
        std::printf("  %s  %s\n", e.flag, e.help);
}

/** Parse the shared flags (plus any @p extra bench-specific string
 *  flags); exits on --help or unknown arguments. */
inline Options
parseArgs(int argc, char** argv, const std::vector<ExtraFlag>& extra = {})
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto extra_it = std::find_if(
            extra.begin(), extra.end(),
            [&](const ExtraFlag& e) { return arg == e.flag; });
        if (extra_it != extra.end() && i + 1 < argc) {
            *extra_it->value = argv[++i];
        } else if ((arg == "--jobs" || arg == "-j") && i + 1 < argc) {
            char* end = nullptr;
            opts.jobs = int(std::strtol(argv[++i], &end, 10));
            if (end == argv[i] || *end != '\0') {
                std::fprintf(stderr, "invalid --jobs value: %s\n",
                             argv[i]);
                std::exit(2);
            }
        } else if (arg == "--out" && i + 1 < argc) {
            opts.out = argv[++i];
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--filter" && i + 1 < argc) {
            opts.filter = argv[++i];
        } else if (arg == "--shard" && i + 1 < argc) {
            if (!engine::ShardSpec::parse(argv[++i], &opts.shard)) {
                std::fprintf(stderr,
                             "invalid --shard value (want K/N with "
                             "1 <= K <= N): %s\n",
                             argv[i]);
                std::exit(2);
            }
            opts.sharded = true;
        } else if (arg == "--chunk" && i + 1 < argc) {
            if (!engine::ChunkSpec::parse(argv[++i], &opts.chunk)) {
                std::fprintf(stderr,
                             "invalid --chunk value (want B:E with "
                             "B <= E, or B:): %s\n",
                             argv[i]);
                std::exit(2);
            }
            opts.chunked = true;
        } else if (arg == "--record-trace" && i + 1 < argc) {
            opts.traceDir = argv[++i];
            if (opts.traceDir.empty()) {
                std::fprintf(stderr,
                             "--record-trace needs a directory\n");
                std::exit(2);
            }
            // Fail up front, not via a worker-thread exception after
            // minutes of sweeping: the directory must be creatable.
            try {
                std::filesystem::create_directories(opts.traceDir);
            } catch (const std::filesystem::filesystem_error& e) {
                std::fprintf(stderr,
                             "cannot create --record-trace "
                             "directory %s: %s\n",
                             opts.traceDir.c_str(), e.what());
                std::exit(2);
            }
        } else if (arg == "--trace-events" && i + 1 < argc) {
            opts.traceEventDir = argv[++i];
            if (opts.traceEventDir.empty()) {
                std::fprintf(stderr,
                             "--trace-events needs a directory\n");
                std::exit(2);
            }
            // Same fail-fast discipline as --record-trace.
            try {
                std::filesystem::create_directories(
                    opts.traceEventDir);
            } catch (const std::filesystem::filesystem_error& e) {
                std::fprintf(stderr,
                             "cannot create --trace-events "
                             "directory %s: %s\n",
                             opts.traceEventDir.c_str(), e.what());
                std::exit(2);
            }
        } else if (arg == "--metrics" && i + 1 < argc) {
            opts.metricsPath = argv[++i];
            if (opts.metricsPath.empty()) {
                std::fprintf(stderr, "--metrics needs a file\n");
                std::exit(2);
            }
        } else if (arg == "--metrics-full" && i + 1 < argc) {
            opts.metricsFullPath = argv[++i];
            if (opts.metricsFullPath.empty()) {
                std::fprintf(stderr, "--metrics-full needs a file\n");
                std::exit(2);
            }
        } else if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(argv[0], extra);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            printUsage(argv[0], extra);
            std::exit(2);
        }
    }
    if (opts.sharded && opts.chunked) {
        std::fprintf(stderr,
                     "--shard and --chunk are mutually exclusive\n");
        std::exit(2);
    }
    if (opts.jobs <= 0)
        opts.jobs = engine::WorkerPool::defaultJobs();
    // --metrics gets the same fail-fast + --list discipline as --out:
    // verify writability up front (not after minutes of sweeping) and
    // never truncate an existing file under --list, which runs
    // nothing.
    if ((!opts.metricsPath.empty() || !opts.metricsFullPath.empty()) &&
        !opts.list) {
        for (const std::string& p :
             {opts.metricsPath, opts.metricsFullPath}) {
            if (p.empty())
                continue;
            std::ofstream probe(p);
            if (!probe.is_open()) {
                std::fprintf(stderr,
                             "cannot open metrics file for writing: "
                             "%s\n",
                             p.c_str());
                std::exit(2);
            }
        }
        opts.metricsFile = std::make_shared<MetricsFile>();
        opts.metricsFile->path = opts.metricsPath;
        opts.metricsFile->fullPath = opts.metricsFullPath;
    }
    return opts;
}

/** File sink for --out (CSV, or JSON with --json); null without.
 *  Also null under --list, which runs nothing — opening (and thereby
 *  truncating) an existing --out file would lose its contents.
 *  Exits with an error if the file cannot be opened for writing. */
inline std::unique_ptr<engine::ResultSink>
makeFileSink(const Options& opts)
{
    if (opts.out.empty() || opts.list)
        return nullptr;
    bool ok = true;
    std::unique_ptr<engine::ResultSink> sink;
    if (opts.json) {
        auto json = std::make_unique<engine::JsonSink>(opts.out);
        ok = json->ok();
        sink = std::move(json);
    } else {
        auto csv = std::make_unique<engine::CsvSink>(opts.out);
        ok = csv->ok();
        sink = std::move(csv);
    }
    if (!ok) {
        std::fprintf(stderr, "cannot open --out file for writing: %s\n",
                     opts.out.c_str());
        std::exit(2);
    }
    return sink;
}

/** Sink list for Engine::run() — drops null entries. */
inline std::vector<engine::ResultSink*>
sinkList(std::initializer_list<engine::ResultSink*> sinks)
{
    std::vector<engine::ResultSink*> out;
    for (engine::ResultSink* s : sinks) {
        if (s)
            out.push_back(s);
    }
    return out;
}

/**
 * Serve --list / --filter / --shard / --chunk for @p grid (called
 * before the bench's own full run). With --list, the grid point keys
 * that --filter/--shard/--chunk select (all of them without those
 * flags) are printed and no run happens. With --filter S, --shard
 * K/N and/or --chunk B:E, only the selected points run; their rows
 * stream to stdout as CSV and to @p file_sink. Returns false when
 * the request was handled (the bench should exit 0), true when the
 * bench should continue with its full sweep and reporting.
 *
 * Benches with several grids call this once per grid with a @p label
 * prefix on the listed keys; the last call's return value decides.
 * Such benches also pass @p index_base — the total row count of the
 * grids before this one — so record indices stay globally unique
 * and increasing across the whole file, the invariant dream_merge
 * sorts shard rows back into canonical order by. --chunk positions
 * are likewise global: the cursor in Options rebases the range onto
 * each grid's window of selected positions, so the concatenation of
 * every grid's filtered ordering is one addressable sequence.
 */
inline bool
runOrList(const Options& opts, const engine::SweepGrid& grid,
          engine::ResultSink* file_sink, const char* label = nullptr,
          size_t index_base = 0)
{
    const engine::PointFilter select =
        opts.filter.empty()
            ? engine::PointFilter{}
            : [&](const engine::SweepGrid::Point& p) {
                  return filterSelects(opts, p.key());
              };

    // Only --list and --chunk need the selected positions up front
    // (the engine re-derives them for the run itself): --list to
    // print keys, --chunk to rebase the global range onto this
    // grid's window — later grids start where this one ends.
    std::vector<size_t> selected;
    engine::ChunkSpec local_chunk;
    if (opts.list || opts.chunked) {
        for (size_t i = 0; i < grid.size(); ++i) {
            if (!select || select(grid.point(i)))
                selected.push_back(i);
        }
        local_chunk =
            opts.chunk.slice(opts.chunkCursor, selected.size());
        opts.chunkCursor += selected.size();
    }

    if (opts.list) {
        const auto range = opts.chunked
                               ? local_chunk.range(selected.size())
                               : opts.shard.range(selected.size());
        for (size_t k = range.first; k < range.second; ++k) {
            if (label)
                std::printf("%s: %s\n", label,
                            grid.point(selected[k]).key().c_str());
            else
                std::printf("%s\n",
                            grid.point(selected[k]).key().c_str());
        }
        return false;
    }
    if (!opts.subsetRun())
        return true;

    if (!opts.stdoutSink)
        opts.stdoutSink = std::make_shared<engine::CsvSink>(std::cout);
    engine::ReindexSink shifted_stdout(opts.stdoutSink.get(),
                                       index_base);
    engine::ReindexSink shifted_file(file_sink, index_base);
    auto eopts = engineOptions(opts);
    eopts.traceIndexBase = index_base;
    engine::Engine eng(eopts);
    const auto sinks = sinkList({&shifted_stdout, &shifted_file});
    std::vector<engine::RunRecord> records;
    if (opts.chunked) {
        // The selection was already materialised for the cursor —
        // hand the engine the sliced indices instead of making it
        // repeat the filter scan.
        const auto r = local_chunk.range(selected.size());
        records = eng.run(
            grid, sinks,
            std::vector<size_t>(selected.begin() + long(r.first),
                                selected.begin() + long(r.second)));
    } else {
        records = eng.run(grid, sinks, select, opts.shard);
    }
    // CSV rows buffer in the shared stdout sink until the Options go
    // out of scope: the header needs the union of breakdown columns
    // across every grid the bench streams. (Like --out — whose
    // CsvSink buffers the same way — buffered rows are lost if the
    // process dies without unwinding.)
    const std::string subset_desc =
        opts.chunked ? "--chunk " + opts.chunk.toString()
                     : "--shard " + opts.shard.toString();
    if (!opts.filter.empty())
        std::fprintf(stderr,
                     "%s%s%zu/%zu grid points selected by --filter "
                     "'%s'%s%s\n",
                     label ? label : "", label ? ": " : "",
                     records.size(), grid.size(),
                     opts.filter.c_str(),
                     opts.sharded || opts.chunked ? " and " : "",
                     opts.sharded || opts.chunked
                         ? subset_desc.c_str()
                         : "");
    else
        std::fprintf(stderr, "%s%s%zu/%zu grid points in %s\n",
                     label ? label : "", label ? ": " : "",
                     records.size(), grid.size(),
                     subset_desc.c_str());
    return false;
}

} // namespace bench
} // namespace dream

#endif // DREAM_BENCH_BENCH_MAIN_H
