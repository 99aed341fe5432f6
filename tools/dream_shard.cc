/**
 * @file
 * dream_shard: single-host work-stealing orchestrator for sharded
 * bench runs. Splits the bench's (filtered) grid ordering into
 * M >> N chunks, drives N worker subprocesses over a dynamic queue
 * (a finished worker immediately grabs the next pending chunk),
 * requeues chunks whose worker failed, and merges the chunk files
 * into `--out` byte-identically to the bench's own unsharded
 * `--out`. Replaces the static `--shard K/N` → dream_merge loop as
 * the recommended way to fan a sweep out on one machine.
 *
 * Exit codes: 0 = merged OK, 1 = a chunk exhausted its retry
 * budget, 2 = usage or environment error.
 */

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tools/shard_sched.h"

using namespace dream;

namespace {

void
printUsage(const char* prog)
{
    std::printf(
        "usage: %s [options] [--] BENCH [BENCH-ARGS...]\n"
        "  -j, --jobs N     worker subprocesses (0 = all cores; "
        "default 0)\n"
        "  --chunks M       chunk count (default: 4 x workers; "
        "chunks are\n                   contiguous ranges of the "
        "filtered grid ordering,\n                   handed out "
        "dynamically as workers finish)\n"
        "  --retries R      extra attempts per failed chunk "
        "(default 2)\n"
        "  --worker-jobs W  --jobs each worker runs with "
        "(default 1)\n"
        "  --filter S       forwarded to the bench\n"
        "  --json           chunk + merged results as JSON\n"
        "  --out F          merged result file (default: stdout)\n"
        "  --report F       write the per-chunk markdown timing "
        "report to F\n"
        "  --tmp DIR        chunk working dir (default: a fresh "
        "temp dir)\n"
        "  --quiet          no per-chunk progress on stderr\n"
        "the merged file is byte-identical to `BENCH --out` run "
        "unsharded;\na killed worker's chunks are re-run on other "
        "workers\n",
        prog);
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    tools::OrchestratorOptions opts;
    std::string report_path;
    int i = 1;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        int value = 0;
        if ((arg == "--jobs" || arg == "-j") && i + 1 < argc) {
            if (!tools::parseCount(argv[++i], &value)) {
                std::fprintf(stderr, "invalid --jobs value: %s\n",
                             argv[i]);
                return 2;
            }
            opts.jobs = value;
        } else if (arg == "--chunks" && i + 1 < argc) {
            if (!tools::parseCount(argv[++i], &value) || value == 0) {
                std::fprintf(stderr, "invalid --chunks value: %s\n",
                             argv[i]);
                return 2;
            }
            opts.chunks = size_t(value);
        } else if (arg == "--retries" && i + 1 < argc) {
            if (!tools::parseCount(argv[++i], &value)) {
                std::fprintf(stderr, "invalid --retries value: %s\n",
                             argv[i]);
                return 2;
            }
            opts.retries = value;
        } else if (arg == "--worker-jobs" && i + 1 < argc) {
            if (!tools::parseCount(argv[++i], &value)) {
                std::fprintf(stderr,
                             "invalid --worker-jobs value: %s\n",
                             argv[i]);
                return 2;
            }
            opts.workerJobs = value;
        } else if (arg == "--filter" && i + 1 < argc) {
            opts.filter = argv[++i];
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--out" && i + 1 < argc) {
            opts.out = argv[++i];
        } else if (arg == "--report" && i + 1 < argc) {
            report_path = argv[++i];
        } else if (arg == "--tmp" && i + 1 < argc) {
            opts.tempDir = argv[++i];
        } else if (arg == "--quiet") {
            opts.verbose = false;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            return 0;
        } else if (arg == "--") {
            ++i;
            break;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown argument: %s\n",
                         arg.c_str());
            printUsage(argv[0]);
            return 2;
        } else {
            break; // first positional: the bench command starts
        }
    }
    for (; i < argc; ++i)
        opts.command.push_back(argv[i]);
    if (opts.command.empty()) {
        std::fprintf(stderr, "no bench command given\n");
        printUsage(argv[0]);
        return 2;
    }

    try {
        const auto result = tools::runOrchestrator(opts);

        if (!report_path.empty()) {
            std::ofstream report(report_path);
            if (!report.is_open()) {
                std::fprintf(stderr,
                             "cannot open --report file for "
                             "writing: %s\n",
                             report_path.c_str());
                return 2;
            }
            tools::writeChunkReport(opts, result, report);
        }

        if (!result.ok) {
            std::fprintf(stderr,
                         "dream_shard: %zu chunk(s) failed after "
                         "%d attempt(s) each; no merged output "
                         "written\n",
                         result.failedChunks, 1 + opts.retries);
            return 1;
        }
        std::fprintf(stderr,
                     "dream_shard: merged %zu rows from %zu "
                     "chunk(s) on %zu worker(s) in %.2fs "
                     "(%zu requeued attempt(s))\n",
                     result.rows, result.chunks.size(),
                     result.workers, result.wallSeconds,
                     result.requeues);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dream_shard: %s\n", e.what());
        return 2;
    }
    return 0;
}
