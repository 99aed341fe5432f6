/**
 * @file
 * The work-stealing shard orchestrator behind tools/dream_shard: one
 * host splits a bench's (filtered) grid ordering into M >> N chunks
 * and drives N worker subprocesses over a shared queue — each worker
 * grabs the next pending chunk as it finishes, so skewed chunk costs
 * no longer leave legs idle the way the static --shard K/N partition
 * does. A chunk whose worker fails (non-zero exit or signal) is
 * requeued up to a retry budget, each chunk's wall time is recorded
 * for the timing report, and the chunk files are reassembled with
 * the dream_merge machinery into a file byte-identical to the
 * unsharded --out.
 *
 * The pure pieces (chunk partition, retry queue) are separated from
 * the process plumbing so tests can cover the scheduling policy
 * without spawning benches.
 */

#ifndef DREAM_TOOLS_SHARD_SCHED_H
#define DREAM_TOOLS_SHARD_SCHED_H

#include <cstddef>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace dream {
namespace tools {

/**
 * Split @p total positions into at most @p chunks contiguous
 * half-open ranges. Ranges are non-empty, tile [0, total) exactly in
 * order, and differ in size by at most one; fewer than @p chunks
 * ranges come back when the sequence is shorter. Empty for
 * total == 0 or chunks == 0.
 */
std::vector<engine::ChunkSpec> chunkRanges(size_t total,
                                           size_t chunks);

/**
 * The dynamic chunk queue: chunks are popped as workers free up and
 * a failed chunk is requeued (at the back, behind never-run work)
 * until its attempt budget is spent. Pure bookkeeping — the process
 * layer drives it.
 */
class ChunkQueue {
public:
    /**
     * @param chunks       the work items, in partition order.
     * @param max_attempts per-chunk attempt budget (>= 1); a chunk
     *                     failing this many times is exhausted.
     */
    ChunkQueue(std::vector<engine::ChunkSpec> chunks,
               int max_attempts);

    /** Total chunk count. */
    size_t size() const { return entries_.size(); }
    /** The chunk with queue id @p id. */
    const engine::ChunkSpec& chunk(size_t id) const
    {
        return entries_.at(id).chunk;
    }
    /** Attempts started for chunk @p id so far. */
    int attempts(size_t id) const { return entries_.at(id).attempts; }

    /**
     * Pop the next pending chunk into @p id (counting an attempt).
     * False when nothing is pending right now — which means done,
     * failed, or everything in flight; check allDone()/failed().
     */
    bool next(size_t* id);

    /** Mark chunk @p id (popped earlier) as completed. */
    void complete(size_t id);

    /**
     * Mark chunk @p id (popped earlier) as failed. Returns true when
     * the chunk was requeued, false when its attempt budget is
     * exhausted (a permanent failure).
     */
    bool fail(size_t id);

    /** True when every chunk has completed. */
    bool allDone() const { return completed_ == entries_.size(); }
    /** Chunks that exhausted their attempt budget. */
    size_t failed() const { return exhausted_; }
    /** Failed attempts that were requeued. */
    size_t requeues() const { return requeues_; }

private:
    struct Entry {
        engine::ChunkSpec chunk;
        int attempts = 0;
        bool done = false;
        bool exhausted = false;
    };

    std::vector<Entry> entries_;
    std::deque<size_t> pending_;
    int maxAttempts_;
    size_t completed_ = 0;
    size_t exhausted_ = 0;
    size_t requeues_ = 0;
};

/** Final outcome of one chunk, for the timing report. */
struct ChunkOutcome {
    engine::ChunkSpec chunk;
    int attempts = 0;        ///< attempts started (1 = no retry)
    int worker = -1;         ///< worker slot of the last attempt
    double wallSeconds = 0.0; ///< wall time of the last attempt
    size_t rows = 0;         ///< result rows the chunk produced
    bool ok = false;
};

/**
 * Parse a dream_shard count argument (--jobs, --chunks, --retries,
 * --worker-jobs): a whole decimal number in [0, INT_MAX]. False for
 * anything else — empty or trailing text, a negative value, or one
 * outside int, which a cast would silently wrap.
 */
bool parseCount(const char* text, int* out);

/** Orchestrator knobs (the dream_shard command line). */
struct OrchestratorOptions {
    /**
     * The bench command: argv prefix the chunk flags are appended
     * to. May be a wrapper script around the real bench (CI uses
     * one to inject worker failures).
     */
    std::vector<std::string> command;
    int jobs = 0;        ///< worker processes; <= 0 = all cores
    size_t chunks = 0;   ///< target chunk count; 0 = 4 x jobs
    int retries = 2;     ///< extra attempts per chunk after failure
    int workerJobs = 1;  ///< --jobs each worker subprocess runs with
    std::string filter;  ///< forwarded to the bench as --filter
    bool json = false;   ///< chunk + merged results as JSON
    std::string out;     ///< merged result path; empty = stdout
    std::string tempDir; ///< chunk-file dir; empty = fresh temp dir
    bool verbose = true; ///< per-chunk progress lines on stderr
};

/**
 * One worker slot's occupancy over a whole orchestrated run, summed
 * over every attempt the slot executed (a requeued chunk counts on
 * every slot that ran it — ChunkOutcome only keeps the last
 * attempt's slot). Feeds the per-worker utilization section of the
 * chunk report, where one starved or overloaded leg is visible at a
 * glance.
 */
struct WorkerOutcome {
    size_t chunksRun = 0;      ///< attempts executed on this slot
    size_t failedAttempts = 0; ///< of those, how many failed
    double busySeconds = 0.0;  ///< summed attempt wall time
};

/** What one orchestrated run did. */
struct OrchestratorResult {
    bool ok = false;          ///< every chunk completed and merged
    size_t totalPoints = 0;   ///< grid points counted via --list
    size_t workers = 0;       ///< effective worker count
    size_t rows = 0;          ///< merged result rows
    size_t requeues = 0;      ///< failed attempts that were requeued
    size_t failedChunks = 0;  ///< chunks that exhausted the budget
    double wallSeconds = 0.0; ///< makespan (count + run + merge)
    std::vector<ChunkOutcome> chunks; ///< partition order
    std::vector<WorkerOutcome> workerStats; ///< by worker slot
};

/**
 * Count, chunk, execute, merge: run @p opts.command's grid through
 * N worker subprocesses with dynamic chunk handout and write the
 * merged result (byte-identical to the bench's unsharded --out) to
 * opts.out. A bench whose --list prints nothing (grid-less benches
 * like fig13) falls back to one whole-run task whose output is
 * copied verbatim. Progress goes to stderr.
 *
 * @throws std::runtime_error on environment errors (command not
 * runnable, unreadable chunk output, merge failure). A chunk
 * exhausting its retry budget is NOT a throw: the result comes back
 * with ok == false so the caller can report partial timings.
 */
OrchestratorResult runOrchestrator(const OrchestratorOptions& opts);

/**
 * Render the per-chunk timing report as a markdown table (chunk
 * range, rows, attempts, worker, wall seconds, plus totals —
 * including the "retried chunks: N" line CI greps to assert a
 * killed worker's chunks were re-run). CI publishes it to the
 * GitHub Actions step summary so chunk-cost skew stays visible
 * across PRs.
 */
void writeChunkReport(const OrchestratorOptions& opts,
                      const OrchestratorResult& result,
                      std::ostream& out);

} // namespace tools
} // namespace dream

#endif // DREAM_TOOLS_SHARD_SCHED_H
