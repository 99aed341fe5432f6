#include "tools/shard_sched.h"

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "engine/result_sink.h"
#include "engine/worker_pool.h"
#include "tools/json_result.h"

namespace dream {
namespace tools {

namespace fs = std::filesystem;

std::vector<engine::ChunkSpec>
chunkRanges(size_t total, size_t chunks)
{
    std::vector<engine::ChunkSpec> out;
    const size_t m = std::min(total, chunks);
    out.reserve(m);
    for (size_t i = 0; i < m; ++i)
        out.push_back({total * i / m, total * (i + 1) / m});
    return out;
}

bool
parseCount(const char* text, int* out)
{
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || value < 0 ||
        value > std::numeric_limits<int>::max())
        return false;
    *out = int(value);
    return true;
}

ChunkQueue::ChunkQueue(std::vector<engine::ChunkSpec> chunks,
                       int max_attempts)
    : maxAttempts_(std::max(max_attempts, 1))
{
    entries_.reserve(chunks.size());
    for (auto& c : chunks) {
        pending_.push_back(entries_.size());
        entries_.push_back({c, 0, false, false});
    }
}

bool
ChunkQueue::next(size_t* id)
{
    if (pending_.empty())
        return false;
    *id = pending_.front();
    pending_.pop_front();
    ++entries_[*id].attempts;
    return true;
}

void
ChunkQueue::complete(size_t id)
{
    Entry& e = entries_.at(id);
    if (!e.done) {
        e.done = true;
        ++completed_;
    }
}

bool
ChunkQueue::fail(size_t id)
{
    Entry& e = entries_.at(id);
    if (e.attempts >= maxAttempts_) {
        e.exhausted = true;
        ++exhausted_;
        return false;
    }
    // Requeue at the back: never-run chunks go first, so one flaky
    // chunk cannot starve the rest of the grid.
    pending_.push_back(id);
    ++requeues_;
    return true;
}

// ------------------------------------------------ process plumbing

namespace {

/** argv for one worker: the bench command plus the chunk flags. */
std::vector<std::string>
workerArgv(const OrchestratorOptions& opts,
           const engine::ChunkSpec* chunk, const std::string& out_path)
{
    std::vector<std::string> argv = opts.command;
    argv.push_back("--jobs");
    argv.push_back(std::to_string(std::max(opts.workerJobs, 1)));
    if (chunk) {
        argv.push_back("--chunk");
        argv.push_back(chunk->toString());
    }
    if (!opts.filter.empty()) {
        argv.push_back("--filter");
        argv.push_back(opts.filter);
    }
    argv.push_back("--out");
    argv.push_back(out_path);
    if (opts.json)
        argv.push_back("--json");
    return argv;
}

/**
 * fork + execvp with stdin from /dev/null and (when @p silence)
 * stdout to /dev/null — subset runs echo their rows to stdout,
 * which must not interleave across workers — and stderr to
 * @p stderr_fd (a per-chunk log the orchestrator surfaces on
 * permanent failure; /dev/null when negative and silenced).
 */
pid_t
spawnProcess(const std::vector<std::string>& argv, bool silence,
             int stdout_fd = -1, int stderr_fd = -1)
{
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const auto& a : argv)
        cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error(std::string("fork failed: ") +
                                 std::strerror(errno));
    if (pid == 0) {
        const int devnull = ::open("/dev/null", O_RDWR);
        if (devnull >= 0) {
            ::dup2(devnull, STDIN_FILENO);
            if (stdout_fd >= 0)
                ::dup2(stdout_fd, STDOUT_FILENO);
            else if (silence)
                ::dup2(devnull, STDOUT_FILENO);
            if (stderr_fd >= 0)
                ::dup2(stderr_fd, STDERR_FILENO);
            else if (silence)
                ::dup2(devnull, STDERR_FILENO);
            if (devnull > STDERR_FILENO)
                ::close(devnull);
        }
        if (stdout_fd > STDERR_FILENO)
            ::close(stdout_fd);
        if (stderr_fd > STDERR_FILENO)
            ::close(stderr_fd);
        ::execvp(cargv[0], cargv.data());
        std::fprintf(stderr, "dream_shard: cannot exec %s: %s\n",
                     cargv[0], std::strerror(errno));
        _exit(127);
    }
    return pid;
}

/** Human-readable subprocess wait status ("exit 2", "signal 9"). */
std::string
describeStatus(int status)
{
    if (WIFSIGNALED(status))
        return "signal " + std::to_string(WTERMSIG(status));
    if (WIFEXITED(status))
        return "exit " + std::to_string(WEXITSTATUS(status));
    return "status " + std::to_string(status);
}

/**
 * Run `command --list [--filter S]` and count the printed grid
 * point keys — the length of the position sequence the chunks tile.
 */
size_t
countGridPoints(const OrchestratorOptions& opts)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error(std::string("pipe failed: ") +
                                 std::strerror(errno));

    std::vector<std::string> argv = opts.command;
    argv.push_back("--list");
    if (!opts.filter.empty()) {
        argv.push_back("--filter");
        argv.push_back(opts.filter);
    }
    const pid_t pid =
        spawnProcess(argv, /*silence=*/true, /*stdout_fd=*/fds[1]);
    ::close(fds[1]);

    size_t lines = 0;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n <= 0)
            break;
        for (ssize_t i = 0; i < n; ++i) {
            if (buf[i] == '\n')
                ++lines;
        }
    }
    ::close(fds[0]);

    int status = 0;
    if (::waitpid(pid, &status, 0) < 0 || status != 0)
        throw std::runtime_error(opts.command.front() +
                                 " --list failed (" +
                                 describeStatus(status) + ")");
    return lines;
}

/** Copy @p path's bytes to @p out (the whole-run fallback merge). */
void
copyFileBytes(const std::string& path, std::ostream& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        throw std::runtime_error("cannot read chunk output: " + path);
    out << in.rdbuf();
    out.flush();
}

/** Merged-output stream: opts.out, or stdout when empty. */
class MergedOut {
public:
    explicit MergedOut(const std::string& path)
    {
        if (path.empty())
            return;
        file_.open(path, std::ios::binary | std::ios::trunc);
        if (!file_.is_open())
            throw std::runtime_error(
                "cannot open --out file for writing: " + path);
    }
    std::ostream& stream()
    {
        return file_.is_open() ? file_ : std::cout;
    }

private:
    std::ofstream file_;
};

/** Temp chunk-file directory, removed on scope exit if we made it. */
class ChunkDir {
public:
    explicit ChunkDir(const std::string& requested)
    {
        if (!requested.empty()) {
            fs::create_directories(requested);
            path_ = requested;
            return;
        }
        std::string tmpl =
            (fs::temp_directory_path() / "dream_shard.XXXXXX")
                .string();
        if (!::mkdtemp(tmpl.data()))
            throw std::runtime_error(
                std::string("mkdtemp failed: ") +
                std::strerror(errno));
        path_ = tmpl;
        owned_ = true;
    }
    ~ChunkDir()
    {
        if (owned_) {
            std::error_code ec;
            fs::remove_all(path_, ec); // best effort
        }
    }
    std::string chunkFile(size_t id, bool json) const
    {
        return (fs::path(path_) /
                ("chunk" + std::to_string(id) +
                 (json ? ".json" : ".csv")))
            .string();
    }
    /** Per-chunk worker stderr capture (last attempt wins). */
    std::string logFile(size_t id) const
    {
        return (fs::path(path_) /
                ("chunk" + std::to_string(id) + ".log"))
            .string();
    }

private:
    std::string path_;
    bool owned_ = false;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // anonymous namespace

OrchestratorResult
runOrchestrator(const OrchestratorOptions& opts)
{
    if (opts.command.empty())
        throw std::runtime_error("no bench command given");
    const auto t0 = std::chrono::steady_clock::now();

    OrchestratorResult result;
    result.workers = size_t(opts.jobs > 0
                                ? opts.jobs
                                : engine::WorkerPool::defaultJobs());
    result.totalPoints = countGridPoints(opts);
    const size_t n_chunks =
        opts.chunks > 0 ? opts.chunks : 4 * result.workers;
    const int max_attempts =
        1 + std::clamp(opts.retries, 0,
                       std::numeric_limits<int>::max() - 1);

    ChunkDir dir(opts.tempDir);
    const bool whole_run = result.totalPoints == 0;

    // Grid-less benches (fig13) list nothing: fall back to one
    // whole-run task and pass its output through verbatim.
    std::vector<engine::ChunkSpec> chunks =
        whole_run ? std::vector<engine::ChunkSpec>{{0,
                                                    engine::ChunkSpec::
                                                        npos}}
                  : chunkRanges(result.totalPoints, n_chunks);
    ChunkQueue queue(chunks, max_attempts);

    result.chunks.resize(chunks.size());
    for (size_t i = 0; i < chunks.size(); ++i)
        result.chunks[i].chunk = chunks[i];
    result.workerStats.resize(result.workers);

    if (opts.verbose)
        std::fprintf(stderr,
                     "dream_shard: %zu grid points -> %zu chunk(s) "
                     "on %zu worker(s)\n",
                     result.totalPoints, chunks.size(),
                     result.workers);

    // The work-stealing loop: keep every worker slot busy with the
    // next pending chunk; a finished worker immediately picks up
    // more work, so chunk-cost skew settles onto idle slots instead
    // of stretching one static leg.
    struct Running {
        size_t id;
        int slot;
        std::chrono::steady_clock::time_point start;
    };
    std::map<pid_t, Running> running;
    std::vector<int> free_slots;
    for (int s = int(result.workers); s-- > 0;)
        free_slots.push_back(s);

    for (;;) {
        size_t id = 0;
        while (!free_slots.empty() && queue.next(&id)) {
            const int slot = free_slots.back();
            free_slots.pop_back();
            const auto argv = workerArgv(
                opts, whole_run ? nullptr : &chunks[id],
                dir.chunkFile(id, opts.json));
            // Worker stderr goes to a per-chunk log (truncated per
            // attempt) so a permanently failing chunk can report
            // WHY, not just its exit status.
            const int log_fd =
                ::open(dir.logFile(id).c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
            const pid_t pid = spawnProcess(
                argv, /*silence=*/true, /*stdout_fd=*/-1, log_fd);
            if (log_fd >= 0)
                ::close(log_fd);
            running[pid] = {id, slot,
                            std::chrono::steady_clock::now()};
        }
        if (running.empty())
            break;

        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, 0);
        if (pid < 0)
            throw std::runtime_error(
                std::string("waitpid failed: ") +
                std::strerror(errno));
        const auto it = running.find(pid);
        if (it == running.end())
            continue; // not one of ours
        const Running run = it->second;
        running.erase(it);
        free_slots.push_back(run.slot);

        ChunkOutcome& outcome = result.chunks[run.id];
        outcome.attempts = queue.attempts(run.id);
        outcome.worker = run.slot;
        outcome.wallSeconds = secondsSince(run.start);
        // Per-attempt worker bookkeeping: ChunkOutcome only keeps
        // the last attempt, so retried chunks are credited to every
        // slot that ran them here.
        WorkerOutcome& ws = result.workerStats[size_t(run.slot)];
        ws.chunksRun += 1;
        ws.busySeconds += outcome.wallSeconds;
        if (status != 0)
            ws.failedAttempts += 1;
        if (status == 0) {
            outcome.ok = true;
            queue.complete(run.id);
            if (opts.verbose)
                std::fprintf(stderr,
                             "dream_shard: chunk %zu [%s] ok on "
                             "worker %d, attempt %d (%.2fs)\n",
                             run.id,
                             chunks[run.id].toString().c_str(),
                             run.slot, outcome.attempts,
                             outcome.wallSeconds);
        } else {
            const bool requeued = queue.fail(run.id);
            std::fprintf(
                stderr,
                "dream_shard: chunk %zu [%s] FAILED on worker "
                "%d (%s), attempt %d/%d — %s\n",
                run.id, chunks[run.id].toString().c_str(),
                run.slot, describeStatus(status).c_str(),
                outcome.attempts, max_attempts,
                requeued ? "requeued" : "giving up");
            if (!requeued) {
                // Surface the final attempt's stderr before the
                // temp dir (and the log with it) is cleaned up.
                std::ifstream log(dir.logFile(run.id));
                std::string line;
                bool any = false;
                while (std::getline(log, line)) {
                    std::fprintf(stderr,
                                 "dream_shard: chunk %zu stderr: "
                                 "%s\n",
                                 run.id, line.c_str());
                    any = true;
                }
                if (!any)
                    std::fprintf(stderr,
                                 "dream_shard: chunk %zu produced "
                                 "no stderr\n",
                                 run.id);
            }
        }
    }

    result.requeues = queue.requeues();
    result.failedChunks = queue.failed();
    if (!queue.allDone()) {
        result.wallSeconds = secondsSince(t0);
        return result; // ok stays false; caller reports and exits 1
    }

    // Reassemble. Chunks tile the filtered ordering and every row
    // carries its global index, so the dream_merge machinery
    // restores the canonical single-run bytes no matter which
    // worker ran which chunk in which order. The merge goes into a
    // buffer first: --out is only touched once the whole merge has
    // succeeded, so a corrupt chunk file cannot destroy a previous
    // good result at the same path.
    std::ostringstream buffer;
    if (whole_run) {
        const std::string path = dir.chunkFile(0, opts.json);
        result.chunks[0].rows =
            opts.json ? readResultJson(path).table.rows.size()
                      : engine::readResultCsv(path).rows.size();
        copyFileBytes(path, buffer);
        result.rows = result.chunks[0].rows;
    } else {
        std::vector<std::string> paths;
        paths.reserve(chunks.size());
        for (size_t i = 0; i < chunks.size(); ++i)
            paths.push_back(dir.chunkFile(i, opts.json));
        std::vector<size_t> rows_per_chunk;
        result.rows = mergeResultFiles(paths, opts.json, buffer,
                                       &rows_per_chunk);
        for (size_t i = 0; i < rows_per_chunk.size(); ++i)
            result.chunks[i].rows = rows_per_chunk[i];
    }

    MergedOut out(opts.out);
    out.stream() << buffer.str();
    out.stream().flush();

    result.ok = true;
    result.wallSeconds = secondsSince(t0);
    return result;
}

void
writeChunkReport(const OrchestratorOptions& opts,
                 const OrchestratorResult& result, std::ostream& out)
{
    std::string command;
    for (const auto& a : opts.command) {
        if (!command.empty())
            command += ' ';
        command += a;
    }
    size_t retried = 0;
    for (const auto& c : result.chunks) {
        if (c.attempts > 1)
            ++retried;
    }

    char buf[64];
    out << "### dream_shard: " << command << "\n\n";
    std::snprintf(buf, sizeof buf, "%.2f", result.wallSeconds);
    out << "- grid points: " << result.totalPoints
        << " · chunks: " << result.chunks.size()
        << " · workers: " << result.workers
        << " · worker --jobs: " << std::max(opts.workerJobs, 1)
        << "\n"
        << "- makespan: " << buf << " s · merged rows: "
        << result.rows << " · requeued attempts: " << result.requeues
        << " · failed chunks: " << result.failedChunks << "\n"
        << "- retried chunks: " << retried << "\n\n";

    out << "| chunk | range | rows | attempts | worker | wall (s) "
           "|\n"
        << "|--:|:--|--:|--:|--:|--:|\n";
    for (size_t i = 0; i < result.chunks.size(); ++i) {
        const ChunkOutcome& c = result.chunks[i];
        std::snprintf(buf, sizeof buf, "%.3f", c.wallSeconds);
        out << "| " << i << " | [" << c.chunk.toString() << ") | "
            << c.rows << " | " << c.attempts << " | " << c.worker
            << " | " << buf << " |\n";
    }

    // Per-worker occupancy: idle is measured against the makespan,
    // so a slot that sat out most of the run (chunk-cost skew, or a
    // crashed worker's chunks migrating elsewhere) shows up as a
    // low utilization row.
    if (!result.workerStats.empty()) {
        out << "\n| worker | chunks run | failed attempts | "
               "busy (s) | idle (s) | utilization |\n"
            << "|--:|--:|--:|--:|--:|--:|\n";
        for (size_t w = 0; w < result.workerStats.size(); ++w) {
            const WorkerOutcome& ws = result.workerStats[w];
            const double busy = ws.busySeconds;
            const double idle =
                std::max(0.0, result.wallSeconds - busy);
            const double util =
                result.wallSeconds > 0.0
                    ? busy / result.wallSeconds : 0.0;
            char busy_s[64], idle_s[64], util_s[64];
            std::snprintf(busy_s, sizeof busy_s, "%.3f", busy);
            std::snprintf(idle_s, sizeof idle_s, "%.3f", idle);
            std::snprintf(util_s, sizeof util_s, "%.1f%%",
                          util * 100.0);
            out << "| " << w << " | " << ws.chunksRun << " | "
                << ws.failedAttempts << " | " << busy_s << " | "
                << idle_s << " | " << util_s << " |\n";
        }
    }
    out.flush();
}

} // namespace tools
} // namespace dream
