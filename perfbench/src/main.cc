/**
 * @file
 * dream_bench: the repo benchmark program.
 *
 *   dream_bench --workload NAME --seed N --seconds S --trace 0|1
 *               [--trace-out FILE]
 *
 * Sets the workload up, then repeats set-ups and a timed pass until S
 * seconds have passed (setup_s is the median set-up). With --trace 0
 * it reports the end-to-end metrics of untraced passes. With --trace
 * 1 it alternates untraced and traced passes, runs the per-layer
 * rungs, reports the per-layer metrics and span self times, and
 * writes the spans to FILE. Every pass must give the same digest and
 * the same exact counters; the last stdout line is the JSON result.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "costmodel/cost_table_cache.h"
#include "engine/engine.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;
using namespace dream;

namespace {

/** Set-ups before each pass: at least one, and more, up to
 *  kMaxSetupsPerPass, until kSetupSecondsPerPass have passed. Host
 *  speed drifts within a run, so set-ups are spread over the whole run
 *  like the passes, and setup_s is their median. */
constexpr int kMaxSetupsPerPass = 5;
constexpr double kSetupSecondsPerPass = 0.02;
/** Minimum timed passes per run (per kind in a traced run). */
constexpr size_t kMinPasses = 3;
/** Host time each per-layer rung runs for. */
constexpr double kRungSeconds = 0.3;

struct Args {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "dream_bench: %s\nusage: dream_bench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            a.workload = val;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = !val.empty() && *end == '\0' && val[0] != '-';
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(a.seconds > 0.0) ||
                a.seconds > 600.0)
                usage("--seconds must be in (0, 600]");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace must be 0 or 1");
            a.trace = val == "1";
        } else if (arg == "--trace-out") {
            a.traceOut = val;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!have_seed)
        usage("--seed needs a non-negative integer");
    if (a.seconds <= 0.0)
        usage("--seconds is required");
    return a;
}

/** nproc, compiler and build type: printed with every result. */
std::string
hostFingerprint()
{
#ifdef NDEBUG
    const char* asserts = "off";
#else
    const char* asserts = "on";
#endif
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"nproc\": %ld, \"compiler\": \"g++ %s\", "
                  "\"build_type\": \"%s\", \"asserts\": \"%s\"}",
                  sysconf(_SC_NPROCESSORS_ONLN), __VERSION__,
                  DREAM_BENCH_BUILD_TYPE, asserts);
    return buf;
}

/** User + system CPU seconds of the process so far. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/** ns per CostTable::cost(layer, acc) over the workload's layers. */
double
lookupRung(const std::vector<LookupSet>& sets)
{
    ScopedSpan span("rung.costmodel_lookup");
    uint64_t lookups = 0;
    double sink = 0.0;
    const Clock::time_point t0 = Clock::now();
    do {
        for (const auto& s : sets) {
            const size_t accels = s.table->numAccelerators();
            for (const auto& layer : s.layers) {
                for (size_t acc = 0; acc < accels; ++acc)
                    sink += s.table->cost(layer, acc).latencyUs;
                lookups += accels;
            }
        }
    } while (secondsSince(t0) < kRungSeconds);
    const double ns = secondsSince(t0) * 1e9 / double(lookups);
    // Keeps the lookups observable to the optimiser.
    std::printf("rung costmodel.lookup: %llu lookups, checksum %.6g\n",
                (unsigned long long) lookups, sink);
    return ns;
}

/** Median host ms of one runGridPoint call with a near-empty
 *  window: scenario materialisation, table acquisition, scheduler
 *  and simulator set-up. */
double
fixedCostRung(const engine::SweepGrid& grid)
{
    ScopedSpan span("rung.engine_point_fixed");
    std::vector<double> ms;
    const Clock::time_point t0 = Clock::now();
    do {
        for (size_t i = 0; i < grid.size(); ++i) {
            const Clock::time_point p0 = Clock::now();
            engine::runGridPoint(grid.point(i));
            ms.push_back(secondsSince(p0) * 1e3);
        }
    } while (secondsSince(t0) < kRungSeconds);
    return median(ms);
}

/** A pass and what the cost-table cache served during it. */
struct Pass {
    Unit unit;
    bool traced = false;
    /** The first pass warms caches and allocators; it is checked like
     *  the others but its times are not reported. */
    bool warmup = false;
    /** CPU seconds the process spent in the pass, all threads. */
    double cpuS = 0.0;
    double cacheHitRate = 0.0;
};

Pass
runPass(Workload& w, bool traced)
{
    Tracer::global().setEnabled(traced);
    const auto before = cost::CostTableCache::global().stats();
    Pass p;
    p.traced = traced;
    const double cpu0 = cpuSeconds();
    {
        ScopedSpan span("bench.pass");
        p.unit = w.run(traced);
    }
    p.cpuS = cpuSeconds() - cpu0;
    const auto after = cost::CostTableCache::global().stats();
    const double hits = double(after.hits - before.hits);
    const double misses = double(after.misses - before.misses);
    p.cacheHitRate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    if (traced)
        p.unit.sched = SchedTotals::drain();
    Tracer::global().setEnabled(false);
    return p;
}

double
exactOf(const Unit& u, const char* key)
{
    const auto it = u.exact.find(key);
    return it == u.exact.end() ? 0.0 : it->second;
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric>& metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[256];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit);
        json += buf;
    }
    json += "}}";
    for (const auto& m : metrics)
        std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit);
    std::printf("%s\n", json.c_str());
}

int
runBenchmark(const Args& args)
{
    std::unique_ptr<Workload> w = makeWorkload(args.workload, args.seed);
    if (!w)
        usage("unknown workload " + args.workload);
    const std::string host = hostFingerprint();
    std::printf("host %s\n", host.c_str());
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                args.workload.c_str(), (unsigned long long) args.seed,
                args.seconds, int(args.trace));

    std::vector<std::string> errors;

    // Set-ups, then passes, until the time is up; a traced run
    // alternates untraced and traced passes so both see the same host
    // drift. The passes use the inputs of the latest set-up.
    std::vector<SetupTimes> setups;
    const auto setUp = [&] {
        Tracer::global().setEnabled(args.trace);
        const Clock::time_point s0 = Clock::now();
        for (int k = 0; k < kMaxSetupsPerPass &&
                        (k == 0 || secondsSince(s0) < kSetupSecondsPerPass);
             ++k) {
            setups.push_back(w->setup());
            if (setups.back().tablesBuilt != setups.front().tablesBuilt)
                errors.push_back("set-ups built different table counts");
        }
        Tracer::global().setEnabled(false);
    };
    setUp();
    std::vector<Pass> passes{runPass(*w, false)};
    passes.front().warmup = true;
    const Clock::time_point t0 = Clock::now();
    size_t plain = 0;
    while (secondsSince(t0) < args.seconds || plain < kMinPasses) {
        setUp();
        passes.push_back(runPass(*w, false));
        plain += 1;
        if (args.trace)
            passes.push_back(runPass(*w, true));
    }
    {
        std::vector<double> s;
        for (const auto& t : setups)
            s.push_back(t.totalS);
        std::printf("setup x%zu: median %.5f s min %.5f s max %.5f s, "
                    "tables_built %llu\n",
                    setups.size(), median(s), quantile(s, 0.0),
                    quantile(s, 1.0),
                    (unsigned long long) setups.front().tablesBuilt);
    }

    // Every pass must reproduce the first: same digest, same counters.
    const Unit& ref = passes.front().unit;
    uint64_t attempted = 0, failed = 0;
    std::vector<bool> bad(passes.size(), false);
    for (size_t i = 0; i < passes.size(); ++i) {
        Unit& u = passes[i].unit;
        if (u.digest != ref.digest) {
            u.errors.push_back(
                std::string(passes[i].traced ? "traced" : "untraced") +
                " pass digest differs from the first pass");
        }
        if (u.exact != ref.exact)
            u.errors.push_back("exact counters differ from the first "
                               "pass");
        if (passes[i].traced &&
            double(u.sched.decisions) != exactOf(u, "decisions"))
            u.errors.push_back("decorator saw a different decision count");
        std::printf("pass %zu %s wall_s %.4f cpu_s %.4f digest %016llx "
                    "frames %.0f decisions %.0f drops %.0f",
                    i + 1,
                    passes[i].warmup   ? "warm-up "
                    : passes[i].traced ? "traced  "
                                       : "untraced",
                    u.wallS, passes[i].cpuS,
                    (unsigned long long) u.digest,
                    exactOf(u, "frames"), exactOf(u, "decisions"),
                    exactOf(u, "drops"));
        if (passes[i].traced)
            std::printf(" live_per_decision %.3f",
                        double(u.sched.liveSum) /
                            double(std::max<uint64_t>(1,
                                                      u.sched.decisions)));
        std::printf("\n");
        attempted += uint64_t(exactOf(u, "frames"));
        bad[i] = !u.errors.empty();
        for (const auto& e : u.errors)
            errors.push_back("pass " + std::to_string(i + 1) + ": " + e);
    }

    // The untimed reference pass, checked against the first pass.
    Unit first = passes.front().unit;
    first.errors.clear();
    w->reference(first);
    if (!first.errors.empty()) {
        std::fill(bad.begin(), bad.end(), true);
        for (const auto& e : first.errors)
            errors.push_back("reference: " + e);
    }
    for (size_t i = 0; i < passes.size(); ++i) {
        if (bad[i])
            failed += uint64_t(exactOf(passes[i].unit, "frames"));
    }

    std::printf("counters:");
    for (const auto& [k, v] : first.exact)
        std::printf(" %s=%.17g", k.c_str(), v);
    std::printf("\n");
    for (const auto& e : errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());

    std::vector<double> walls, traced_walls, setup_s, build_ms, mat_ms;
    std::vector<const Pass*> timed;
    for (const auto& p : passes) {
        if (p.warmup)
            continue;
        timed.push_back(&p);
        (p.traced ? traced_walls : walls).push_back(p.unit.wallS);
    }
    for (const auto& s : setups) {
        setup_s.push_back(s.totalS);
        build_ms.push_back(s.buildMs);
        mat_ms.push_back(s.materialiseMs);
    }
    const double frames = exactOf(first, "frames");

    std::vector<Metric> metrics;
    if (!args.trace) {
        // Point quantiles are taken per pass, then their median over
        // passes: a burst of host noise in one pass then moves one
        // sample of the median, not the pooled tail.
        std::vector<double> p50, p99, us_per_frame;
        for (const Pass* p : timed) {
            p50.push_back(quantile(p->unit.pointMs, 0.5));
            p99.push_back(quantile(p->unit.pointMs, 0.99));
            us_per_frame.push_back(p->unit.simCpuS * 1e6 / frames);
        }
        std::printf("points %zu per pass, %zu timed passes\n",
                    ref.pointMs.size(), timed.size());
        metrics = {
            {"wall_s", median(walls), "s"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"point_ms_p50", median(p50), "ms"},
            {"point_ms_p99", median(p99), "ms"},
            {"host_us_per_frame", median(us_per_frame), "us"},
            {"uxcost", exactOf(first, "uxcost"), "score"},
            {"frame_ok_rate", 1.0 - exactOf(first, "fail_rate"), "ratio"},
            {"frame_latency_mean_us", exactOf(first, "latency_mean_us"),
             "sim_us"},
        };
    } else {
        Tracer::global().setEnabled(true);
        const double lookup_ns = lookupRung(w->lookupSets());
        const double fixed_ms = fixedCostRung(w->fixedCostGrid());
        const ServeCallTimes serve_calls =
            serveCallRung(w->serveInputs(), kRungSeconds);
        Tracer::global().setEnabled(false);

        SchedTotals sched;
        std::vector<double> self_s, self_us_frame, busy;
        double plan_s = 0.0, sim_s = 0.0, hit_rate = 0.0;
        for (const Pass* p : timed) {
            if (!p->traced)
                continue;
            const Unit& u = p->unit;
            sched.merge(u.sched);
            plan_s += u.sched.planS;
            sim_s += u.simCpuS;
            self_s.push_back(u.simCpuS - u.sched.planS);
            self_us_frame.push_back((u.simCpuS - u.sched.planS) * 1e6 /
                                    frames);
            if (u.busyShare >= 0.0)
                busy.push_back(u.busyShare);
            hit_rate = p->cacheHitRate;
        }
        const double traced_n = double(traced_walls.size());
        const double decisions = double(sched.decisions) / traced_n;
        const double per_decision =
            sched.decisions ? 1.0 / double(sched.decisions) : 0.0;
        const double sims = exactOf(first, "search_simulations");
        const double hits = exactOf(first, "search_hits");
        const double admitted = exactOf(first, "admitted");
        const double degraded = exactOf(first, "degraded");
        const double rejected = exactOf(first, "rejected");
        const double offered_roots = admitted + degraded + rejected;
        metrics = {
            {"costmodel.lookup_ns", lookup_ns, "ns"},
            {"costmodel.tables_built", double(setups.front().tablesBuilt),
             "count"},
            {"costmodel.cache_hit_rate", hit_rate, "ratio"},
            {"costmodel.build_ms", median(build_ms), "ms"},
            {"workload.materialise_ms", median(mat_ms), "ms"},
            {"engine.point_fixed_ms", fixed_ms, "ms"},
            {"engine.worker_busy_share", busy.empty() ? 0.0 : median(busy),
             "ratio"},
            {"engine.search_simulations", sims, "count"},
            {"engine.search_hit_rate",
             sims + hits > 0 ? hits / (sims + hits) : 0.0, "ratio"},
            {"sched.decisions", decisions, "count"},
            {"sched.decisions_per_frame", decisions / frames, "ratio"},
            {"sched.plan_us_p50", sched.planUs.quantile(0.5), "us"},
            {"sched.plan_us_p99", sched.planUs.quantile(0.99), "us"},
            {"sched.plan_share", sim_s > 0 ? plan_s / sim_s : 0.0,
             "ratio"},
            {"sched.live_per_decision_mean",
             double(sched.liveSum) * per_decision, "count"},
            {"sched.live_per_decision_max", double(sched.liveMax),
             "count"},
            {"sched.ready_per_decision_mean",
             double(sched.readySum) * per_decision, "count"},
            {"sim.self_s", median(self_s), "s"},
            {"sim.us_per_frame", median(self_us_frame), "us"},
            {"sim.context_switches", exactOf(first, "context_switches"),
             "count"},
            {"sim.drops", exactOf(first, "drops"), "count"},
            {"serve.offer_us_p50", serve_calls.offerUs.quantile(0.5),
             "us"},
            {"serve.offer_us_p99", serve_calls.offerUs.quantile(0.99),
             "us"},
            {"serve.advance_us_p50", serve_calls.advanceUs.quantile(0.5),
             "us"},
            {"serve.advance_us_p99", serve_calls.advanceUs.quantile(0.99),
             "us"},
            {"serve.admitted", admitted, "count"},
            {"serve.rejected", rejected, "count"},
            {"serve.degraded", degraded, "count"},
            {"serve.admit_rate",
             offered_roots > 0 ? (admitted + degraded) / offered_roots
                               : 0.0,
             "ratio"},
            {"serve.route_decisions", exactOf(first, "route_decisions"),
             "count"},
            {"serve.device_frames_min", exactOf(first, "device_frames_min"),
             "count"},
            {"serve.device_frames_max", exactOf(first, "device_frames_max"),
             "count"},
            {"serve.fairness_spread", exactOf(first, "fairness_spread"),
             "ratio"},
            {"obs.trace_overhead_pct",
             100.0 * (median(traced_walls) / median(walls) - 1.0), "%"},
        };

        const auto spans = Tracer::global().summarize();
        for (const auto& s : spans)
            std::printf("span %-28s count %10llu total_s %10.4f "
                        "self_s %10.4f\n",
                        s.name.c_str(), (unsigned long long) s.count,
                        s.totalS, s.selfS);
        if (!args.traceOut.empty()) {
            std::ofstream out(args.traceOut);
            out << "{\"host\": " << host << ",\n\"workload\": \""
                << args.workload << "\", \"seed\": " << args.seed
                << ",\n";
            Tracer::global().writeJson(out);
            out << ",\n\"span_self_s\": {";
            for (size_t i = 0; i < spans.size(); ++i)
                out << (i ? ", " : "") << '"' << spans[i].name
                    << "\": " << spans[i].selfS;
            out << "}}\n";
            if (!out)
                errors.push_back("cannot write " + args.traceOut);
        }
    }

    printResult(errors.empty(), attempted, failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return runBenchmark(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dream_bench: %s\n", e.what());
        return 1;
    }
}
