#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <streambuf>
#include <utility>

#include "costmodel/cost_table_cache.h"
#include "engine/engine.h"
#include "engine/param_eval.h"
#include "engine/param_search.h"
#include "engine/worker_pool.h"
#include "hw/system.h"
#include "metrics/uxcost.h"
#include "runner/experiment.h"
#include "serve/cluster.h"
#include "serve/serve_loop.h"
#include "workload/frame_source.h"
#include "workload/rng.h"
#include "workload/scenario.h"
#include "workload/scenario_gen.h"
#include "workload/stream_source.h"

namespace perfbench {

using namespace dream;

namespace {

/** Engine workers of the sweep workloads (the host has 4 cores). */
constexpr int kWorkers = 2;
/** The stock generator's scenario seed: serving always serves
 *  Gen11; the workload seed drives the frames. */
constexpr uint64_t kGenSeed = 11;

/** The k-th input seed of a run with workload seed @p seed. */
uint64_t
deriveSeed(uint64_t seed, uint64_t k)
{
    return workload::rng::splitmix64(seed * 0x9e3779b97f4a7c15ull + k) %
               1000000007ull +
           1;
}

/** FNV-1a over exact bit patterns. */
struct Digest {
    uint64_t h = 1469598103934665603ull;

    void bytes(const void* p, size_t n)
    {
        const auto* c = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 1099511628211ull;
        }
    }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void num(double v) { bytes(&v, sizeof v); }
    void str(const std::string& s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

void
digestRecord(Digest& d, const engine::RunRecord& r)
{
    d.u64(r.index);
    d.str(r.scenario);
    d.str(r.system);
    d.str(r.scheduler);
    d.u64(r.seed);
    for (const double v : {r.uxCost, r.dlvRate, r.normEnergy, r.energyMj,
                           r.violationFraction, r.dropRate})
        d.num(v);
    for (const uint64_t v : {r.totalFrames, r.violatedFrames,
                             r.droppedFrames, r.schedulerInvocations})
        d.u64(v);
    for (const auto& [name, value] : r.breakdown) {
        d.str(name);
        d.num(value);
    }
}

void
digestStats(Digest& d, const sim::RunStats& s)
{
    for (const auto& t : s.tasks) {
        d.str(t.model);
        for (const uint64_t v : {t.totalFrames, t.completedFrames,
                                 t.violatedFrames, t.droppedFrames})
            d.u64(v);
        for (const double v : {t.energyMj, t.worstCaseEnergyMj,
                               t.sumLatencyUs})
            d.num(v);
        for (const uint64_t v : t.variantStarts)
            d.u64(v);
    }
    for (const auto& f : s.frames) {
        d.u64(uint64_t(f.task));
        d.u64(uint64_t(f.frameIdx));
        for (const double v : {f.arrivalUs, f.deadlineUs, f.completionUs,
                               f.energyMj})
            d.num(v);
        d.u64(uint64_t(f.dropped) | uint64_t(f.violated) << 1 |
              uint64_t(f.inWindow) << 2);
        d.u64(uint64_t(f.variant));
    }
    d.u64(s.contextSwitches);
    d.num(s.contextSwitchEnergyMj);
    d.u64(s.schedulerInvocations);
    for (const double v : s.accelBusyUs)
        d.num(v);
}

/** Frame accounting of one run, with its conservation checks. */
struct FrameFacts {
    uint64_t total = 0;      ///< in-window frames
    uint64_t completed = 0;
    uint64_t dropped = 0;
    uint64_t unfinished = 0;
    uint64_t violated = 0;
    uint64_t rootRecords = 0;  ///< admitted root frames, any window
    std::vector<double> latencyUs;  ///< completed in-window frames
};

/**
 * Count @p stats' frames record by record and check them against the
 * per-task tallies: every in-window frame is exactly one of
 * completed, dropped or unfinished, and the per-frame and per-task
 * counts agree.
 */
FrameFacts
frameFacts(const sim::RunStats& stats, const workload::Scenario& scenario,
           const std::string& where, std::vector<std::string>& errors)
{
    FrameFacts f;
    for (const auto& fr : stats.frames) {
        if (fr.task < 0 || size_t(fr.task) >= scenario.tasks.size()) {
            errors.push_back(where + ": frame of unknown task");
            continue;
        }
        if (scenario.tasks[size_t(fr.task)].dependsOn ==
            workload::kNoParent)
            f.rootRecords += 1;
        if (!fr.inWindow)
            continue;
        f.total += 1;
        const bool done = fr.isCompleted();
        if (done && fr.dropped)
            errors.push_back(where + ": frame both completed and dropped");
        if (done) {
            f.completed += 1;
            const double lat = fr.completionUs - fr.arrivalUs;
            if (!(lat >= 0.0))
                errors.push_back(where + ": negative frame latency");
            f.latencyUs.push_back(lat);
        } else if (fr.dropped) {
            f.dropped += 1;
        } else {
            f.unfinished += 1;
        }
        const bool late = fr.dropped || !done ||
                          fr.completionUs > fr.deadlineUs;
        if (late != fr.violated)
            errors.push_back(where + ": violation flag disagrees with "
                                     "the frame's outcome");
        f.violated += fr.violated ? 1 : 0;
    }
    uint64_t total = 0, completed = 0, violated = 0, dropped = 0;
    for (const auto& t : stats.tasks) {
        total += t.totalFrames;
        completed += t.completedFrames;
        violated += t.violatedFrames;
        dropped += t.droppedFrames;
    }
    if (total != f.total || completed != f.completed ||
        violated != f.violated || dropped != f.dropped)
        errors.push_back(where + ": per-task tallies disagree with the "
                                 "frame records");
    if (f.completed + f.dropped + f.unfinished != f.total)
        errors.push_back(where + ": frames not conserved");
    return f;
}

/** Mean and quantiles of completed frames' latencies. */
void
latencyStats(std::map<std::string, double>& exact,
             const std::vector<double>& lat)
{
    double sum = 0.0;
    for (const double v : lat)
        sum += v;
    exact["latency_mean_us"] = lat.empty() ? 0.0 : sum / double(lat.size());
    exact["latency_p50_us"] = quantile(lat, 0.5);
    exact["latency_p99_us"] = quantile(lat, 0.99);
}

double
geomean(const std::vector<double>& v)
{
    double s = 0.0;
    for (const double x : v)
        s += std::log(x);
    return v.empty() ? 0.0 : std::exp(s / double(v.size()));
}

/** Every layer a scenario's models can run, Supernet variants too. */
std::vector<models::Layer>
scenarioLayers(const workload::Scenario& scenario)
{
    std::vector<models::Layer> layers;
    for (const auto& task : scenario.tasks) {
        const auto& m = task.model;
        layers.insert(layers.end(), m.layers.begin(), m.layers.end());
        for (const auto& v : m.variants)
            layers.insert(layers.end(), v.bodyLayers.begin(),
                          v.bodyLayers.end());
    }
    return layers;
}

/** Host time of one grid's points on the engine's worker pool. */
struct GridPass {
    std::vector<engine::RunRecord> records;
    std::vector<double> pointMs;
    double pointS = 0.0;  ///< summed per-point CPU seconds
    double busyS = 0.0;   ///< summed worker busy seconds
    double slotS = 0.0;   ///< workers x wall seconds
};

GridPass
runGrid(const engine::SweepGrid& grid, const engine::WorkerPool& pool)
{
    GridPass g;
    const size_t n = grid.size();
    g.records.resize(n);
    g.pointMs.resize(n);
    const int64_t parent = ScopedSpan::current();
    const Clock::time_point t0 = Clock::now();
    pool.parallelFor(n, [&](size_t i) {
        ScopedSpan span("engine.grid_point", parent);
        const double c0 = threadCpuMs();
        g.records[i] = engine::runGridPoint(grid.point(i));
        g.pointMs[i] = threadCpuMs() - c0;
    });
    const double wall_s = secondsSince(t0);
    for (const double ms : g.pointMs)
        g.pointS += ms / 1e3;
    for (const auto& w : pool.lastRunStats())
        g.busyS += w.busySeconds;
    g.slotS = double(pool.lastRunStats().size()) * wall_s;
    return g;
}

/**
 * A grid with every scheduler factory wrapped in the decorator: the
 * traced twin of @p grid, with the same names, points and seeds.
 */
engine::SweepGrid
tracedTwin(const engine::SweepGrid& grid)
{
    engine::SweepGrid twin;
    for (const auto& s : grid.scenarios())
        twin.addScenario(s.name, s.make);
    for (const auto& s : grid.systems())
        twin.addSystem(s.name, s.make);
    for (const auto& s : grid.schedulers()) {
        twin.addScheduler(s.name, [make = s.make](
                                      const engine::ParamMap& p) {
            return maybeTimed(make(p), true);
        });
    }
    for (const auto& a : grid.paramAxes())
        twin.addParam(a.name, a.values);
    twin.seeds(grid.seedList()).window(grid.windowUs());
    return twin;
}

/** Sums of a grid's records, and the per-record sanity checks;
 *  returns the geometric mean UXCost over the records. */
double
accountRecords(Unit& u, const std::vector<engine::RunRecord>& records)
{
    Digest d;
    double frames = 0, violated = 0, drops = 0, decisions = 0;
    std::vector<double> ux;
    for (const auto& r : records) {
        digestRecord(d, r);
        frames += double(r.totalFrames);
        violated += double(r.violatedFrames);
        drops += double(r.droppedFrames);
        decisions += double(r.schedulerInvocations);
        ux.push_back(r.uxCost);
        if (r.droppedFrames > r.violatedFrames ||
            r.violatedFrames > r.totalFrames || !(r.uxCost > 0.0))
            u.errors.push_back("grid point " + std::to_string(r.index) +
                               ": inconsistent frame counts");
    }
    u.digest = d.h ^ (u.digest * 1099511628211ull);
    u.exact["frames"] += frames;
    u.exact["violated"] += violated;
    u.exact["drops"] += drops;
    u.exact["decisions"] += decisions;
    return geomean(ux);
}

/**
 * The reference pass of a grid: every point again through
 * runner::runOnce, which returns the full RunStats runGridPoint
 * keeps to itself. Its result row must equal the engine's bit for
 * bit; its frames give the latency quantiles and the conservation
 * checks, including that every generated root frame was admitted.
 */
void
referenceGrid(const engine::SweepGrid& grid,
              const std::vector<engine::RunRecord>& timed,
              const engine::WorkerPool& pool, Unit& first,
              std::vector<double>& latencies)
{
    const size_t n = grid.size();
    std::vector<std::vector<std::string>> errors(n);
    std::vector<std::vector<double>> lat(n);
    std::vector<uint64_t> switches(n, 0);
    pool.parallelFor(n, [&](size_t i) {
        const auto p = grid.point(i);
        const workload::Scenario scenario = (*p.makeScenario)();
        const hw::SystemConfig system = (*p.makeSystem)();
        auto sched = (*p.makeScheduler)(p.params);
        const runner::RunResult r = runner::runOnce(
            system, scenario, *sched, p.windowUs, p.seed);
        engine::RunRecord rec;
        rec.index = p.index;
        rec.scenario = p.scenario;
        rec.system = p.system;
        rec.scheduler = p.scheduler;
        rec.params = p.params;
        rec.seed = p.seed;
        rec.windowUs = p.windowUs;
        engine::fillMetrics(rec, r.stats);
        Digest a, b;
        digestRecord(a, rec);
        digestRecord(b, timed[i]);
        const std::string where = "grid point " + p.key();
        if (a.h != b.h)
            errors[i].push_back(where + ": engine row differs from the "
                                        "runner's");
        FrameFacts f = frameFacts(r.stats, scenario, where, errors[i]);
        const size_t roots = workload::FrameSource(scenario, p.seed)
                                 .rootFrames(p.windowUs)
                                 .size();
        if (f.rootRecords != roots)
            errors[i].push_back(where + ": generated root frames not "
                                        "all admitted");
        lat[i] = std::move(f.latencyUs);
        switches[i] = r.stats.contextSwitches;
    });
    for (size_t i = 0; i < n; ++i) {
        first.errors.insert(first.errors.end(), errors[i].begin(),
                            errors[i].end());
        latencies.insert(latencies.end(), lat[i].begin(), lat[i].end());
        first.exact["context_switches"] += double(switches[i]);
    }
}

/** Times one set-up, which starts from an empty cost-table cache. */
struct TimedSetup {
    Clock::time_point t0 = Clock::now();
    cost::CostTableCache::Stats before;
    SetupTimes times;

    TimedSetup()
    {
        cost::CostTableCache::global().clear();
        before = cost::CostTableCache::global().stats();
    }
    SetupTimes finish()
    {
        times.totalS = secondsSince(t0);
        times.tablesBuilt =
            cost::CostTableCache::global().stats().misses - before.misses;
        return times;
    }
};

// ----------------------------------------------------------- sweeps

/**
 * sweep_fig07: the Figure 7 grid (every evaluation scheduler x the
 * Table 3 scenarios x the heterogeneous systems x three seeds drawn
 * from the workload seed) on two engine workers.
 */
class SweepFig07 : public Workload {
public:
    explicit SweepFig07(uint64_t seed) : seed_(seed) {}

    SetupTimes setup() override
    {
        TimedSetup ts;
        ScopedSpan span("bench.setup");
        std::vector<workload::Scenario> scenarios;
        std::vector<hw::SystemConfig> systems;
        {
            ScopedSpan m("workload.materialise");
            const Clock::time_point t0 = Clock::now();
            for (const auto p : workload::allScenarioPresets())
                scenarios.push_back(workload::makeScenario(p));
            for (const auto p : hw::heterogeneousPresets())
                systems.push_back(hw::makeSystem(p));
            grid_ = engine::SweepGrid();
            for (const auto p : workload::allScenarioPresets())
                grid_.addScenario(p);
            for (const auto p : hw::heterogeneousPresets())
                grid_.addSystem(p);
            for (const auto k : runner::evaluationSchedulers())
                grid_.addScheduler(k);
            std::vector<uint64_t> seeds;
            for (uint64_t k = 0; k < kSeeds; ++k)
                seeds.push_back(deriveSeed(seed_, k));
            grid_.seeds(seeds).window(runner::kDefaultWindowUs);
            traced_ = tracedTwin(grid_);
            serveScenario_ = scenarios.front();
            serveSystem_ = systems.front();
            ts.times.materialiseMs = secondsSince(t0) * 1e3;
        }
        {
            ScopedSpan b("costmodel.build");
            const Clock::time_point t0 = Clock::now();
            lookup_.clear();
            for (const auto& sys : systems) {
                for (const auto& sc : scenarios)
                    lookup_.push_back({cost::acquireCostTable(sys, sc),
                                       scenarioLayers(sc)});
            }
            ts.times.buildMs = secondsSince(t0) * 1e3;
        }
        return ts.finish();
    }

    Unit run(bool traced) override
    {
        Unit u;
        engine::WorkerPool pool(kWorkers);
        const Clock::time_point t0 = Clock::now();
        GridPass g = runGrid(traced ? traced_ : grid_, pool);
        u.wallS = secondsSince(t0);
        u.simCpuS = g.pointS;
        u.busyShare = g.busyS / g.slotS;
        u.pointMs = std::move(g.pointMs);
        u.exact["uxcost"] = accountRecords(u, g.records);
        u.exact["fail_rate"] = u.exact["violated"] / u.exact["frames"];
        records_ = std::move(g.records);
        return u;
    }

    void reference(Unit& first) override
    {
        engine::WorkerPool pool(kWorkers);
        std::vector<double> lat;
        referenceGrid(grid_, records_, pool, first, lat);
        latencyStats(first.exact, lat);
    }

    std::vector<LookupSet> lookupSets() const override { return lookup_; }

    engine::SweepGrid fixedCostGrid() const override
    {
        engine::SweepGrid g = grid_;
        g.window(1.0);
        return g;
    }

    ServeInputs serveInputs() const override
    {
        // lookup_ starts with (first system, first scenario).
        return {&serveScenario_, &serveSystem_, lookup_.front().table, {},
                deriveSeed(seed_, 0)};
    }

private:
    /** Seeds per grid cell, as in the figure. */
    static constexpr uint64_t kSeeds = 3;

    uint64_t seed_;
    engine::SweepGrid grid_;
    engine::SweepGrid traced_;
    std::vector<LookupSet> lookup_;
    workload::Scenario serveScenario_;
    hw::SystemConfig serveSystem_;
    /** Rows of the latest pass (the reference pass checks them). */
    std::vector<engine::RunRecord> records_;
};

/**
 * search_fig10: the Figure 10 cases. For each scenario, its 7x7
 * (alpha, beta) reference grid runs through runGridPoint, then
 * engine::ParamSearch searches from the case's start; 1e6 us windows,
 * two workers, seed drawn from the workload seed.
 */
class SearchFig10 : public Workload {
public:
    explicit SearchFig10(uint64_t seed)
        : seed_(deriveSeed(seed, 0)),
          system_(hw::makeSystem(kSystem))
    {}

    SetupTimes setup() override
    {
        TimedSetup ts;
        ScopedSpan span("bench.setup");
        {
            ScopedSpan m("workload.materialise");
            const Clock::time_point t0 = Clock::now();
            system_ = hw::makeSystem(kSystem);
            scenarios_.clear();
            grids_.clear();
            traced_.clear();
            for (const auto p : presets()) {
                scenarios_.push_back(workload::makeScenario(p));
                grids_.push_back(engine::paramSpaceGrid(
                    kSystem, p, 7, engine::kSearchWindowUs, seed_));
                traced_.push_back(tracedTwin(grids_.back()));
            }
            ts.times.materialiseMs = secondsSince(t0) * 1e3;
        }
        {
            ScopedSpan b("costmodel.build");
            const Clock::time_point t0 = Clock::now();
            lookup_.clear();
            for (const auto& sc : scenarios_)
                lookup_.push_back({cost::acquireCostTable(system_, sc),
                                   scenarioLayers(sc)});
            ts.times.buildMs = secondsSince(t0) * 1e3;
        }
        return ts.finish();
    }

    Unit run(bool traced) override
    {
        Unit u;
        engine::WorkerPool pool(kWorkers);
        const Clock::time_point t0 = Clock::now();
        std::vector<engine::ParamOptimum> optima;
        std::vector<engine::RunRecord> all;
        double busy_s = 0.0, slot_s = 0.0;
        for (size_t k = 0; k < grids_.size(); ++k) {
            GridPass g = runGrid(traced ? traced_[k] : grids_[k], pool);
            busy_s += g.busyS;
            slot_s += g.slotS;
            u.simCpuS += g.pointS;
            optima.push_back(engine::bestParams(g.records));
            u.pointMs.insert(u.pointMs.end(), g.pointMs.begin(),
                             g.pointMs.end());
            all.insert(all.end(), g.records.begin(), g.records.end());
        }

        // Cases (c) and (d) share AR_Social's searcher, so (d) re-walks
        // terrain (c) simulated and hits the transposition table.
        engine::ParamSearch::Options opts;
        opts.seed = seed_;
        std::vector<std::unique_ptr<engine::ParamSearch>> searchers;
        for (const auto& sc : scenarios_)
            searchers.push_back(std::make_unique<engine::ParamSearch>(
                system_, sc, pool, opts));
        struct Case {
            size_t scenario;
            double a0, b0;
        };
        const Case cases[] = {
            {0, 1.73, 0.31}, {1, 0.17, 1.61}, {2, 1.21, 1.87}, {2, 0, 0}};
        Digest d;
        std::vector<double> ratio;
        double locked_a = 1.0, locked_b = 1.0;
        for (size_t c = 0; c < std::size(cases); ++c) {
            ScopedSpan span("engine.param_search");
            double a0 = cases[c].a0, b0 = cases[c].b0;
            if (c == 3) {  // (d) starts where (a) locked
                a0 = locked_a;
                b0 = locked_b;
            }
            const core::SearchResult r =
                searchers[cases[c].scenario]->optimize(a0, b0);
            if (c == 0) {
                locked_a = r.alpha;
                locked_b = r.beta;
            }
            for (const double v : {r.alpha, r.beta, r.cost})
                d.num(v);
            for (const auto& s : r.trajectory) {
                for (const double v : {s.alpha, s.beta, s.cost})
                    d.num(v);
            }
            for (const int v : {r.evaluations, r.simulated, r.memoHits})
                d.u64(uint64_t(v));
            ratio.push_back(r.cost / optima[cases[c].scenario].cost);
        }
        u.wallS = secondsSince(t0);
        u.busyShare = busy_s / slot_s;

        u.digest = d.h;
        // UXCost of a 1e6 us window swings ~13% between seeds, so the
        // search is judged by what it found against the grid optimum
        // (1 + the paper's "gap"); the grid's own geomean is a counter.
        u.exact["grid_uxcost"] = accountRecords(u, all);
        u.exact["uxcost"] = geomean(ratio);
        u.exact["fail_rate"] = u.exact["violated"] / u.exact["frames"];
        double sims = 0, hits = 0;
        for (const auto& s : searchers) {
            sims += double(s->simulations());
            hits += double(s->transpositionHits());
        }
        u.exact["search_simulations"] = sims;
        u.exact["search_hits"] = hits;
        records_ = std::move(all);
        return u;
    }

    void reference(Unit& first) override
    {
        engine::WorkerPool pool(kWorkers);
        std::vector<double> lat;
        size_t base = 0;
        for (const auto& grid : grids_) {
            const std::vector<engine::RunRecord> rows(
                records_.begin() + long(base),
                records_.begin() + long(base + grid.size()));
            referenceGrid(grid, rows, pool, first, lat);
            base += grid.size();
        }
        latencyStats(first.exact, lat);
    }

    std::vector<LookupSet> lookupSets() const override { return lookup_; }

    engine::SweepGrid fixedCostGrid() const override
    {
        engine::SweepGrid g;
        for (const auto p : presets())
            g.addScenario(p);
        g.addSystem(kSystem)
            .linspaceParam("alpha", 0.0, 2.0, 7)
            .linspaceParam("beta", 0.0, 2.0, 7)
            .seeds({seed_})
            .window(1.0);
        const auto sched = engine::dreamFixedParamScheduler();
        g.addScheduler(sched.name, sched.make);
        return g;
    }

    ServeInputs serveInputs() const override
    {
        return {&scenarios_.front(), &system_, lookup_.front().table, {},
                seed_};
    }

private:
    static constexpr hw::SystemPreset kSystem =
        hw::SystemPreset::Sys4k1Os2Ws;
    static std::vector<workload::ScenarioPreset> presets()
    {
        return {workload::ScenarioPreset::VrGaming,
                workload::ScenarioPreset::ArCall,
                workload::ScenarioPreset::ArSocial};
    }

    uint64_t seed_;
    hw::SystemConfig system_;
    std::vector<workload::Scenario> scenarios_;
    std::vector<engine::SweepGrid> grids_;
    std::vector<engine::SweepGrid> traced_;
    std::vector<LookupSet> lookup_;
    std::vector<engine::RunRecord> records_;
};

// ---------------------------------------------------------- serving

/**
 * Stream buffer that notes the thread CPU time at which each log line
 * starting with a prefix is written. A serve loop logs one line per
 * report interval of virtual time, so the gaps between those
 * instants are the CPU time each slice of served traffic took.
 */
class SliceClock : public std::streambuf {
public:
    explicit SliceClock(std::string prefix) : prefix_(std::move(prefix))
    {}

    void start() { lastMs_ = threadCpuMs(); }
    std::vector<double> takeSliceMs() { return std::move(sliceMs_); }

protected:
    int_type overflow(int_type c) override
    {
        if (c != traits_type::eof())
            put(char(c));
        return c;
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            put(s[i]);
        return n;
    }

private:
    void put(char c)
    {
        if (c != '\n') {
            line_ += c;
            return;
        }
        if (line_.compare(0, prefix_.size(), prefix_) == 0) {
            const double now = threadCpuMs();
            sliceMs_.push_back(now - lastMs_);
            lastMs_ = now;
        }
        line_.clear();
    }

    std::string prefix_;
    std::string line_;
    double lastMs_ = 0.0;
    std::vector<double> sliceMs_;
};

/**
 * The serving workloads' shared inputs: the stock generator's
 * scenario (Gen11) with every task's rate scaled, on 4K-2WS under
 * DREAM-Full, and its root frames over the window, open loop (each
 * task arrives at fps x rate-scale whatever completes).
 */
class ServeWorkload : public Workload {
public:
    ServeWorkload(uint64_t seed, double rate_scale, double window_us,
                  double slice_us, serve::AdmissionConfig admission)
        : simSeed_(deriveSeed(seed, 0)), rateScale_(rate_scale),
          windowUs_(window_us), sliceUs_(slice_us), admission_(admission)
    {}

    SetupTimes setup() override
    {
        TimedSetup ts;
        ScopedSpan span("bench.setup");
        {
            ScopedSpan m("workload.materialise");
            const Clock::time_point t0 = Clock::now();
            source_.reset();
            scenario_ = workload::ScenarioGenerator().generate(kGenSeed);
            for (auto& task : scenario_.tasks)
                task.fps *= rateScale_;
            system_ = hw::makeSystem(kSystem);
            source_ = std::make_unique<workload::FrameSource>(scenario_,
                                                              simSeed_);
            frames_ = source_->rootFrames(windowUs_);
            std::stable_sort(frames_.begin(), frames_.end(),
                             [](const auto& a, const auto& b) {
                                 return a.arrivalUs < b.arrivalUs;
                             });
            ts.times.materialiseMs = secondsSince(t0) * 1e3;
        }
        {
            ScopedSpan b("costmodel.build");
            const Clock::time_point t0 = Clock::now();
            costs_ = cost::acquireCostTable(system_, scenario_);
            ts.times.buildMs = secondsSince(t0) * 1e3;
        }
        return ts.finish();
    }

    std::vector<LookupSet> lookupSets() const override
    {
        return {{costs_, scenarioLayers(scenario_)}};
    }

    ServeInputs serveInputs() const override
    {
        return {&scenario_, &system_, costs_, admission_, simSeed_};
    }

    engine::SweepGrid fixedCostGrid() const override
    {
        engine::SweepGrid g;
        g.addScenario(scenario_.name,
                      [sc = scenario_] { return sc; })
            .addSystem(kSystem)
            .addScheduler(kScheduler)
            .seeds({simSeed_})
            .window(1.0);
        return g;
    }

protected:
    static constexpr hw::SystemPreset kSystem = hw::SystemPreset::Sys4k2Ws;
    static constexpr runner::SchedKind kScheduler =
        runner::SchedKind::DreamFull;

    /** Frame accounting, conservation checks and virtual-time
     *  results of one served run. */
    void account(Unit& u, const sim::RunStats& stats,
                 const serve::AdmissionStats& adm, double cpu_ms)
    {
        u.simCpuS = cpu_ms / 1e3;
        Digest d;
        digestStats(d, stats);
        for (const uint64_t v :
             {adm.offered, adm.admitted, adm.degraded, adm.rejected})
            d.u64(v);
        u.digest ^= d.h;

        FrameFacts f = frameFacts(stats, scenario_, "serve", u.errors);
        if (adm.offered != frames_.size() ||
            adm.offered != adm.admitted + adm.degraded + adm.rejected ||
            f.rootRecords != adm.admitted + adm.degraded)
            u.errors.push_back("serve: offered root frames not conserved "
                               "through admission");
        const double offered = double(f.total + adm.rejected);
        u.exact["frames"] = offered;
        u.exact["violated"] = double(f.violated);
        u.exact["drops"] = double(f.dropped);
        u.exact["admitted"] = double(adm.admitted);
        u.exact["degraded"] = double(adm.degraded);
        u.exact["rejected"] = double(adm.rejected);
        u.exact["decisions"] = double(stats.schedulerInvocations);
        u.exact["context_switches"] = double(stats.contextSwitches);
        u.exact["uxcost"] = metrics::uxCost(stats);
        u.exact["fail_rate"] =
            double(f.violated + adm.rejected) / offered;
        latencyStats(u.exact, f.latencyUs);
    }

    uint64_t simSeed_;
    double rateScale_;
    double windowUs_;
    /** Virtual-time length of one serving "point". */
    double sliceUs_;
    serve::AdmissionConfig admission_;
    workload::Scenario scenario_;
    hw::SystemConfig system_;
    std::unique_ptr<workload::FrameSource> source_;
    std::vector<workload::FrameSpec> frames_;
    std::shared_ptr<const cost::CostTable> costs_;
};

/**
 * serve_overload: serve::Cluster with 8 devices behind the
 * finish-time-fairness router, Gen11 at rate-scale 8 and no
 * admission bound, so the live backlog grows for the whole window.
 */
class ServeOverload : public ServeWorkload {
public:
    explicit ServeOverload(uint64_t seed)
        : ServeWorkload(seed, 8.0, 1e7, 1e5, {})
    {}

    Unit run(bool traced) override
    {
        Unit u;
        workload::StreamSource intake(*source_);
        for (const auto& f : frames_)
            intake.push(f);
        intake.close();

        SliceClock slices("[serve/dev0] ");
        std::ostream log(&slices);
        serve::ClusterConfig cfg;
        cfg.devices = kDevices;
        cfg.router = serve::RouterPolicy::FinishTimeFairness;
        cfg.serve.windowUs = windowUs_;
        cfg.serve.seed = simSeed_;
        cfg.serve.reportIntervalUs = sliceUs_;
        cfg.serve.log = &log;

        serve::ClusterResult result;
        double cpu_ms = 0.0;
        {
            ScopedSpan span("serve.cluster_run");
            const Clock::time_point t0 = Clock::now();
            const double c0 = threadCpuMs();
            slices.start();
            serve::Cluster cluster(system_, scenario_, *costs_, cfg);
            result = cluster.run(
                [traced] {
                    return maybeTimed(runner::makeScheduler(kScheduler),
                                      traced);
                },
                intake);
            u.wallS = secondsSince(t0);
            cpu_ms = threadCpuMs() - c0;
        }
        u.pointMs = slices.takeSliceMs();

        Digest d;
        for (const int a : result.assignment)
            d.u64(uint64_t(int64_t(a)));
        for (const double r : result.fairnessRatio)
            d.num(r);
        for (const auto& dev : result.devices) {
            digestStats(d, dev.stats);
            for (const auto& s : dev.snapshots) {
                for (const double v : {s.tUs, s.p50Us, s.p99Us,
                                       s.violationRate, s.backlogUs})
                    d.num(v);
            }
        }
        u.digest = d.h;
        account(u, result.stats, result.admission, cpu_ms);

        double routed = 0, lo = 0, hi = 0;
        for (const int a : result.assignment)
            routed += a >= 0 ? 1 : 0;
        for (size_t k = 0; k < result.devices.size(); ++k) {
            const double n = double(result.devices[k].stats.totalFrames());
            u.exact["dev" + std::to_string(k) + "_frames"] = n;
            lo = k == 0 ? n : std::min(lo, n);
            hi = std::max(hi, n);
        }
        u.exact["route_decisions"] = routed;
        u.exact["device_frames_min"] = lo;
        u.exact["device_frames_max"] = hi;
        u.exact["fairness_spread"] = result.fairnessSpread;
        return u;
    }

private:
    static constexpr size_t kDevices = 8;
};

/**
 * serve_admit: one device driven through ServeLoop's incremental
 * begin/offer/advanceTo/finish calls, Gen11 at rate-scale 4, with
 * admission (max_queue 48, max_backlog_us 3e5, overload "degrade").
 */
class ServeAdmit : public ServeWorkload {
public:
    explicit ServeAdmit(uint64_t seed)
        : ServeWorkload(seed, 4.0, 5e7, 1e6, admission())
    {}

    Unit run(bool traced) override
    {
        Unit u;
        serve::ServeConfig cfg;
        cfg.windowUs = windowUs_;
        cfg.seed = simSeed_;
        cfg.admission = admission_;
        serve::ServeLoop loop(system_, scenario_, *costs_, cfg);
        auto sched =
            maybeTimed(runner::makeScheduler(kScheduler), traced);

        serve::ServeResult result;
        double cpu_ms = 0.0;
        {
            ScopedSpan span("serve.session");
            const Clock::time_point t0 = Clock::now();
            const double c0 = threadCpuMs();
            double slice0 = c0;
            const auto endSlice = [&] {
                const double now = threadCpuMs();
                u.pointMs.push_back(now - slice0);
                slice0 = now;
            };
            loop.begin(*sched, *source_);
            double next = sliceUs_;
            for (const auto& f : frames_) {
                for (; next < windowUs_ && f.arrivalUs >= next;
                     next += sliceUs_) {
                    loop.advanceTo(next);
                    endSlice();
                }
                loop.offer(f);
            }
            for (; next < windowUs_; next += sliceUs_) {
                loop.advanceTo(next);
                endSlice();
            }
            result = loop.finish();
            endSlice();
            u.wallS = secondsSince(t0);
            cpu_ms = slice0 - c0;
            sched.reset();
        }
        for (const auto& s : result.snapshots) {
            Digest d;
            for (const double v : {s.tUs, s.p50Us, s.p99Us,
                                   s.violationRate, s.rejectRate,
                                   s.backlogUs})
                d.num(v);
            u.digest = u.digest * 1099511628211ull ^ d.h;
        }
        account(u, result.stats, result.admission, cpu_ms);
        return u;
    }

private:
    static serve::AdmissionConfig admission()
    {
        serve::AdmissionConfig a;
        a.maxQueueDepth = 48;
        a.maxBacklogUs = 3e5;
        a.policy = serve::OverloadPolicy::Degrade;
        return a;
    }
};

} // namespace

ServeCallTimes
serveCallRung(const ServeInputs& in, double seconds)
{
    ScopedSpan span("rung.serve_calls");
    constexpr double kWindowUs = 2e6;
    constexpr double kStepUs = 1e5;
    const workload::FrameSource source(*in.scenario, in.seed);
    auto frames = source.rootFrames(kWindowUs);
    std::stable_sort(frames.begin(), frames.end(),
                     [](const auto& a, const auto& b) {
                         return a.arrivalUs < b.arrivalUs;
                     });
    ServeCallTimes t;
    uint64_t offers = 0, advances = 0;
    double offer_s = 0.0, advance_s = 0.0;
    const Clock::time_point t0 = Clock::now();
    do {
        serve::ServeConfig cfg;
        cfg.windowUs = kWindowUs;
        cfg.seed = in.seed;
        cfg.admission = in.admission;
        serve::ServeLoop loop(*in.system, *in.scenario, *in.costs, cfg);
        const auto sched =
            runner::makeScheduler(runner::SchedKind::DreamFull);
        loop.begin(*sched, source);
        double next = kStepUs;
        for (const auto& f : frames) {
            for (; next < kWindowUs && f.arrivalUs >= next;
                 next += kStepUs) {
                const Clock::time_point a0 = Clock::now();
                loop.advanceTo(next);
                const double s = secondsSince(a0);
                t.advanceUs.record(s * 1e6);
                advance_s += s;
                advances += 1;
            }
            const Clock::time_point o0 = Clock::now();
            loop.offer(f);
            const double s = secondsSince(o0);
            t.offerUs.record(s * 1e6);
            offer_s += s;
            offers += 1;
        }
        loop.finish();
    } while (secondsSince(t0) < seconds);
    Tracer::global().addCalls(span.id(), "serve.offer", offers, offer_s);
    Tracer::global().addCalls(span.id(), "serve.advance", advances,
                              advance_s);
    return t;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, uint64_t seed)
{
    if (name == "sweep_fig07")
        return std::make_unique<SweepFig07>(seed);
    if (name == "search_fig10")
        return std::make_unique<SearchFig10>(seed);
    if (name == "serve_overload")
        return std::make_unique<ServeOverload>(seed);
    if (name == "serve_admit")
        return std::make_unique<ServeAdmit>(seed);
    return nullptr;
}

} // namespace perfbench
