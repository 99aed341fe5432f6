#include "workload/scenario_gen.h"

#include <cassert>
#include <cmath>
#include <cstdlib>

#include "costmodel/cost_table_cache.h"
#include "hw/system.h"
#include "models/zoo.h"
#include "workload/rng.h"

namespace dream {
namespace workload {

namespace {

/** Deterministic random stream (platform-independent). */
class GenRng {
public:
    explicit GenRng(uint64_t seed) : state_(rng::splitmix64(seed)) {}

    /** Uniform double in [0, 1). */
    double uniform() { return rng::nextUniform(state_); }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). */
    size_t
    index(size_t n)
    {
        assert(n > 0);
        return size_t(uniform() * double(n)) % n;
    }

private:
    uint64_t state_;
};

/** The full model zoo as a pool. */
std::vector<models::Model>
zooPool()
{
    using namespace models::zoo;
    return {fbnetC(),       ssdMobileNetV2(), handPoseNet(),
            ofaSupernet(),  kwsRes8(),        gnmt(),
            skipNet(),      trailNet(),       sosNet(),
            rapidRl(),      googLeNetCar(),   focalLengthDepth(),
            edTcn(),        vggVoxCeleb()};
}

/** Standard camera/display/audio frame rates within [lo, hi]. */
std::vector<double>
standardRates(double lo, double hi)
{
    std::vector<double> out;
    for (const double fps : {5.0, 10.0, 15.0, 20.0, 30.0, 45.0, 60.0,
                             90.0, 120.0}) {
        if (fps >= lo && fps <= hi)
            out.push_back(fps);
    }
    return out;
}

/** The system the target-load bias is costed on. */
hw::SystemConfig
loadSystemFor(const ScenarioGenSpec& spec)
{
    if (spec.loadSystem.empty())
        return hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    for (const auto preset : hw::allSystemPresets()) {
        if (hw::toString(preset) == spec.loadSystem)
            return hw::makeSystem(preset);
    }
    // validateGenSpec rejects unknown names before a generator is
    // built; reaching this is a caller bug.
    assert(false && "unknown loadSystem preset name");
    std::abort();
}

} // anonymous namespace

ScenarioGenerator::ScenarioGenerator(ScenarioGenSpec spec)
    : spec_(std::move(spec))
{
    assert(spec_.minTasks >= 1 && spec_.minTasks <= spec_.maxTasks);
    assert(spec_.minFps > 0.0 && spec_.minFps <= spec_.maxFps);
    if (spec_.pool.empty())
        spec_.pool = zooPool();

    if (spec_.supernetProb >= 0.0) {
        for (size_t i = 0; i < spec_.pool.size(); ++i) {
            (spec_.pool[i].isSupernet() ? supernetPool_ : plainPool_)
                .push_back(i);
        }
    }

    if (spec_.targetLoad > 0.0) {
        // Cost the whole pool once, through the process-wide table
        // cache: a probe scenario holding every pool model keys ONE
        // shared table, reused by every generator with the
        // same (loadSystem, pool) — and by the thousands of
        // candidate specs a scenario hunt generates.
        const hw::SystemConfig system = loadSystemFor(spec_);
        Scenario probe;
        probe.name = "load-probe";
        for (const auto& m : spec_.pool) {
            TaskSpec t;
            t.model = m;
            probe.tasks.push_back(std::move(t));
        }
        const auto table = cost::acquireCostTable(system, probe);
        poolLatencySec_.reserve(spec_.pool.size());
        for (const auto& m : spec_.pool) {
            double sum_us = 0.0;
            for (const auto& l : m.layers)
                sum_us += table->avgLatencyUs(l);
            poolLatencySec_.push_back(sum_us / 1e6);
        }
    }
}

Scenario
ScenarioGenerator::generate(uint64_t seed) const
{
    GenRng rng(seed);
    Scenario s;
    s.name = "Gen" + std::to_string(seed);

    const int span = spec_.maxTasks - spec_.minTasks + 1;
    const int n_tasks = spec_.minTasks + int(rng.index(size_t(span)));

    auto rates = standardRates(spec_.minFps, spec_.maxFps);
    if (rates.empty())
        rates.push_back(spec_.minFps);

    double load_so_far = 0.0;
    for (int i = 0; i < n_tasks; ++i) {
        TaskSpec t;

        // Model draw. With the Supernet knob, presence is decided
        // first and the model comes from the matching subset; with a
        // load target, a few candidates are drawn and the one whose
        // best standard rate lands closest to an even share of the
        // remaining target wins.
        const std::vector<size_t>* subset = nullptr;
        if (spec_.supernetProb >= 0.0) {
            const bool super = rng.uniform() < spec_.supernetProb;
            subset = super ? &supernetPool_ : &plainPool_;
            if (subset->empty())
                subset = nullptr;
        }
        const auto draw_model = [&]() {
            return subset ? (*subset)[rng.index(subset->size())]
                          : rng.index(spec_.pool.size());
        };
        size_t model_idx = draw_model();

        if (spec_.targetLoad > 0.0) {
            const double ideal =
                (spec_.targetLoad - load_so_far) / double(n_tasks - i);
            // Closest standard rate to the ideal per-task load for a
            // given model latency; the residual distance rates the
            // candidate.
            const auto best_fit = [&](size_t idx, double* err) {
                const double lat = poolLatencySec_[idx];
                double fps = rates[0];
                double best = std::abs(rates[0] * lat - ideal);
                for (const double r : rates) {
                    const double e = std::abs(r * lat - ideal);
                    if (e < best) {
                        best = e;
                        fps = r;
                    }
                }
                *err = best;
                return fps;
            };
            double err = 0.0;
            double fps = best_fit(model_idx, &err);
            for (int c = 0; c < 2; ++c) {
                const size_t cand = draw_model();
                double cand_err = 0.0;
                const double cand_fps = best_fit(cand, &cand_err);
                if (cand_err < err) {
                    err = cand_err;
                    fps = cand_fps;
                    model_idx = cand;
                }
            }
            t.fps = fps;
            load_so_far += fps * poolLatencySec_[model_idx];
        } else {
            t.fps = rates[rng.index(rates.size())];
        }
        t.model = spec_.pool[model_idx];

        // Dependencies only point at earlier tasks, so the dependency
        // graph is a forest by construction (chains and trees arise
        // from several tasks picking the same or chained parents).
        if (i > 0 && rng.uniform() < spec_.chainProb) {
            t.dependsOn = TaskId(rng.index(size_t(i)));
            t.triggerProb = rng.uniform(spec_.minTriggerProb,
                                        spec_.maxTriggerProb);
        }
        if (rng.uniform() < spec_.activationProb) {
            t.startUs = rng.uniform(0.0, 0.5 * spec_.horizonUs);
            t.endUs = t.startUs +
                      rng.uniform(0.25, 0.75) * spec_.horizonUs;
        }

        // Operator-level dynamicity overrides: one probability per
        // task, applied to every gate of its model. The draw happens
        // whenever the knob is enabled (even for models without
        // gates), so the stream position of later draws depends only
        // on the spec, never on which model was picked upstream.
        if (spec_.skipProbMin >= 0.0) {
            const double p = rng.uniform(spec_.skipProbMin,
                                         spec_.skipProbMax);
            for (auto& blk : t.model.skipBlocks)
                blk.skipProb = p;
        }
        if (spec_.exitProbMin >= 0.0) {
            const double p = rng.uniform(spec_.exitProbMin,
                                         spec_.exitProbMax);
            for (auto& exit : t.model.earlyExits)
                exit.exitProb = p;
        }
        s.tasks.push_back(std::move(t));
    }

    assert(validateScenario(s));
    return s;
}

bool
validateGenSpec(const ScenarioGenSpec& spec, std::string* error)
{
    const auto fail = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return false;
    };
    // NaN-proof interval check: lo <= v <= hi must be TRUE, so a NaN
    // (which fails every comparison) is rejected, never waved
    // through by a "not out of range" formulation.
    const auto in_range = [](double v, double lo, double hi) {
        return v >= lo && v <= hi;
    };

    if (spec.minTasks < 1 || spec.minTasks > spec.maxTasks)
        return fail("task count range invalid (want 1 <= minTasks <= "
                    "maxTasks)");
    if (!(spec.minFps > 0.0) || !std::isfinite(spec.minFps) ||
        !std::isfinite(spec.maxFps) || !(spec.minFps <= spec.maxFps))
        return fail("fps range must be finite with 0 < minFps <= "
                    "maxFps");
    if (!in_range(spec.chainProb, 0.0, 1.0))
        return fail("chainProb outside [0,1]");
    if (!in_range(spec.minTriggerProb, 0.0, 1.0) ||
        !in_range(spec.maxTriggerProb, 0.0, 1.0) ||
        !(spec.minTriggerProb <= spec.maxTriggerProb))
        return fail("trigger probability range invalid (want 0 <= "
                    "min <= max <= 1)");
    if (!in_range(spec.activationProb, 0.0, 1.0))
        return fail("activationProb outside [0,1]");
    if (!(spec.horizonUs > 0.0) || !std::isfinite(spec.horizonUs))
        return fail("horizonUs must be finite and > 0");

    // Override ranges: both ends disabled (-1) or both a valid
    // ordered probability interval — a half-set range is a typo.
    const auto check_override = [&](double lo, double hi) {
        if (lo == -1.0 && hi == -1.0)
            return true;
        return in_range(lo, 0.0, 1.0) && in_range(hi, 0.0, 1.0) &&
               lo <= hi;
    };
    if (!check_override(spec.skipProbMin, spec.skipProbMax))
        return fail("skip probability override invalid (want both -1, "
                    "or 0 <= min <= max <= 1)");
    if (!check_override(spec.exitProbMin, spec.exitProbMax))
        return fail("early-exit probability override invalid (want "
                    "both -1, or 0 <= min <= max <= 1)");
    if (spec.supernetProb != -1.0 &&
        !in_range(spec.supernetProb, 0.0, 1.0))
        return fail("supernetProb invalid (want -1, or in [0,1])");
    if (!in_range(spec.targetLoad, 0.0, 1e6) ||
        !std::isfinite(spec.targetLoad))
        return fail("targetLoad must be finite and >= 0");
    if (!spec.loadSystem.empty()) {
        bool known = false;
        for (const auto preset : hw::allSystemPresets())
            known = known || hw::toString(preset) == spec.loadSystem;
        if (!known)
            return fail("unknown loadSystem preset name '" +
                        spec.loadSystem + "'");
    }
    return true;
}

bool
validateScenario(const Scenario& scenario, std::string* error)
{
    const auto fail = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return false;
    };

    if (scenario.tasks.empty())
        return fail("scenario has no tasks");

    const TaskId n = TaskId(scenario.tasks.size());
    for (TaskId t = 0; t < n; ++t) {
        const auto& spec = scenario.tasks[t];
        const std::string where =
            "task " + std::to_string(t) + " (" + spec.model.name + ")";
        if (!(spec.fps > 0.0) || !std::isfinite(spec.fps))
            return fail(where + ": fps must be finite and > 0");
        if (spec.model.layers.empty())
            return fail(where + ": model has no layers");
        if (spec.dependsOn != kNoParent &&
            (spec.dependsOn < 0 || spec.dependsOn >= n))
            return fail(where + ": dependency out of range");
        if (spec.dependsOn == t)
            return fail(where + ": depends on itself");
        if (!(spec.triggerProb >= 0.0 && spec.triggerProb <= 1.0))
            return fail(where + ": trigger probability outside [0,1]");
        if (spec.dependsOn == kNoParent && spec.triggerProb != 1.0)
            return fail(where + ": trigger probability set on a task "
                                "with no dependency (roots must keep "
                                "the inert default 1)");
        if (!(spec.startUs < spec.endUs))
            return fail(where + ": empty activation window");
        if (spec.startUs < 0.0)
            return fail(where + ": negative activation start");
    }

    // Acyclic: follow each task's parent chain; any chain longer than
    // the task count must contain a cycle.
    for (TaskId t = 0; t < n; ++t) {
        TaskId cur = t;
        for (TaskId hops = 0; scenario.tasks[cur].dependsOn != kNoParent;
             ++hops) {
            cur = scenario.tasks[cur].dependsOn;
            if (hops >= n) {
                return fail("dependency cycle through task " +
                            std::to_string(t));
            }
        }
    }
    return true;
}

} // namespace workload
} // namespace dream
