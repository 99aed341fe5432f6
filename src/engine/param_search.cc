#include "engine/param_search.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "core/dream_config.h"

namespace dream {
namespace engine {

ParamSearch::ParamSearch(const hw::SystemConfig& system,
                         const workload::Scenario& scenario,
                         const WorkerPool& pool, Options opts)
    : ParamSearch(makeBatchEvaluator(system, scenario, pool,
                                     opts.objective, opts.seed))
{
}

ParamSearch::ParamSearch(const hw::SystemConfig& system,
                         const workload::Scenario& scenario,
                         const WorkerPool& pool)
    : ParamSearch(system, scenario, pool, Options())
{
}

ParamSearch::ParamSearch(core::BatchCostFn evaluate)
    : evaluate_(std::move(evaluate))
{
}

std::vector<double>
ParamSearch::evaluate(const std::vector<std::pair<double, double>>& pts)
{
    std::vector<PointKey> keys(pts.size());
    std::vector<PointKey> missing_keys;
    std::vector<std::pair<double, double>> missing;
    for (size_t i = 0; i < pts.size(); ++i) {
        keys[i] = {std::bit_cast<uint64_t>(pts[i].first),
                   std::bit_cast<uint64_t>(pts[i].second)};
        // A point already in the table, or repeated earlier in this
        // batch, is a hit: only first occurrences of missing points
        // are evaluated.
        if (table_.count(keys[i]) != 0 ||
            std::find(missing_keys.begin(), missing_keys.end(),
                      keys[i]) != missing_keys.end()) {
            ++hits_;
            continue;
        }
        missing_keys.push_back(keys[i]);
        missing.push_back(pts[i]);
    }
    if (!missing.empty()) {
        const std::vector<double> costs = evaluate_(missing);
        assert(costs.size() == missing.size());
        simulations_ += missing.size();
        for (size_t k = 0; k < missing.size(); ++k)
            table_.emplace(missing_keys[k], costs[k]);
    }
    std::vector<double> out;
    out.reserve(pts.size());
    for (const PointKey& k : keys)
        out.push_back(table_.at(k));
    return out;
}

core::SearchResult
ParamSearch::optimize(double a0, double b0)
{
    const core::DreamConfig config;
    const auto clamp = [&config](double v) {
        return std::min(config.paramMax, std::max(config.paramMin, v));
    };
    const auto eval1 = [this](double a, double b) {
        return evaluate({{a, b}}).front();
    };
    const uint64_t hits0 = hits_;
    const uint64_t sims0 = simulations_;

    core::SearchResult result;
    double a = clamp(a0);
    double b = clamp(b0);
    double c = eval1(a, b);
    ++result.evaluations;
    result.trajectory.push_back({a, b, c, config.initialRadius, 0});

    double best_a = a, best_b = b, best_c = c;
    int step = 0;
    for (double radius = config.initialRadius;
         radius >= config.radiusThreshold; radius *= 0.5) {
        ++step;
        // Neighbouring pairs at the radius plus distant pairs at twice
        // the radius (diagonals), Section 3.6. The candidates of one
        // step are independent: evaluate them as one batch.
        const double r2 = 2.0 * radius;
        const std::vector<std::pair<double, double>> pts = {
            {clamp(a + radius), clamp(b)}, {clamp(a - radius), clamp(b)},
            {clamp(a), clamp(b + radius)}, {clamp(a), clamp(b - radius)},
            {clamp(a + r2), clamp(b + r2)}, {clamp(a - r2), clamp(b + r2)},
            {clamp(a + r2), clamp(b - r2)}, {clamp(a - r2), clamp(b - r2)},
        };
        const std::vector<double> costs = evaluate(pts);
        result.evaluations += int(pts.size());

        // Current + candidates; keep the two minima in batch order.
        double c1a = a, c1b = b, c1c = c;
        double c2a = a, c2b = b, c2c = std::numeric_limits<double>::max();
        for (size_t i = 0; i < pts.size(); ++i) {
            const double pa = pts[i].first;
            const double pb = pts[i].second;
            const double pc = costs[i];
            if (pc < c1c) {
                c2a = c1a; c2b = c1b; c2c = c1c;
                c1a = pa; c1b = pb; c1c = pc;
            } else if (pc < c2c) {
                c2a = pa; c2b = pb; c2c = pc;
            }
        }

        // Move to the interpolation of the two minimum pairs.
        const double ia = clamp(0.5 * (c1a + c2a));
        const double ib = clamp(0.5 * (c1b + c2b));
        const double ic = eval1(ia, ib);
        ++result.evaluations;
        if (ic <= c1c) {
            a = ia; b = ib; c = ic;
        } else {
            a = c1a; b = c1b; c = c1c;
        }
        if (c < best_c) {
            best_a = a; best_b = b; best_c = c;
        }
        result.trajectory.push_back({a, b, c, radius, step});
    }

    result.alpha = best_a;
    result.beta = best_b;
    result.cost = best_c;
    result.memoHits = int(hits_ - hits0);
    result.simulated = int(simulations_ - sims0);
    return result;
}

} // namespace engine
} // namespace dream
