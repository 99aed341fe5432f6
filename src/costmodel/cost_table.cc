#include "costmodel/cost_table.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <tuple>

namespace dream {
namespace cost {

size_t
LayerKeyHash::operator()(const LayerKey& k) const
{
    size_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(k.kind);
    mix(k.inH);
    mix(k.inW);
    mix(k.inC);
    mix(k.outC);
    mix((uint64_t(k.kH) << 32) | k.kW);
    mix((uint64_t(k.stride) << 32) | k.groups);
    mix(k.repeat);
    return h;
}

bool
operator<(const LayerKey& a, const LayerKey& b)
{
    return std::tie(a.kind, a.inH, a.inW, a.inC, a.outC, a.kH, a.kW,
                    a.stride, a.groups, a.repeat) <
           std::tie(b.kind, b.inH, b.inW, b.inC, b.outC, b.kH, b.kW,
                    b.stride, b.groups, b.repeat);
}

LayerKey
makeKey(const models::Layer& layer)
{
    return LayerKey{uint32_t(layer.kind), layer.inH,    layer.inW,
                    layer.inC,            layer.outC,   layer.kH,
                    layer.kW,             layer.stride, layer.groups,
                    layer.repeat};
}

CostTable::CostTable(const hw::SystemConfig& system,
                     const std::vector<const models::Model*>& models)
    : system_(system)
{
    assert(!system_.accelerators.empty());
    for (const models::Model* model : models) {
        for (const auto& l : model->layers)
            addLayer(l);
        for (const auto& v : model->variants) {
            for (const auto& l : v.bodyLayers)
                addLayer(l);
        }
    }
}

void
CostTable::addLayer(const models::Layer& layer)
{
    const LayerKey key = makeKey(layer);
    if (cache_.count(key))
        return;

    Entry e;
    e.byAccel.resize(system_.size());
    for (size_t a = 0; a < system_.size(); ++a) {
        const auto& acc = system_.accelerators[a];
        e.byAccel[a].resize(acc.numSlices);
        for (uint32_t s = 1; s <= acc.numSlices; ++s)
            e.byAccel[a][s - 1] = estimateLayer(layer, acc, s);
    }
    // Aggregates over the full-slice column, accumulated in ascending
    // accelerator order — the exact order of the former per-call
    // loops, so the precomputed values are bit-identical to them.
    e.agg.minLatencyUs = e.byAccel[0].back().latencyUs;
    e.agg.maxEnergyMj = e.byAccel[0].back().energyMj;
    for (size_t a = 0; a < system_.size(); ++a) {
        const LayerCost& full = e.byAccel[a].back();
        e.agg.sumLatencyUs += full.latencyUs;
        e.agg.sumEnergyMj += full.energyMj;
        if (a > 0) {
            e.agg.minLatencyUs =
                std::min(e.agg.minLatencyUs, full.latencyUs);
            e.agg.maxEnergyMj =
                std::max(e.agg.maxEnergyMj, full.energyMj);
        }
    }
    e.agg.avgLatencyUs = e.agg.sumLatencyUs / double(system_.size());
    cache_.emplace(key, std::move(e));
}

const CostTable::Entry&
CostTable::entryFor(const models::Layer& layer) const
{
    auto it = cache_.find(makeKey(layer));
    if (it == cache_.end())
        throw std::logic_error(
            "layer missing from cost table (not in any model the "
            "table was built for)");
    return it->second;
}

const LayerCost&
CostTable::cost(const models::Layer& layer, size_t acc) const
{
    return cost(layer, acc, system_.accelerators[acc].numSlices);
}

const LayerCost&
CostTable::cost(const models::Layer& layer, size_t acc,
                uint32_t slices) const
{
    assert(acc < system_.size());
    assert(slices >= 1 && slices <= system_.accelerators[acc].numSlices);
    return entryFor(layer).byAccel[acc][slices - 1];
}

double
CostTable::avgLatencyUs(const models::Layer& layer) const
{
    return entryFor(layer).agg.avgLatencyUs;
}

double
CostTable::sumLatencyUs(const models::Layer& layer) const
{
    return entryFor(layer).agg.sumLatencyUs;
}

double
CostTable::minLatencyUs(const models::Layer& layer) const
{
    return entryFor(layer).agg.minLatencyUs;
}

double
CostTable::sumEnergyMj(const models::Layer& layer) const
{
    return entryFor(layer).agg.sumEnergyMj;
}

double
CostTable::maxEnergyMj(const models::Layer& layer) const
{
    return entryFor(layer).agg.maxEnergyMj;
}

} // namespace cost
} // namespace dream
