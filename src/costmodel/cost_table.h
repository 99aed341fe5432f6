/**
 * @file
 * Precomputed latency/energy tables for a target system.
 *
 * DREAM's inputs include "latency and energy information for each layer
 * for each accelerator in the system generated offline using a cost
 * model or a simulator" (Section 4, Figure 4). CostTable is that
 * artefact: it memoises estimateLayer() for every (layer shape,
 * accelerator, slice allocation) and offers the aggregate queries the
 * scoring algorithms need (average / sum / min across accelerators).
 *
 * Every entry also carries its cross-accelerator aggregates
 * (LayerAgg), computed once when the entry is built, and view()
 * exposes an entry through a single hash lookup — the scoring hot
 * path (MapScore line 8/9/13 needs per-accelerator AND aggregate
 * costs of the same layer) pays one lookup per layer instead of one
 * per query.
 *
 * A table is built whole at construction, for every layer of the
 * models it covers (Supernet variant bodies included), and never
 * changes afterwards: a lookup of any other layer throws. Concurrent
 * const lookups therefore never mutate, so one table may be shared
 * across threads, which is what CostTableCache hands out.
 */

#ifndef DREAM_COSTMODEL_COST_TABLE_H
#define DREAM_COSTMODEL_COST_TABLE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "costmodel/layer_cost.h"
#include "hw/system.h"
#include "models/model.h"

namespace dream {
namespace cost {

/** Shape key identifying a layer for memoisation. */
struct LayerKey {
    uint32_t kind, inH, inW, inC, outC, kH, kW, stride, groups, repeat;

    bool operator==(const LayerKey&) const = default;
};

/** Total order over LayerKey (canonical model-set serialisation). */
bool operator<(const LayerKey& a, const LayerKey& b);

/** FNV-1a style hash for LayerKey. */
struct LayerKeyHash {
    size_t operator()(const LayerKey& k) const;
};

/** Make the memoisation key for a layer. */
LayerKey makeKey(const models::Layer& layer);

/**
 * Cross-accelerator aggregates of one layer's full-slice costs,
 * precomputed when the layer's entry is built. Values are computed
 * with the exact accumulation order of the original per-call loops
 * (ascending accelerator index), so switching callers to the
 * precomputed fields is bit-identical.
 */
struct LayerAgg {
    double avgLatencyUs = 0.0;
    double sumLatencyUs = 0.0;
    double minLatencyUs = 0.0;
    double sumEnergyMj = 0.0;
    double maxEnergyMj = 0.0;
};

/**
 * Immutable latency/energy lookup for one target system and the
 * models it covers.
 *
 * The constructor computes the full (accelerator x slice) cost matrix
 * of every layer on every path of @p models, offline, matching the
 * paper's flow. Every lookup is const and non-mutating; a lookup of a
 * layer outside the covered models throws std::logic_error.
 */
class CostTable {
public:
    CostTable(const hw::SystemConfig& system,
              const std::vector<const models::Model*>& models);

    /** Number of accelerators in the target system. */
    size_t numAccelerators() const { return system_.size(); }
    /** The target system. */
    const hw::SystemConfig& system() const { return system_; }
    /** Number of distinct layer shapes cached. */
    size_t numLayers() const { return cache_.size(); }

    /** Cost of @p layer on accelerator @p acc with all slices. */
    const LayerCost& cost(const models::Layer& layer, size_t acc) const;
    /** Cost of @p layer on accelerator @p acc with @p slices slices. */
    const LayerCost& cost(const models::Layer& layer, size_t acc,
                          uint32_t slices) const;

    /** Mean full-slice latency of @p layer across accelerators. */
    double avgLatencyUs(const models::Layer& layer) const;
    /** Sum of full-slice latencies of @p layer across accelerators. */
    double sumLatencyUs(const models::Layer& layer) const;
    /** Minimum full-slice latency of @p layer across accelerators. */
    double minLatencyUs(const models::Layer& layer) const;
    /** Sum of full-slice energies of @p layer across accelerators. */
    double sumEnergyMj(const models::Layer& layer) const;
    /** Worst-case (max across accelerators) energy of @p layer. */
    double maxEnergyMj(const models::Layer& layer) const;

private:
    /** Per-layer cost matrix: [accelerator][slices-1]. */
    struct Entry {
        std::vector<std::vector<LayerCost>> byAccel;
        LayerAgg agg;
    };

public:
    /**
     * One layer's entry behind a single hash lookup: per-accelerator
     * costs plus the precomputed aggregates. Valid as long as the
     * table lives (entries are never erased).
     */
    class LayerView {
    public:
        /** Cost on accelerator @p acc with all slices. */
        const LayerCost& cost(size_t acc) const
        {
            return entry_->byAccel[acc].back();
        }
        /** Cost on accelerator @p acc with @p slices slices. */
        const LayerCost& cost(size_t acc, uint32_t slices) const
        {
            return entry_->byAccel[acc][slices - 1];
        }
        /** The precomputed cross-accelerator aggregates. */
        const LayerAgg& agg() const { return entry_->agg; }

    private:
        friend class CostTable;
        explicit LayerView(const Entry* entry) : entry_(entry) {}
        const Entry* entry_;
    };

    /** The entry for @p layer (throws if the table does not cover it). */
    LayerView view(const models::Layer& layer) const
    {
        return LayerView(&entryFor(layer));
    }

private:
    void addLayer(const models::Layer& layer);
    const Entry& entryFor(const models::Layer& layer) const;

    hw::SystemConfig system_;
    std::unordered_map<LayerKey, Entry, LayerKeyHash> cache_;
};

} // namespace cost
} // namespace dream

#endif // DREAM_COSTMODEL_COST_TABLE_H
