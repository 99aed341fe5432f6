/** @file Tests for the memoised cost table. */

#include <stdexcept>

#include <gtest/gtest.h>

#include "costmodel/cost_table.h"
#include "costmodel/layer_cost.h"
#include "hw/system.h"
#include "models/zoo.h"

namespace dream {
namespace {

/** A model whose only layer is @p layer. */
models::Model
oneLayerModel(const models::Layer& layer)
{
    models::Model m;
    m.name = layer.name;
    m.layers = {layer};
    return m;
}

TEST(CostTable, MatchesDirectEstimates)
{
    const auto sys = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto l = models::conv("c", 56, 56, 64, 128, 3, 1);
    const auto m = oneLayerModel(l);
    const cost::CostTable table(sys, {&m});
    EXPECT_EQ(table.numLayers(), 1u);
    for (size_t a = 0; a < sys.size(); ++a) {
        for (uint32_t s = 1; s <= sys.accelerators[a].numSlices; ++s) {
            const auto direct =
                cost::estimateLayer(l, sys.accelerators[a], s);
            const auto& cached = table.cost(l, a, s);
            EXPECT_DOUBLE_EQ(cached.latencyUs, direct.latencyUs);
            EXPECT_DOUBLE_EQ(cached.energyMj, direct.energyMj);
        }
    }
}

TEST(CostTable, AggregatesAreConsistent)
{
    const auto sys = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    const auto l = models::fc("fc", 1024, 4096);
    const auto m = oneLayerModel(l);
    const cost::CostTable table(sys, {&m});
    double sum = 0.0, min_lat = 1e300, sum_e = 0.0, max_e = 0.0;
    for (size_t a = 0; a < sys.size(); ++a) {
        const auto& c = table.cost(l, a);
        sum += c.latencyUs;
        min_lat = std::min(min_lat, c.latencyUs);
        sum_e += c.energyMj;
        max_e = std::max(max_e, c.energyMj);
    }
    EXPECT_DOUBLE_EQ(table.sumLatencyUs(l), sum);
    EXPECT_DOUBLE_EQ(table.avgLatencyUs(l), sum / double(sys.size()));
    EXPECT_DOUBLE_EQ(table.minLatencyUs(l), min_lat);
    EXPECT_DOUBLE_EQ(table.sumEnergyMj(l), sum_e);
    EXPECT_DOUBLE_EQ(table.maxEnergyMj(l), max_e);
}

TEST(CostTable, KeyDistinguishesShapes)
{
    const auto a = models::conv("a", 56, 56, 64, 128, 3, 1);
    auto b = a;
    b.stride = 2;
    EXPECT_FALSE(cost::makeKey(a) == cost::makeKey(b));
    auto c = a;
    c.name = "renamed"; // name is not part of the key
    EXPECT_TRUE(cost::makeKey(a) == cost::makeKey(c));
}

TEST(CostTable, ConstructorCoversEveryVariantPath)
{
    const auto sys = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto m = models::zoo::ofaSupernet();
    ASSERT_TRUE(m.isSupernet());
    const cost::CostTable table(sys, {&m});
    // Every layer on every variant path (and on every accelerator and
    // slice count) is servable without throwing.
    for (size_t v = 0; v <= m.variants.size(); ++v) {
        for (const auto& l : m.variantPath(v)) {
            for (size_t a = 0; a < sys.size(); ++a) {
                EXPECT_GT(table.cost(l, a).latencyUs, 0.0);
                EXPECT_GT(table.cost(l, a, 1).latencyUs, 0.0);
            }
        }
    }
}

TEST(CostTable, ForeignLayerThrows)
{
    // A table covers exactly the models it was built for: a shape
    // outside them throws rather than extending a table other threads
    // may be reading.
    const auto sys = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    const auto m = models::zoo::ofaSupernet();
    const cost::CostTable table(sys, {&m});
    const auto foreign = models::conv("not-in-the-model", 13, 13, 7, 5, 3);
    EXPECT_THROW(table.minLatencyUs(foreign), std::logic_error);
    EXPECT_THROW(table.cost(foreign, 0), std::logic_error);
    EXPECT_THROW(table.view(foreign), std::logic_error);
}

} // namespace
} // namespace dream
