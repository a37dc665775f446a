#include "nvm/capacity.h"

#include <cmath>

#include "util/logging.h"

namespace pc::nvm {

std::string
ScenarioFlags::name() const
{
    std::string out;
    auto add = [&](bool on, const char *tag) {
        if (!on)
            return;
        if (!out.empty())
            out += '+';
        out += tag;
    };
    add(densityScaling, "scaling");
    add(chipStacking, "chip-stack");
    add(cellStacking, "cell-stack");
    add(multiLevelCells, "mlc");
    if (out.empty())
        out = "none";
    return out;
}

CapacityProjection::CapacityProjection(const TechRoadmap &roadmap,
                                       Bytes baselineHighEnd,
                                       unsigned lowEndRatio)
    : roadmap_(roadmap),
      baselineHighEnd_(baselineHighEnd),
      lowEndRatio_(lowEndRatio)
{
    pc_assert(baselineHighEnd_ > 0, "baseline capacity must be positive");
    pc_assert(lowEndRatio_ > 0, "low-end ratio must be positive");
}

double
CapacityProjection::multiplier(int year, const ScenarioFlags &flags) const
{
    const TechNode &base = roadmap_.baseline();
    const TechNode &node = roadmap_.nodeFor(year);
    double m = 1.0;
    if (flags.densityScaling)
        m *= double(node.scalingFactor) / double(base.scalingFactor);
    if (flags.chipStacking)
        m *= double(node.chipStack) / double(base.chipStack);
    if (flags.cellStacking)
        m *= double(node.cellLayers) / double(base.cellLayers);
    if (flags.multiLevelCells)
        m *= double(node.bitsPerCell) / double(base.bitsPerCell);
    return m;
}

CapacityPoint
CapacityProjection::project(int year, const ScenarioFlags &flags) const
{
    const double m = multiplier(year, flags);
    CapacityPoint pt;
    pt.year = year;
    pt.highEnd = Bytes(std::llround(double(baselineHighEnd_) * m));
    pt.lowEnd = pt.highEnd / lowEndRatio_;
    return pt;
}

std::vector<ScenarioFlags>
CapacityProjection::figure2Scenarios()
{
    return {
        {true, false, false, false},
        {true, true, false, false},
        {true, true, true, false},
        {true, true, true, true},
    };
}

int
CapacityProjection::yearCapacityReaches(Bytes target,
                                        const ScenarioFlags &flags) const
{
    for (const auto &node : roadmap_.nodes()) {
        if (project(node.year, flags).highEnd >= target)
            return node.year;
    }
    return -1;
}

std::vector<CloudletItemSpec>
table2Specs()
{
    // Table 2, verbatim: item granularity per pocket cloudlet.
    return {
        {"Web Search", "search result page", 100 * kKiB},
        {"Mobile Ads", "ad banner", 5 * kKiB},
        {"Yellow Business", "map tile with business info", 5 * kKiB},
        {"Web Content", "full web page (www.cnn.com)",
         Bytes(1.5 * double(kMiB))},
        {"Mapping", "128x128 pixels map tile", 5 * kKiB},
    };
}

u64
itemsInBudget(Bytes budget, Bytes itemSize)
{
    pc_assert(itemSize > 0, "item size must be positive");
    return budget / itemSize;
}

} // namespace pc::nvm
