/**
 * @file
 * Smartphone NVM capacity projection (Figure 2) and pocket-cloudlet
 * storage sizing (Table 2).
 *
 * Figure 2 applies "different combinations of scaling and other
 * capacity-increasing techniques" from the Table 1 roadmap to the NVM
 * found in a 2010 high-end smartphone and plots the resulting capacity
 * evolution; the headline data point is ~1 TB for high-end phones by
 * 2018. Low-end phones are modelled at a 64:1 capacity ratio behind
 * high-end ones.
 */

#ifndef PC_NVM_CAPACITY_H
#define PC_NVM_CAPACITY_H

#include <string>
#include <vector>

#include "nvm/technology.h"
#include "util/types.h"

namespace pc::nvm {

/** Which capacity-increasing techniques a projection scenario applies. */
struct ScenarioFlags
{
    bool densityScaling = true; ///< Per-layer lithography scaling factor.
    bool chipStacking = false;  ///< Chips per package.
    bool cellStacking = false;  ///< 3D cell layers.
    bool multiLevelCells = false; ///< Bits per cell.

    /** Short display name, e.g. "scaling+chip+cell+mlc". */
    std::string name() const;
};

/** One projected point of Figure 2. */
struct CapacityPoint
{
    int year;
    Bytes highEnd; ///< Projected high-end smartphone NVM capacity.
    Bytes lowEnd;  ///< Projected low-end capacity (64:1 behind high-end).
};

/**
 * Capacity projection engine over a TechRoadmap.
 */
class CapacityProjection
{
  public:
    /**
     * @param roadmap Scaling roadmap (Table 1).
     * @param baselineHighEnd NVM in a 2010 high-end phone. The paper's
     *        numbers are consistent with 32 GB (x32 total multiplier
     *        2010 -> 2018 yields the quoted 1 TB).
     * @param lowEndRatio High-end to low-end capacity ratio (paper: 64).
     */
    explicit CapacityProjection(const TechRoadmap &roadmap,
                                Bytes baselineHighEnd = 32ull * kGiB,
                                unsigned lowEndRatio = 64);

    /** Capacity multiplier of `year` vs baseline under a scenario. */
    double multiplier(int year, const ScenarioFlags &flags) const;

    /** Project one year under a scenario. */
    CapacityPoint project(int year, const ScenarioFlags &flags) const;

    /** The four scenarios plotted in Figure 2, cumulative in technique. */
    static std::vector<ScenarioFlags> figure2Scenarios();

    /** First roadmap year in which high-end capacity reaches `target`. */
    int yearCapacityReaches(Bytes target, const ScenarioFlags &flags) const;

  private:
    const TechRoadmap &roadmap_;
    Bytes baselineHighEnd_;
    unsigned lowEndRatio_;
};

/** One row of Table 2: a cloudlet type and its unit item size. */
struct CloudletItemSpec
{
    std::string cloudlet; ///< e.g. "Web Search".
    std::string itemDesc; ///< e.g. "search result page".
    Bytes itemSize;       ///< Size of a single item.
};

/** The five cloudlet rows of Table 2. */
std::vector<CloudletItemSpec> table2Specs();

/** Items of the given size that fit in a storage budget. */
u64 itemsInBudget(Bytes budget, Bytes itemSize);

} // namespace pc::nvm

#endif // PC_NVM_CAPACITY_H
