/**
 * @file
 * Shared experiment setup ("workbench") used by the benchmark binaries
 * and examples: one standard universe, community month, triplet table
 * and community cache, built with the calibrated default parameters so
 * every table/figure binary measures the same world the paper did.
 */

#ifndef PC_HARNESS_WORKBENCH_H
#define PC_HARNESS_WORKBENCH_H

#include <memory>

#include "core/cache_content.h"
#include "logs/triplets.h"
#include "obs/metrics.h"
#include "workload/loggen.h"
#include "workload/population.h"
#include "workload/universe.h"

namespace pc::harness {

/**
 * Print a registry snapshot as tables: one for counters (skipping
 * zeros), one for gauges, one summary row per histogram. The same
 * snapshot can be attached to a BenchReport for the machine-readable
 * twin of this human-readable view.
 */
void printMetricsReport(const std::string &title,
                        const obs::MetricsSnapshot &snap);

/** Scale of the standard experiment world. */
struct WorkbenchConfig
{
    u64 seed = 2011; ///< ASPLOS'11.
    workload::UniverseConfig universe{};
    workload::PopulationConfig population{};
    std::size_t communityUsers = 60'000;
    /** Community cache volume-share target (paper: 55%). */
    double cacheShare = 0.55;
};

/** A smaller world for fast runs (tests, smoke checks). */
WorkbenchConfig smallWorkbenchConfig();

/**
 * The standard experiment world. Construction generates the preceding
 * ("build") month of community logs and derives the community cache
 * from it; evaluation months are generated on demand.
 */
class Workbench
{
  public:
    explicit Workbench(const WorkbenchConfig &cfg = {});

    /** World model. */
    const workload::QueryUniverse &universe() const { return *universe_; }
    /** The build month's community log. */
    const workload::SearchLog &buildLog() const { return *buildLog_; }
    /** Triplet table of the build month. */
    const logs::TripletTable &triplets() const { return *triplets_; }
    /** Community cache contents at the configured share. */
    const core::CacheContents &communityCache() const { return *cache_; }
    /** Population knobs (for sampling evaluation users). */
    const workload::PopulationConfig &population() const
    {
        return cfg_.population;
    }
    /** Configuration. */
    const WorkbenchConfig &config() const { return cfg_; }

    /**
     * Generate the next community month (consecutive calls advance the
     * same community's history), e.g. for update experiments.
     */
    workload::SearchLog nextCommunityMonth();

  private:
    WorkbenchConfig cfg_;
    std::unique_ptr<workload::QueryUniverse> universe_;
    std::unique_ptr<workload::LogGenerator> loggen_;
    std::unique_ptr<workload::SearchLog> buildLog_;
    std::unique_ptr<logs::TripletTable> triplets_;
    std::unique_ptr<core::CacheContents> cache_;
};

} // namespace pc::harness

#endif // PC_HARNESS_WORKBENCH_H
