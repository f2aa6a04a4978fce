/**
 * @file
 * The dram-paper workload's inputs: Fig. 5's demand grid, the seeded
 * held-out points, and the multi-MC sweep, all made from the seed.
 */

#ifndef PERFBENCH_DRAM_GRID_HH
#define PERFBENCH_DRAM_GRID_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "calib/calibrator.hh"

namespace perfbench {

/** Cores per group (Fig. 5: 8 low-bandwidth + 8 high-bandwidth). */
inline constexpr unsigned kGroupCores = 8;

/** The registered policies the workload expects to find. */
inline constexpr std::array<const char *, 8> kPolicyNames{
    "FCFS", "FR-FCFS", "ATLAS", "TCM", "SMS", "BLISS", "PARBS", "MEDUSA"};

/** One DRAM simulation: a policy under a two-group demand. */
struct DramPoint
{
    std::size_t policy = 0;
    /** High-group total demand, GB/s. */
    double high = 0.0;
    /** Low-group total demand, GB/s (0 = solo run). */
    double low = 0.0;

    bool operator==(const DramPoint &) const = default;
};

/** A held-out co-run: a held-out row and a pressure between columns. */
struct HeldOut
{
    std::size_t row = 0;
    double low = 0.0;
};

/**
 * The whole input of one regeneration. Points are laid out per
 * policy: the grid's solo runs, its co-runs row by row, the held-out
 * rows' solo runs, then the held-out co-runs.
 */
struct DramGrid
{
    std::vector<std::string> policies;
    std::vector<double> highs;
    std::vector<double> lows;
    /** Held-out high-group demands, between the grid's rows. */
    std::vector<double> heldHighs;
    std::vector<HeldOut> heldOut;
    std::uint64_t warmup = 0;
    std::uint64_t window = 0;
    std::vector<DramPoint> points;
    pccs::calib::McSweepSpec multiMc;

    std::size_t perPolicy() const
    {
        return highs.size() * (1 + lows.size()) + heldHighs.size() +
               heldOut.size();
    }
    std::size_t soloIndex(std::size_t p, std::size_t h) const
    {
        return p * perPolicy() + h;
    }
    std::size_t corunIndex(std::size_t p, std::size_t h,
                           std::size_t l) const
    {
        return p * perPolicy() + highs.size() + h * lows.size() + l;
    }
    /** (solo, co-run) point indices of held-out co-run k. */
    std::pair<std::size_t, std::size_t>
    heldOutIndex(std::size_t p, std::size_t k) const
    {
        const std::size_t base =
            p * perPolicy() + highs.size() * (1 + lows.size());
        return {base + heldOut[k].row, base + heldHighs.size() + k};
    }
};

/** Build the grid for `seed` (the same seed gives the same grid). */
DramGrid makeDramGrid(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_DRAM_GRID_HH
