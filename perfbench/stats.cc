#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9);
    const std::size_t idx =
        rank < 1.0 ? 0
                   : std::min(v.size() - 1,
                              static_cast<std::size_t>(rank) - 1);
    return v[idx];
}

int
searchLadder(std::size_t steps,
             const std::function<bool(std::size_t)> &meets)
{
    if (steps == 0 || !meets(0))
        return -1;
    // Invariant: step lo met the limit; step hi failed (or is past the
    // ladder's end).
    std::size_t lo = 0, hi = steps;
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        (meets(mid) ? lo : hi) = mid;
    }
    return static_cast<int>(lo);
}

} // namespace perfbench
