#ifndef LOCALUT_COMMON_STATS_H_
#define LOCALUT_COMMON_STATS_H_

/**
 * @file
 * Small statistics helpers (geometric mean as used throughout the paper's
 * evaluation) and an order-preserving named breakdown used for the Fig. 16
 * style time/energy decompositions.
 */

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace localut {

/** Geometric mean of strictly positive values. */
double geomean(std::span<const double> values);

/** Arithmetic mean. */
double mean(std::span<const double> values);

/**
 * A named accumulator that preserves insertion order, so breakdowns print
 * in the order the pipeline executes.
 */
class Breakdown
{
  public:
    /** Adds @p value to component @p name (creating it if new). */
    void add(std::string_view name, double value);

    /** Value of component @p name (0 when absent). */
    double get(std::string_view name) const;

    /** Sum over all components. */
    double total() const;

    /** Fraction of total() in component @p name (0 when total is 0). */
    double fraction(std::string_view name) const;

    /** Merges all components of @p other into this. */
    void merge(const Breakdown& other);

    /** Multiplies every component by @p factor. */
    void scale(double factor);

    const std::vector<std::pair<std::string, double>>&
    items() const
    {
        return items_;
    }

  private:
    std::vector<std::pair<std::string, double>> items_;
};

} // namespace localut

#endif // LOCALUT_COMMON_STATS_H_
