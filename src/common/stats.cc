#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace localut {

double
geomean(std::span<const double> values)
{
    LOCALUT_ASSERT(!values.empty(), "geomean of empty set");
    double logSum = 0.0;
    for (double v : values) {
        LOCALUT_ASSERT(v > 0.0, "geomean requires positive values");
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
mean(std::span<const double> values)
{
    LOCALUT_ASSERT(!values.empty(), "mean of empty set");
    double sum = 0.0;
    for (double v : values) {
        sum += v;
    }
    return sum / static_cast<double>(values.size());
}

void
Breakdown::add(std::string_view name, double value)
{
    for (auto& [key, val] : items_) {
        if (key == name) {
            val += value;
            return;
        }
    }
    items_.emplace_back(std::string(name), value);
}

double
Breakdown::get(std::string_view name) const
{
    for (const auto& [key, val] : items_) {
        if (key == name) {
            return val;
        }
    }
    return 0.0;
}

double
Breakdown::total() const
{
    double sum = 0.0;
    for (const auto& [key, val] : items_) {
        sum += val;
    }
    return sum;
}

double
Breakdown::fraction(std::string_view name) const
{
    const double t = total();
    return t == 0.0 ? 0.0 : get(name) / t;
}

void
Breakdown::merge(const Breakdown& other)
{
    for (const auto& [key, val] : other.items_) {
        add(key, val);
    }
}

void
Breakdown::scale(double factor)
{
    for (auto& [key, val] : items_) {
        val *= factor;
    }
}

} // namespace localut
