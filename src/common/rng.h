#ifndef LOCALUT_COMMON_RNG_H_
#define LOCALUT_COMMON_RNG_H_

/**
 * @file
 * Deterministic SplitMix64-based RNG so every experiment is exactly
 * reproducible from its seed (std::mt19937 distributions are not guaranteed
 * identical across standard libraries).
 */

#include <cmath>
#include <cstdint>

namespace localut {

/** SplitMix64 generator with uniform/gaussian helpers. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    /** Next raw 64-bit value. */
    std::uint64_t
    nextU64()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, bound). @p bound must be > 0. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        return nextU64() % bound;
    }

    /** Uniform float in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
    }

    /** Standard normal via Box-Muller. */
    double
    nextGaussian()
    {
        if (haveSpare_) {
            haveSpare_ = false;
            return spare_;
        }
        double u = 0.0;
        while (u == 0.0) {
            u = nextDouble();
        }
        const double v = nextDouble();
        const double r = std::sqrt(-2.0 * std::log(u));
        spare_ = r * std::sin(2.0 * M_PI * v);
        haveSpare_ = true;
        return r * std::cos(2.0 * M_PI * v);
    }

  private:
    std::uint64_t state_;
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace localut

#endif // LOCALUT_COMMON_RNG_H_
