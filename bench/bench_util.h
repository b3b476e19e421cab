#ifndef LOCALUT_BENCH_BENCH_UTIL_H_
#define LOCALUT_BENCH_BENCH_UTIL_H_

/**
 * @file
 * Shared helpers for the per-figure benchmark harnesses.  Every bench
 * prints: a header naming the paper figure, the parameters in use, the
 * measured series (same rows the figure plots), and the paper's reference
 * values for comparison (EXPERIMENTS.md records both).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "localut.h"

namespace localut {
namespace bench {

/**
 * Parses the bench CLI flags.  Every bench calls this first thing in
 * main(); the only flag is --smoke, which marks a reduced run for the
 * `ctest -L smoke` registration (heavy sweeps trim their case lists via
 * smoke()), so the per-figure harnesses cannot bit-rot unnoticed.
 */
void init(int argc, char** argv);

/** True when running as a ctest smoke test. */
bool smoke();

/** @p full normally, @p reduced under --smoke. */
template <typename T>
T
smokeTrim(T full, T reduced)
{
    return smoke() ? reduced : full;
}

/** Prints the figure banner. */
void header(const std::string& figure, const std::string& description);

/** Prints a labelled note (e.g. the paper's reference values). */
void note(const std::string& text);

/** Prints a section separator. */
void section(const std::string& title);

/** Formats seconds in engineering units. */
std::string fmtSeconds(double seconds);

/** Formats bytes in engineering units. */
std::string fmtBytes(double bytes);

/** Geomean convenience over a vector. */
double geomeanOf(const std::vector<double>& values);

/** Hardware threads of this host (at least 1). */
unsigned nproc();

/**
 * Writes the host provenance every BENCH_*.json records — "nproc",
 * "compiler" and "build_type" — as indented, comma-terminated members
 * of the object open in @p f.
 */
void writeProvenance(std::FILE* f);

} // namespace bench
} // namespace localut

#endif // LOCALUT_BENCH_BENCH_UTIL_H_
