#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "common/stats.h"

namespace localut {
namespace bench {

namespace {
bool gSmoke = false;
} // namespace

void
init(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            gSmoke = true;
        } else {
            LOCALUT_FATAL("unknown bench flag \"", argv[i],
                          "\" (supported: --smoke)");
        }
    }
    if (gSmoke) {
        std::printf("[smoke mode: reduced case lists]\n");
    }
}

bool
smoke()
{
    return gSmoke;
}

void
header(const std::string& figure, const std::string& description)
{
    std::printf("\n================================================================\n");
    std::printf("%s — %s\n", figure.c_str(), description.c_str());
    std::printf("================================================================\n");
}

void
note(const std::string& text)
{
    std::printf("  %s\n", text.c_str());
}

void
section(const std::string& title)
{
    std::printf("\n--- %s ---\n", title.c_str());
}

std::string
fmtSeconds(double seconds)
{
    char buf[64];
    if (seconds >= 1.0) {
        std::snprintf(buf, sizeof(buf), "%.3f s", seconds);
    } else if (seconds >= 1e-3) {
        std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
    } else {
        std::snprintf(buf, sizeof(buf), "%.3f us", seconds * 1e6);
    }
    return buf;
}

std::string
fmtBytes(double bytes)
{
    char buf[64];
    if (bytes >= 1024.0 * 1024.0 * 1024.0) {
        std::snprintf(buf, sizeof(buf), "%.2f GiB",
                      bytes / (1024.0 * 1024.0 * 1024.0));
    } else if (bytes >= 1024.0 * 1024.0) {
        std::snprintf(buf, sizeof(buf), "%.2f MiB", bytes / (1024.0 * 1024.0));
    } else if (bytes >= 1024.0) {
        std::snprintf(buf, sizeof(buf), "%.2f KiB", bytes / 1024.0);
    } else {
        std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
    }
    return buf;
}

double
geomeanOf(const std::vector<double>& values)
{
    return geomean(values);
}

unsigned
nproc()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
writeProvenance(std::FILE* f)
{
    std::fprintf(f, "  \"nproc\": %u,\n", nproc());
    std::fprintf(f, "  \"compiler\": \"%s\",\n", LOCALUT_BENCH_COMPILER);
    std::fprintf(f, "  \"build_type\": \"%s\",\n",
                 LOCALUT_BENCH_BUILD_TYPE);
}

} // namespace bench
} // namespace localut
