#include "common/logging.h"

#include <cstdio>

namespace localut {
namespace detail {

void
fatalImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    throw FatalError(msg);
}

void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    throw PanicError(msg);
}

} // namespace detail
} // namespace localut
