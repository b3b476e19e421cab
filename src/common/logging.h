#ifndef LOCALUT_COMMON_LOGGING_H_
#define LOCALUT_COMMON_LOGGING_H_

/**
 * @file
 * Error helpers following the gem5 discipline: fatal() rejects user
 * error (bad configuration or input) with a FatalError, panic() reports an
 * internal invariant violation (a bug in this library) with a PanicError.
 */

#include <sstream>
#include <stdexcept>
#include <string>

namespace localut {

/**
 * Thrown by LOCALUT_FATAL / LOCALUT_REQUIRE: the caller passed invalid
 * input or configuration.  Throwing (instead of aborting) lets callers
 * and tests recover from, and tell apart, rejected input.
 */
struct FatalError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/** Thrown by LOCALUT_PANIC / LOCALUT_ASSERT: an internal invariant
 * failed, i.e. a bug in this library whatever the input. */
struct PanicError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

namespace detail {

/** Concatenates all arguments through an ostringstream. */
template <typename... Args>
std::string
strCat(Args&&... args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void fatalImpl(const char* file, int line, const std::string& msg);
[[noreturn]] void panicImpl(const char* file, int line, const std::string& msg);

} // namespace detail
} // namespace localut

/** Terminates on user error (bad configuration / invalid arguments). */
#define LOCALUT_FATAL(...) \
    ::localut::detail::fatalImpl(__FILE__, __LINE__, \
                                 ::localut::detail::strCat(__VA_ARGS__))

/** Terminates on an internal bug (should never happen regardless of input). */
#define LOCALUT_PANIC(...) \
    ::localut::detail::panicImpl(__FILE__, __LINE__, \
                                 ::localut::detail::strCat(__VA_ARGS__))

/** Invariant check that panics (library bug) when violated. */
#define LOCALUT_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            LOCALUT_PANIC("assertion failed: ", #cond, ": ", ##__VA_ARGS__); \
        } \
    } while (0)

/** Precondition check that fatals (user error) when violated. */
#define LOCALUT_REQUIRE(cond, ...) \
    do { \
        if (!(cond)) { \
            LOCALUT_FATAL("requirement failed: ", #cond, ": ", ##__VA_ARGS__); \
        } \
    } while (0)

#endif // LOCALUT_COMMON_LOGGING_H_
