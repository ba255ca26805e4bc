/**
 * @file
 * perfbench: runs one workload and prints its metrics as the last line
 * of stdout (see README.md).
 *
 * Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 */
#include <malloc.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void
Usage(const std::string& problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1]\n",
                 problem.c_str());
    std::exit(2);
}

/** Parses a whole-string number, or exits with a usage error. */
double
ParseNumber(const std::string& flag, const std::string& text)
{
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(value >= 0)) {
        Usage("bad value '" + text + "' for " + flag);
    }
    return value;
}

/** Parses a whole-string unsigned 64-bit seed, or exits with a usage
 *  error. */
std::uint64_t
ParseSeed(const std::string& text)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0' ||
        errno == ERANGE) {
        Usage("bad value '" + text + "' for --seed");
    }
    return value;
}

}  // namespace

int
main(int argc, char** argv)
{
    // A fixed mmap threshold keeps glibc from raising it after the
    // first large free, which moved later big buffers onto the heap and
    // made serve_hot's peak RSS read 119 or 148 MiB from run to run.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    perfbench::RunOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) Usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = ParseSeed(value);
        } else if (flag == "--seconds") {
            options.seconds = ParseNumber(flag, value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else {
            Usage("unknown flag " + flag);
        }
    }
    if (options.workload.empty()) Usage("--workload is required");
    const perfbench::Report report = perfbench::RunBenchmark(options);
    std::printf("%s\n", report.ToJson().c_str());
    return 0;
}
