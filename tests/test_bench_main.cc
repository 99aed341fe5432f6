/** @file Tests for the shared bench command line (bench/bench_main.h):
 *  --jobs accepts 0 ("all cores") and positive counts, and rejects
 *  negative and out-of-range values with exit code 2. */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/bench_main.h"

namespace dream {
namespace {

bench::Options
parse(std::vector<std::string> args)
{
    std::vector<char*> argv;
    for (auto& a : args)
        argv.push_back(a.data());
    return bench::parseArgs(int(argv.size()), argv.data());
}

TEST(BenchArgs, JobsAcceptsZeroAndPositiveCounts)
{
    EXPECT_EQ(parse({"bench", "--jobs", "3"}).jobs, 3);
    EXPECT_EQ(parse({"bench", "-j", "1"}).jobs, 1);
    EXPECT_EQ(parse({"bench", "--jobs", "0"}).jobs,
              engine::WorkerPool::defaultJobs());
}

TEST(BenchArgs, JobsRejectsNegativeValues)
{
    EXPECT_EXIT(parse({"bench", "--jobs", "-1"}),
                ::testing::ExitedWithCode(2), "invalid --jobs value.*-1");
    EXPECT_EXIT(parse({"bench", "-j", "-4"}),
                ::testing::ExitedWithCode(2), "invalid --jobs value.*-4");
}

TEST(BenchArgs, JobsRejectsValuesOutsideInt)
{
    // 2^32 + 1 would truncate to 1 as an int.
    EXPECT_EXIT(parse({"bench", "--jobs", "4294967297"}),
                ::testing::ExitedWithCode(2),
                "invalid --jobs value.*4294967297");
    EXPECT_EXIT(parse({"bench", "--jobs", "-4294967295"}),
                ::testing::ExitedWithCode(2),
                "invalid --jobs value.*-4294967295");
    // Beyond long: strtol saturates and reports ERANGE.
    EXPECT_EXIT(parse({"bench", "--jobs", "99999999999999999999"}),
                ::testing::ExitedWithCode(2),
                "invalid --jobs value.*99999999999999999999");
}

} // anonymous namespace
} // namespace dream
