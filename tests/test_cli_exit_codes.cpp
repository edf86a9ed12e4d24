// Table-driven exit-code contract for the CommonFlags validators (and the
// scgnn_cli-local flag parser): every malformed value must terminate the
// process with exit code 2 — the documented "bad usage" code — before any
// training work starts. The binary under test is the installed scgnn_cli
// (path injected by tests/CMakeLists.txt as SCGNN_CLI_PATH); when the
// examples are not built the whole suite skips.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace {

struct Case {
    const char* label;   ///< which validator the row exercises
    const char* args;    ///< flag + bad value as passed on the command line
};

// Every CommonFlags validator with a representative malformed value, plus
// the cli-local bad-usage paths (unknown flag, missing value).
const Case kCases[] = {
    {"topology", "--topology hier:3x"},
    {"topology-mismatch", "--topology lattice"},
    {"collective", "--collective butterfly"},
    {"compressor-schedule", "--compressor-schedule sometimes"},
    {"kernels", "--kernels gpu"},
    {"membership-syntax", "--membership leave:5"},
    {"membership-trailing", "--membership leave:5@d3,"},
    {"membership-kind", "--membership evict:5@d3"},
    {"log-level", "--log-level loud"},
    {"schedule-floor", "--schedule-floor 1.5"},
    {"schedule-hold", "--schedule-hold 0"},
    {"warmup-epochs", "--warmup-epochs 0"},
    {"unknown-flag", "--frobnicate"},
    {"missing-value", "--membership"},
    // The Scenario workload flags (runtime/scenario.hpp).
    {"mode", "--mode inference"},
    {"batch-size", "--batch-size 0"},
    {"fanout-zero", "--fanout 10,0"},
    {"fanout-garbage", "--fanout x"},
    {"qps", "--qps 0"},
    {"deadline-ms", "--deadline-ms -1"},
    {"queries", "--queries 0"},
    {"serve-batch", "--serve-batch 0"},
    // Scenario::build validators: flags that parse alone but make an
    // invalid combination must still exit 2 before any work starts.
    {"sample-train-membership",
     "--mode sample-train --membership leave:1@d1,join:2@d1"},
    // scgnn_cli's own count flags: range-checked at parse time, before
    // the dataset is built.
    {"parts-one", "--parts 1"},
    {"layers-zero", "--layers 0"},
    {"epochs-negative", "--epochs -3"},
    // Scenario::parse_flag's numeric flags: the whole value must parse
    // and land in range, checked before the dataset is built.
    {"retry-max-garbage", "--scale 0.05 --epochs 1 --retry-max xyz"},
    {"retry-max-zero", "--retry-max 0"},
    {"threads-garbage", "--threads four"},
    {"threads-overflow", "--threads 4294967296"},
    {"threads-negative", "--threads -2"},
    {"schedule-hold-trailing", "--schedule-hold 3x"},
    {"warmup-epochs-garbage", "--warmup-epochs many"},
    {"fault-seed-garbage", "--fault-seed 0x10"},
    {"fault-drop-one", "--fault-drop 1"},
    {"fault-drop-garbage", "--fault-drop often"},
    {"timeout-negative", "--timeout -0.5"},
    {"batch-size-garbage", "--batch-size 12abc"},
    {"queries-overflow", "--queries 99999999999"},
    {"serve-batch-negative", "--serve-batch -4"},
    {"qps-nan", "--qps nan"},
    {"deadline-ms-garbage", "--deadline-ms soon"},
    {"schedule-floor-garbage", "--schedule-floor half"},
    {"schedule-drift-inf", "--schedule-drift inf"},
    {"schedule-improve-empty", "--schedule-improve ''"},
};

class CliExitCode : public ::testing::TestWithParam<Case> {};

TEST_P(CliExitCode, MalformedValueExitsWithCode2) {
#ifndef SCGNN_CLI_PATH
    GTEST_SKIP() << "scgnn_cli not built (SCGNN_BUILD_EXAMPLES=OFF)";
#else
    const Case& c = GetParam();
    const std::string cmd = std::string(SCGNN_CLI_PATH) + " " + c.args +
                            " >/dev/null 2>/dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_NE(status, -1) << "system() failed for " << cmd;
    ASSERT_TRUE(WIFEXITED(status)) << c.label << " did not exit normally";
    EXPECT_EQ(WEXITSTATUS(status), 2)
        << c.label << ": `scgnn_cli " << c.args
        << "` must exit 2 on bad usage";
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Validators, CliExitCode, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& pi) {
        std::string name = pi.param.label;
        for (char& ch : name)
            if (ch == '-') ch = '_';
        return name;
    });

#ifdef SCGNN_CLI_PATH
TEST(CliExitCode, WellFormedFlagsParse) {
    // The same flags with legal values must get past the parser: a tiny
    // run end-to-end exits 0 (this also guards against validators that
    // reject everything).
    const std::string cmd =
        std::string(SCGNN_CLI_PATH) +
        " --scale 0.05 --epochs 2 --parts 4 --method vanilla"
        " --membership leave:1@d1,join:2@d1 >/dev/null 2>/dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(CliExitCode, WellFormedWorkloadFlagsParse) {
    // The sampled and serving workloads end-to-end: legal values exit 0.
    for (const char* args :
         {" --scale 0.05 --epochs 2 --parts 4 --mode sample-train"
          " --batch-size 32 --fanout 6,4",
          " --scale 0.05 --parts 4 --mode serve --qps 3000 --queries 200"
          " --serve-batch 4 --deadline-ms 1.5 --no-serve-cache"}) {
        const std::string cmd = std::string(SCGNN_CLI_PATH) + args +
                                " >/dev/null 2>/dev/null";
        const int status = std::system(cmd.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << args;
        EXPECT_EQ(WEXITSTATUS(status), 0) << args;
    }
}
#endif

} // namespace
