#pragma once
/// \file scenario.hpp
/// \brief The unified workload entry point (DESIGN.md §14): one validated
///        builder behind which training, neighbor-sampled training and
///        inference serving all mount.
///
/// The config surface that grew across PRs 4–8 — nested CommPolicy, rate
/// schedules, membership schedules, kernel/thread/obs flags — is parsed
/// exactly once by Scenario::parse_flag()/from_flags() and validated
/// exactly once by Scenario::build(). Binaries pick the workload with
/// `--mode train|sample-train|serve`; library callers that only need the
/// training dispatch use Scenario::for_training(cfg).train(...), which is
/// the migration target of the deprecated dist::train_distributed().

#include <cstdint>
#include <string>

#include "scgnn/core/framework.hpp"
#include "scgnn/runtime/inference.hpp"
#include "scgnn/tensor/kernels.hpp"

namespace scgnn::runtime {

/// The three workloads a binary can mount.
enum class ScenarioMode : std::uint8_t {
    kTrain = 0,        ///< full-batch distributed training (golden-pinned)
    kSampleTrain = 1,  ///< neighbor-sampled mini-batch training
    kServe = 2,        ///< open-loop inference serving
};

/// Printable mode key ("train"/"sample-train"/"serve").
[[nodiscard]] const char* mode_name(ScenarioMode m) noexcept;

/// Parse a `--mode` value; false on an unknown name.
[[nodiscard]] bool parse_mode(const std::string& key,
                              ScenarioMode& out) noexcept;

/// Everything a workload binary configures, in one place. The training
/// knobs live in `pipeline` (partitioning, model, DistTrainConfig,
/// compressor method); `sampler` and `serve` only apply in their modes.
struct ScenarioConfig {
    ScenarioMode mode = ScenarioMode::kTrain;
    core::PipelineConfig pipeline{};
    dist::SamplerConfig sampler{};
    ServeConfig serve{};
    /// Process-wide side-effect knobs (applied by activate()).
    unsigned threads = 0;  ///< 0 = SCGNN_THREADS env / all cores
    std::string obs_out;   ///< non-empty = obs enabled, output prefix
    bool kernels_set = false;
    tensor::KernelPath kernels = tensor::KernelPath::kScalar;
};

/// Result of Scenario::run(): the training-side pipeline outcome and/or
/// the serving outcome, depending on the mode.
struct ScenarioResult {
    core::PipelineResult pipeline{};  ///< train / sample-train modes
    ServeResult serve{};              ///< serve mode
};

/// A validated workload. Construct through build()/for_training() — the
/// constructor is private so every instance has passed the single
/// validation pass.
class Scenario {
public:
    /// Consume argv[i] (and its value) when it is one of the shared
    /// scenario flags — the whole historical CommonFlags set
    /// (--threads/--log-level/--obs-out/--overlap/--kernels/--topology/
    /// --collective/--compressor-schedule/--schedule-*/--warmup-epochs/
    /// --membership/--fault-*/--retry-max/--timeout) plus the workload
    /// flags (--mode/--batch-size/--fanout/--qps/--deadline-ms/--queries/
    /// --serve-batch/--no-serve-cache). Returns false for flags the
    /// caller must handle itself; exits with code 2 on a malformed value.
    /// Every numeric value must parse whole (std::from_chars) and land in
    /// its flag's range, so bad input stops here, before any work.
    [[nodiscard]] static bool parse_flag(int argc, char** argv, int& i,
                                         ScenarioConfig& out);

    /// Parse a full argv into a config: every flag must be a scenario
    /// flag (exit 2 on anything unknown). For binaries with no flags of
    /// their own.
    [[nodiscard]] static ScenarioConfig from_flags(int argc, char** argv);

    /// Apply the side-effectful knobs (obs arming, kernel path, pool
    /// width; resolves cfg.threads to the actual width). Exits with code
    /// 2 when `--kernels simd` was requested on a host without AVX2+FMA.
    static void activate(ScenarioConfig& cfg);

    /// The single validation pass: throws scgnn::Error on any invalid
    /// combination (membership schedules in sample-train mode, degenerate
    /// sampler fanouts/batch size, non-positive QPS, ...).
    [[nodiscard]] static Scenario build(ScenarioConfig cfg);

    /// Shorthand for library callers that already hold a DistTrainConfig
    /// and just dispatch training: wraps it in a kTrain scenario.
    [[nodiscard]] static Scenario for_training(dist::DistTrainConfig cfg);

    /// Run the configured workload end to end (partitioning included).
    [[nodiscard]] ScenarioResult run(const graph::Dataset& data) const;

    /// Dispatch just the training loop over prebuilt parts/model/
    /// compressor: detail::train_full in kTrain mode, dist::train_sampled
    /// in kSampleTrain mode. Throws in kServe mode.
    [[nodiscard]] dist::DistTrainResult train(
        const graph::Dataset& data, const partition::Partitioning& parts,
        const gnn::GnnConfig& model_cfg,
        dist::BoundaryCompressor& compressor) const;

    [[nodiscard]] const ScenarioConfig& config() const noexcept {
        return cfg_;
    }
    [[nodiscard]] ScenarioMode mode() const noexcept { return cfg_.mode; }

private:
    explicit Scenario(ScenarioConfig cfg) : cfg_(std::move(cfg)) {}

    ScenarioConfig cfg_;
};

} // namespace scgnn::runtime
