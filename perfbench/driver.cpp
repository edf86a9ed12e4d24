// Whole-process workload driver of the benchmark (see README.md).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench_driver --selftest
//
// Each round of a workload runs the life cycle of one process through the
// library's public entry points: graph::make_dataset → runtime::Scenario
// (partition, DistContext, grouping set-up, epochs, evaluation, report) →
// partition::make_partitioning + runtime::InferenceServer over a ladder of
// arrival rates. After the timed part, a set-up probe times
// make_partitioning, DistContext and the grouping set-up on their own and
// gathers the facts the output checks need (own cut-edge count, own BFS
// ball sizes, drawn samples against the adjacency). Rounds repeat until
// --seconds have passed. With --trace 1 every other round runs with the
// library's observability on, and the per-layer figures come from those
// rounds. The driver prints one JSON object; run.py checks and reports it.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "scgnn/comm/collective.hpp"
#include "scgnn/comm/fabric.hpp"
#include "scgnn/comm/topology.hpp"
#include "scgnn/common/parallel.hpp"
#include "scgnn/common/rng.hpp"
#include "scgnn/core/framework.hpp"
#include "scgnn/dist/context.hpp"
#include "scgnn/dist/sampler.hpp"
#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/gnn/model.hpp"
#include "scgnn/gnn/trainer.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/obs/alloc.hpp"
#include "scgnn/obs/ledger.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/obs.hpp"
#include "scgnn/obs/trace.hpp"
#include "scgnn/partition/partition.hpp"
#include "scgnn/runtime/inference.hpp"
#include "scgnn/runtime/membership.hpp"
#include "scgnn/runtime/scenario.hpp"
#include "scgnn/tensor/ops.hpp"
#include "scgnn/tensor/sparse.hpp"

using namespace scgnn;

namespace {

// ------------------------------------------------------------------ clock

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double since_s(std::int64_t t0_ns) {
    return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// ----------------------------------------- DistContext construction hook

std::atomic<std::uint64_t> g_ctx_builds{0};

#ifdef PERFBENCH_CTX_HOOK
constexpr bool kCtxHook = true;
#else
constexpr bool kCtxHook = false;
#endif

} // namespace

/// Called by the --wrap trampolines (ctx_hook.s.in) on every DistContext
/// construction, whoever constructs it.
extern "C" void perfbench_note_context_build() noexcept {
    g_ctx_builds.fetch_add(1, std::memory_order_relaxed);
}

namespace {

// ---------------------------------------------------------------- helpers

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + salt;
    return splitmix64(s);
}

/// Flat JSON object writer: numbers with all their digits, strings quoted.
class JsonOut {
public:
    void num(const std::string& key, double v) {
        char buf[64];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof buf, "%.17g", v);
        else
            std::snprintf(buf, sizeof buf, "null");
        add(key, buf);
    }
    void boolean(const std::string& key, bool v) { add(key, v ? "true" : "false"); }
    void str(const std::string& key, const std::string& v) {
        std::string q = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\') q += '\\';
            q += c;
        }
        add(key, q + "\"");
    }
    void raw(const std::string& key, const std::string& json) { add(key, json); }
    [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

private:
    void add(const std::string& key, const std::string& val) {
        if (!body_.empty()) body_ += ", ";
        body_ += "\"" + key + "\": " + val;
    }
    std::string body_;
};

// -------------------------------------------------------------- workloads

/// Arrival-rate ladder of the serving phase. `grid` has 2^k − 1 ascending
/// rates so the bisection for the highest rate meeting `p99_limit_ms`
/// always takes exactly k probes.
struct Ladder {
    double light_qps = 0.0;
    double heavy_qps = 0.0;
    std::vector<double> grid;
    double p99_limit_ms = 0.0;
    std::uint32_t queries = 0;  ///< stream length of every probe
};

std::vector<double> geometric_grid(double lo, double hi, int k) {
    const int n = (1 << k) - 1;
    std::vector<double> g(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        g[static_cast<std::size_t>(i)] =
            std::round(lo * std::pow(hi / lo, static_cast<double>(i) / (n - 1)));
    return g;
}

struct Workload {
    std::string name;
    graph::DatasetPreset preset = graph::DatasetPreset::kPubMedSim;
    double scale = 1.0;
    runtime::ScenarioMode mode = runtime::ScenarioMode::kTrain;
    std::uint32_t parts = 4;
    std::string topology = "flat";
    comm::collective::Algo collective = comm::collective::Algo::kRing;
    bool weight_sync = false;
    bool overlap = false;
    std::string method = "ours";
    std::string membership;  ///< empty = static
    std::uint32_t epochs = 4;
    float lr = 0.0f;                ///< 0 = the library's Adam default
    std::uint32_t serve_parts = 0;  ///< serving devices; 0 = training parts
    dist::SamplerConfig sampler{};
    Ladder ladder;
};

std::vector<Workload> workloads() {
    std::vector<Workload> w(3);

    w[0].name = "train-full";
    w[0].preset = graph::DatasetPreset::kRedditSim;
    w[0].scale = 1.0;
    w[0].mode = runtime::ScenarioMode::kTrain;
    w[0].parts = 16;
    w[0].topology = "hier:4x4";
    w[0].collective = comm::collective::Algo::kHier;
    w[0].weight_sync = true;
    w[0].overlap = true;
    w[0].method = "ef+ours";
    w[0].membership = "leave:4@d5,join:7@d5";
    w[0].epochs = 10;
    w[0].lr = 0.03f;
    w[0].serve_parts = 4;
    w[0].ladder = {300.0, 800.0, geometric_grid(900.0, 1800.0, 4), 25.0, 500};

    w[1].name = "train-sampled";
    w[1].preset = graph::DatasetPreset::kPubMedSim;
    w[1].scale = 4.0;
    w[1].mode = runtime::ScenarioMode::kSampleTrain;
    w[1].parts = 4;
    w[1].method = "ours";
    w[1].epochs = 6;
    w[1].sampler.batch_size = 512;
    w[1].sampler.fanout = {10, 5};
    w[1].ladder = {2000.0, 16000.0, geometric_grid(25000.0, 56000.0, 4), 5.0, 3000};

    w[2].name = "serve-ladder";
    w[2].preset = graph::DatasetPreset::kOgbnProductsSim;
    w[2].scale = 1.0;
    w[2].mode = runtime::ScenarioMode::kTrain;
    w[2].parts = 4;
    w[2].method = "ours";
    w[2].epochs = 10;
    w[2].ladder = {500.0, 2500.0, geometric_grid(2500.0, 8000.0, 4), 12.0, 1500};
    return w;
}

/// The inputs --seed varies: the dataset and the serving query stream of
/// every round (round k of seed s always gets the same inputs). Partition,
/// weight-init and sampler seeds are program settings and stay fixed, so
/// the spread between runs is the spread between inputs, and each run's
/// figures are medians over the rounds' inputs.
struct Seeds {
    std::uint64_t data, serve;
    std::uint64_t partition = 99, model = 1, sampler = 17;
    Seeds(std::uint64_t s, std::uint64_t round)
        : data(derive_seed(derive_seed(s, 1), round)),
          serve(derive_seed(derive_seed(s, 5), round)) {}
};

runtime::ScenarioConfig scenario_config(const Workload& w, const Seeds& s,
                                        const graph::Dataset& data) {
    runtime::ScenarioConfig sc;
    sc.mode = w.mode;
    core::PipelineConfig& pc = sc.pipeline;
    pc.num_parts = w.parts;
    pc.algo = partition::PartitionAlgo::kNodeCut;
    pc.partition_seed = s.partition;
    pc.model.in_dim = static_cast<std::uint32_t>(data.features.cols());
    pc.model.out_dim = data.num_classes;
    pc.model.seed = s.model;
    pc.train.epochs = w.epochs;
    if (w.lr > 0.0f) pc.train.adam.lr = w.lr;
    pc.method.name = w.method;
    auto& comm_policy = pc.train.comm;
    if (!comm::parse_topology(w.topology.c_str(), comm_policy.topology))
        throw std::runtime_error("bad topology " + w.topology);
    comm_policy.collective = w.collective;
    comm_policy.count_weight_sync = w.weight_sync;
    if (w.overlap) comm_policy.mode = comm::CostModel::Mode::kOverlap;
    if (!w.membership.empty() &&
        !runtime::parse_membership(w.membership.c_str(), pc.train.membership))
        throw std::runtime_error("bad membership " + w.membership);
    sc.sampler = w.sampler;
    sc.sampler.seed = s.sampler;
    return sc;
}

/// Serving config as the serve-mode Scenario derives it (link pricing and
/// grouping knobs inherited from the training side).
runtime::ServeConfig serve_config(const runtime::ScenarioConfig& train_sc,
                                  const Workload& w, const Seeds& s,
                                  double qps) {
    runtime::ScenarioConfig sc = train_sc;
    sc.mode = runtime::ScenarioMode::kServe;
    sc.pipeline.train.membership = {};
    sc.serve.qps = qps;
    sc.serve.queries = w.ladder.queries;
    sc.serve.seed = s.serve;
    // A histogram range far beyond any latency of the ladders (same bin
    // width as the 50 ms default): the capacity search overloads some
    // probes on purpose, and their quantiles must not clamp.
    sc.serve.hist_max_ms = 1000.0;
    sc.serve.hist_bins = 40960;
    return runtime::Scenario::build(std::move(sc)).config().serve;
}

// ------------------------------------------------------------- own checks

/// Undirected edges whose endpoints the partitioning puts apart, counted
/// straight off the adjacency.
std::uint64_t own_cut_edges(const graph::Graph& g,
                            const partition::Partitioning& p) {
    std::uint64_t cut = 0;
    for (std::uint32_t u = 0; u < g.num_nodes(); ++u)
        for (const std::uint32_t v : g.neighbors(u))
            if (u < v && p.part_of[u] != p.part_of[v]) ++cut;
    return cut;
}

/// Nodes within `hops` of v (v included), by plain BFS over the adjacency.
std::size_t ball_size(const graph::Graph& g, std::uint32_t v,
                      std::uint32_t hops) {
    std::vector<std::uint32_t> frontier{v}, next;
    std::unordered_set<std::uint32_t> seen{v};
    for (std::uint32_t h = 0; h < hops; ++h) {
        next.clear();
        for (const std::uint32_t u : frontier)
            for (const std::uint32_t w : g.neighbors(u))
                if (seen.insert(w).second) next.push_back(w);
        frontier.swap(next);
    }
    return seen.size();
}

/// Mean L-hop ball size over the seeded query stream InferenceServer
/// draws (one Rng(seed) sequence of uniform node ids).
double mean_query_ball(const graph::Graph& g, std::uint64_t seed,
                       std::uint32_t queries, std::uint32_t hops) {
    Rng rng(seed);
    double total = 0.0;
    for (std::uint32_t i = 0; i < queries; ++i) {
        const auto v = static_cast<std::uint32_t>(rng.uniform_u64(g.num_nodes()));
        total += static_cast<double>(ball_size(g, v, hops));
    }
    return total / queries;
}

/// Fanout and adjacency audit of one drawn batch: per layer and consumer,
/// the sampled non-self in-neighbours must be real graph neighbours and at
/// most fanout_at(layer) of them.
struct SampleAudit {
    std::uint64_t batches = 0;
    std::uint64_t consumers = 0;
    std::uint64_t over_fanout = 0;  ///< consumers with too many neighbours
    std::uint64_t non_edges = 0;    ///< sampled pairs that are not edges
};

void audit_batch(const graph::Graph& g, const dist::DistContext& ctx,
                 const dist::SampledBatch& b,
                 const std::vector<std::uint32_t>& fanout_per_layer,
                 SampleAudit& a) {
    ++a.batches;
    const std::size_t layers = b.local_adj.size();
    for (std::size_t l = 0; l < layers; ++l) {
        std::map<std::uint32_t, std::uint32_t> picked;  // consumer → count
        const tensor::SparseMatrix& m = b.local_adj[l];
        for (std::size_t r = 0; r < m.rows(); ++r) {
            for (const std::uint32_t c : m.row_cols(r)) {
                const std::uint32_t u = b.nodes[r], v = b.nodes[c];
                if (u == v) continue;
                if (!g.has_edge(u, v)) ++a.non_edges;
                ++picked[static_cast<std::uint32_t>(r)];
            }
        }
        if (l < b.requests.size()) {
            for (const dist::PlanRequest& req : b.requests[l]) {
                const dist::PairPlan& plan = ctx.plans()[req.plan];
                for (std::size_t e = 0; e < req.edge_dst.size(); ++e) {
                    const std::uint32_t u = b.nodes[req.edge_dst[e]];
                    const std::uint32_t v =
                        plan.dbg.src_nodes[req.rows[req.edge_req[e]]];
                    if (u == v) continue;
                    if (!g.has_edge(u, v)) ++a.non_edges;
                    ++picked[req.edge_dst[e]];
                }
            }
        }
        const std::uint32_t cap = fanout_per_layer[l];
        for (const auto& [consumer, count] : picked) {
            ++a.consumers;
            if (count > cap) ++a.over_fanout;
        }
    }
}

// ------------------------------------------------------------ round record

struct Probe {
    double qps = 0.0;
    runtime::ServeResult res{};
    double ctor_s = 0.0;
    double run_s = 0.0;
    bool hist_overflow = false;  ///< some latency reached hist_max_ms
};

struct Round {
    bool traced = false;
    runtime::ScenarioConfig sc{};
    // timings (s)
    double ds_s = 0, part_s = 0, ctx_s = 0, grp_s = 0, serve_part_s = 0;
    double run_wall_s = 0, setup_s = 0, serve_run_s = 0;
    std::uint64_t serve_queries = 0;
    // training outcome
    dist::DistTrainResult train{};
    core::PipelineResult pipe{};
    std::vector<double> epoch_wall_ms;  ///< all epochs, in order
    std::uint64_t ctx_builds_in_scenario = 0;
    std::int64_t scn_t0_ns = 0, scn_t1_ns = 0;
    // serving outcome
    std::vector<Probe> probes;  ///< light, heavy, then the bisection
    std::size_t light = 0, heavy = 1;
    double max_qps = 0.0;
    bool grid_low_fails = false;   ///< grid[0] already misses the limit
    bool grid_top_passes = false;  ///< no grid rate misses the limit
    double next_p99_ms = 0.0;      ///< p99 at the grid rate above max_qps
    double max_p99_ms = 0.0;       ///< p99 at max_qps
    // probe facts
    std::uint64_t own_cut_train = 0;  ///< of the training partitioning
    double mean_ball = 0.0;
    SampleAudit audit{};
    double sample_batch_ms = 0.0;
    double majority_share = 0.0;
};

// --------------------------------------------------------------- one round

/// Wall time of the layer primitives on the workload's own shapes: the
/// full-graph SpMM Â·X, the first-layer GEMM X·W and one full-graph
/// evaluation pass.
struct Primitives {
    double spmm_ms = 0, gemm_ms = 0, eval_ms = 0;
    double weight_sync_mb = 0;
};


void run_ladder(const Workload& w, const Seeds& s,
                const runtime::ScenarioConfig& sc, const graph::Dataset& data,
                const partition::Partitioning& parts, Round& r) {
    auto probe = [&](double qps) {
        Probe p;
        p.qps = qps;
        const runtime::ServeConfig cfg = serve_config(sc, w, s, qps);
        std::int64_t t0 = now_ns();
        std::unique_ptr<runtime::InferenceServer> server;
        {
            SCGNN_TRACE_SPAN("bench.serve.server_ctor");
            server = std::make_unique<runtime::InferenceServer>(data, parts, cfg);
        }
        p.ctor_s = since_s(t0);
        t0 = now_ns();
        {
            SCGNN_TRACE_SPAN("bench.serve.run");
            p.res = server->run();
        }
        p.run_s = since_s(t0);
        p.hist_overflow = p.res.max_ms >= cfg.hist_max_ms;
        r.serve_run_s += p.run_s;
        r.serve_queries += p.res.queries;
        r.probes.push_back(p);
        return r.probes.size() - 1;
    };
    r.light = probe(w.ladder.light_qps);
    r.heavy = probe(w.ladder.heavy_qps);
    // Bisection over the grid: lo meets the limit (−1 = none known), hi
    // misses it (n = none known). 2^k − 1 rates take exactly k probes.
    const auto n = static_cast<long>(w.ladder.grid.size());
    long lo = -1, hi = n;
    std::map<long, std::size_t> at;
    while (hi - lo > 1) {
        const long mid = (lo + hi) / 2;
        const std::size_t i = probe(w.ladder.grid[static_cast<std::size_t>(mid)]);
        at[mid] = i;
        if (r.probes[i].res.p99_ms <= w.ladder.p99_limit_ms)
            lo = mid;
        else
            hi = mid;
    }
    r.grid_low_fails = lo < 0;
    r.grid_top_passes = hi >= n;
    if (lo >= 0) {
        r.max_qps = w.ladder.grid[static_cast<std::size_t>(lo)];
        r.max_p99_ms = r.probes[at[lo]].res.p99_ms;
    }
    if (hi < n) r.next_p99_ms = r.probes[at[hi]].res.p99_ms;
}

Primitives time_primitives(const Workload& w, const runtime::ScenarioConfig& sc,
                           const graph::Dataset& data);

Round run_round(const Workload& w, const Seeds& s, bool traced,
                Primitives* prim) {
    Round r;
    r.traced = traced;
    const std::int64_t t_start = now_ns();

    // --- the process: dataset → scenario → serving ladder
    std::int64_t t0 = now_ns();
    graph::Dataset data;
    {
        SCGNN_TRACE_SPAN("bench.make_dataset");
        data = graph::make_dataset(w.preset, w.scale, s.data);
    }
    r.ds_s = since_s(t0);

    r.sc = scenario_config(w, s, data);
    const runtime::ScenarioConfig& sc = r.sc;
    const runtime::Scenario scenario = runtime::Scenario::build(sc);
    const std::uint64_t builds0 = g_ctx_builds.load();
    r.scn_t0_ns = now_ns();
    runtime::ScenarioResult res;
    {
        SCGNN_TRACE_SPAN("bench.scenario.run");
        res = scenario.run(data);
    }
    r.scn_t1_ns = now_ns();
    r.ctx_builds_in_scenario = g_ctx_builds.load() - builds0;
    r.pipe = res.pipeline;
    r.train = res.pipeline.train;
    for (const dist::EpochMetrics& m : r.train.epoch_metrics)
        r.epoch_wall_ms.push_back(m.compute_ms * m.active_devices);

    t0 = now_ns();
    partition::Partitioning serve_parts;
    {
        SCGNN_TRACE_SPAN("bench.make_partitioning.serve");
        serve_parts = partition::make_partitioning(
            sc.pipeline.algo, data.graph,
            w.serve_parts > 0 ? w.serve_parts : sc.pipeline.num_parts,
            sc.pipeline.partition_seed);
    }
    r.serve_part_s = since_s(t0);

    run_ladder(w, s, sc, data, serve_parts, r);
    r.run_wall_s = since_s(t_start);

    // --- set-up probe (outside run_wall_s): the training set-up calls the
    // scenario made, each on its own, then the facts the checks need.
    t0 = now_ns();
    partition::Partitioning parts;
    {
        SCGNN_TRACE_SPAN("bench.make_partitioning");
        parts = partition::make_partitioning(sc.pipeline.algo, data.graph,
                                             sc.pipeline.num_parts,
                                             sc.pipeline.partition_seed);
    }
    r.part_s = since_s(t0);
    t0 = now_ns();
    std::unique_ptr<dist::DistContext> ctx;
    {
        SCGNN_TRACE_SPAN("bench.dist_context");
        ctx = std::make_unique<dist::DistContext>(data, parts,
                                                  sc.pipeline.train.norm);
    }
    r.ctx_s = since_s(t0);
    t0 = now_ns();
    {
        SCGNN_TRACE_SPAN("bench.grouping_setup");
        const std::unique_ptr<dist::BoundaryCompressor> comp =
            core::make_compressor(sc.pipeline.method);
        comp->setup(*ctx);
    }
    r.grp_s = since_s(t0);
    r.setup_s = r.ds_s + r.part_s + r.ctx_s + r.grp_s + r.serve_part_s +
                r.probes[0].ctor_s;

    {
        SCGNN_TRACE_SPAN("bench.checks");
        r.own_cut_train = own_cut_edges(data.graph, parts);
        const runtime::ServeConfig cfg = serve_config(sc, w, s, 1.0);
        r.mean_ball = mean_query_ball(data.graph, cfg.seed, cfg.queries, cfg.layers);
        std::vector<std::uint64_t> counts(data.num_classes, 0);
        for (const std::uint32_t v : data.test_mask)
            ++counts[static_cast<std::size_t>(data.labels[v])];
        r.majority_share =
            static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
            static_cast<double>(data.test_mask.size());
    }
    if (w.mode == runtime::ScenarioMode::kSampleTrain) {
        SCGNN_TRACE_SPAN("bench.sampler");
        const std::uint32_t layers = sc.pipeline.model.num_layers;
        dist::NeighborSampler sampler(data, *ctx, sc.pipeline.train.norm,
                                      layers, sc.sampler);
        std::vector<std::uint32_t> fanout(layers);
        for (std::uint32_t l = 0; l < layers; ++l) fanout[l] = sampler.fanout_at(l);
        sampler.begin_epoch(0);
        std::vector<double> ms;
        for (std::size_t b = 0; b < sampler.num_batches(); ++b) {
            t0 = now_ns();
            const dist::SampledBatch batch = sampler.batch(b);
            ms.push_back(since_s(t0) * 1e3);
            audit_batch(data.graph, *ctx, batch, fanout, r.audit);
        }
        r.sample_batch_ms = median(ms);
    }
    if (prim != nullptr) *prim = time_primitives(w, sc, data);
    return r;
}

// ------------------------------------------------------- traced-round data

struct Layered {
    double compress_ms = 0, compress_calls = 0, ef_recovered_mb = 0;
    double messages = 0, bytes_mb = 0;
    double pool_ms = 0, pool_regions = 0, epoch_span_ms = 0;
    double alloc_steady = 0, report_kb = 0;
    double untraced_pct = 0, scenario_untraced_pct = 0;
    double post_train_s = 0;
    double eval_passes = 0;
    std::uint64_t epochs = 0;
    // flat-fabric recomputation of the modelled comm time per epoch
    bool comm_checked = false;
    double comm_ms_max_err = 0;
};

struct Interval {
    std::uint64_t a, b;
};

/// Length of [lo, hi) covered by the union of `iv`.
double covered_ns(std::vector<Interval> iv, std::uint64_t lo, std::uint64_t hi) {
    std::sort(iv.begin(), iv.end(),
              [](const Interval& x, const Interval& y) { return x.a < y.a; });
    double total = 0;
    std::uint64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (Interval x : iv) {
        x.a = std::max(x.a, lo);
        x.b = std::min(x.b, hi);
        if (x.b <= x.a) continue;
        if (open && x.a <= cur_b) {
            cur_b = std::max(cur_b, x.b);
        } else {
            if (open) total += static_cast<double>(cur_b - cur_a);
            cur_a = x.a;
            cur_b = x.b;
            open = true;
        }
    }
    if (open) total += static_cast<double>(cur_b - cur_a);
    return total;
}

double sample_value(const std::vector<obs::MetricSample>& ms,
                    const std::string& name) {
    for (const obs::MetricSample& m : ms)
        if (m.name == name) return m.value;
    return 0.0;
}

/// Read the per-layer figures of a traced round off the obs stores.
Layered read_traced(const Workload& w, const Round& r, std::uint64_t lifecycle_t0,
                    std::uint64_t lifecycle_t1, std::uint64_t scn_t0,
                    std::uint64_t scn_t1, double eval_s) {
    Layered L;
    const std::vector<obs::TraceEvent> ev = obs::trace_events();
    std::vector<Interval> all, program, epochs, pools;
    double compress_ns = 0;
    std::uint64_t compress_calls = 0, last_epoch_end = 0;
    for (const obs::TraceEvent& e : ev) {
        if (e.tid >= 1000) continue;  // modelled timeline tracks
        const std::string n = e.name;
        all.push_back({e.t0_ns, e.t1_ns});
        if (n.rfind("bench.", 0) != 0) program.push_back({e.t0_ns, e.t1_ns});
        if (n == "dist.epoch") {
            epochs.push_back({e.t0_ns, e.t1_ns});
            last_epoch_end = std::max(last_epoch_end, e.t1_ns);
        }
        if (n == "pool.region") pools.push_back({e.t0_ns, e.t1_ns});
        if (n == "compress.forward" || n == "compress.backward") {
            compress_ns += static_cast<double>(e.t1_ns - e.t0_ns);
            ++compress_calls;
        }
    }
    L.epochs = r.train.epochs_run;
    const double E = std::max<double>(1.0, static_cast<double>(L.epochs));
    L.compress_ms = compress_ns * 1e-6 / E;
    L.compress_calls = static_cast<double>(compress_calls) / E;
    for (const Interval& ep : epochs) {
        L.epoch_span_ms += static_cast<double>(ep.b - ep.a) * 1e-6;
        for (const Interval& p : pools) {
            if (p.a >= ep.a && p.b <= ep.b) {
                L.pool_ms += static_cast<double>(p.b - p.a) * 1e-6;
                L.pool_regions += 1;
            }
        }
    }
    L.pool_ms /= E;
    L.pool_regions /= E;
    L.epoch_span_ms /= E;

    const std::vector<obs::MetricSample> snap = obs::registry().snapshot();
    L.ef_recovered_mb = sample_value(snap, "ef.bytes_recovered") / 1e6 / E;

    // Per-epoch ledger snapshots: cumulative counters → per-epoch deltas.
    obs::RunLedger& led = obs::ledger();
    const std::size_t ne = led.num_epochs();
    std::vector<double> alloc_d;
    double prev_alloc = 0, prev_msg = 0, prev_bytes = 0;
    std::map<std::string, double> prev_link;
    const bool flat = w.topology == "flat" && !w.overlap;
    const comm::CostModel cm = r.sc.pipeline.train.comm.cost;
    L.comm_checked = flat && ne > 0;
    for (std::size_t i = 0; i < ne; ++i) {
        const obs::EpochRecord rec = led.epoch(i);
        const double a = sample_value(rec.metrics, "alloc.count");
        if (i > 0) alloc_d.push_back(a - prev_alloc);
        prev_alloc = a;
        const double msg = sample_value(rec.metrics, "fabric.messages_sent");
        const double byt = sample_value(rec.metrics, "fabric.bytes_sent");
        L.messages += msg - prev_msg;
        L.bytes_mb += (byt - prev_bytes) / 1e6;
        prev_msg = msg;
        prev_bytes = byt;
        if (!flat) continue;
        // Recompute the fabric's NIC model from the per-link counters:
        // max over devices of α·(in+out messages) + (in+out bytes)/β.
        std::vector<double> dev_msgs(w.parts, 0.0), dev_bytes(w.parts, 0.0);
        for (const obs::MetricSample& m : rec.metrics) {
            if (m.name.rfind("fabric.link.", 0) != 0) continue;
            const bool is_bytes = m.name.size() > 6 &&
                                  m.name.compare(m.name.size() - 6, 6, ".bytes") == 0;
            const bool is_msgs = m.name.size() > 9 &&
                                 m.name.compare(m.name.size() - 9, 9, ".messages") == 0;
            if (!is_bytes && !is_msgs) continue;
            unsigned src = 0, dst = 0;
            if (std::sscanf(m.name.c_str(), "fabric.link.%u->%u.", &src, &dst) != 2)
                continue;
            const double delta = m.value - prev_link[m.name];
            prev_link[m.name] = m.value;
            auto& dv = is_bytes ? dev_bytes : dev_msgs;
            dv[src] += delta;
            dv[dst] += delta;
        }
        double worst = 0;
        for (std::uint32_t d = 0; d < w.parts; ++d)
            worst = std::max(worst, cm.latency_s * dev_msgs[d] +
                                        dev_bytes[d] / cm.bandwidth_bytes_per_s);
        const double program_ms = rec.comm_ms;
        const double err = std::abs(worst * 1e3 - program_ms) /
                           std::max(1e-12, std::abs(program_ms));
        L.comm_ms_max_err = std::max(L.comm_ms_max_err, err);
    }
    L.messages /= E;
    L.bytes_mb /= E;
    L.alloc_steady = median(alloc_d);
    L.report_kb = static_cast<double>(led.to_json().size()) / 1024.0;

    const double life_ns = static_cast<double>(lifecycle_t1 - lifecycle_t0);
    L.untraced_pct = 100.0 * (1.0 - covered_ns(all, lifecycle_t0, lifecycle_t1) / life_ns);
    const double scn_ns = static_cast<double>(scn_t1 - scn_t0);
    L.scenario_untraced_pct =
        100.0 * (1.0 - covered_ns(program, scn_t0, scn_t1) / scn_ns);
    // Post-train residual: scenario time after the last epoch, minus the
    // full-graph evaluation passes (train, val when present, test).
    L.eval_passes = 2.0 + (r.train.val_accuracy > 0.0 ? 1.0 : 0.0);
    if (last_epoch_end > 0)
        L.post_train_s = std::max(
            0.0, static_cast<double>(scn_t1 - last_epoch_end) * 1e-9 -
                     L.eval_passes * eval_s);
    return L;
}

Primitives time_primitives(const Workload& w, const runtime::ScenarioConfig& sc,
                           const graph::Dataset& data) {
    Primitives p;
    const tensor::SparseMatrix adj =
        gnn::normalized_adjacency(data.graph, sc.pipeline.train.norm);
    Rng rng(7);
    const tensor::Matrix weight = tensor::Matrix::glorot(
        data.features.cols(), sc.pipeline.model.hidden_dim, rng);
    std::vector<double> spmm, gemm, eval;
    gnn::GnnModel model(sc.pipeline.model);
    gnn::SpmmAggregator agg(adj);
    for (int i = 0; i < 5; ++i) {
        std::int64_t t0 = now_ns();
        const tensor::Matrix y = tensor::spmm(adj, data.features);
        spmm.push_back(since_s(t0) * 1e3);
        t0 = now_ns();
        const tensor::Matrix z = tensor::matmul(data.features, weight);
        gemm.push_back(since_s(t0) * 1e3);
        t0 = now_ns();
        const double acc = gnn::evaluate_accuracy(model, agg, data.features,
                                                  data.labels, data.test_mask);
        eval.push_back(since_s(t0) * 1e3);
        if (y.rows() == 0 || z.rows() == 0 || !(acc >= 0.0))
            throw std::runtime_error("primitive produced no output");
    }
    p.spmm_ms = median(spmm);
    p.gemm_ms = median(gemm);
    p.eval_ms = median(eval);
    if (w.weight_sync) {
        std::uint64_t param_bytes = 0;
        for (const tensor::Matrix* m : model.parameters())
            param_bytes += m->payload_bytes();
        const auto& cp = sc.pipeline.train.comm;
        const comm::Topology topo = comm::Topology::build(
            cp.topology, w.parts,
            comm::TierModel{cp.cost.latency_s, cp.cost.bandwidth_bytes_per_s});
        comm::Fabric fabric(topo);
        comm::collective::Allreduce ar(topo, cp.collective, param_bytes);
        (void)ar.run(fabric);
        p.weight_sync_mb = static_cast<double>(fabric.epoch_stats().bytes) / 1e6;
    }
    return p;
}

// -------------------------------------------------------------- reporting

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    }
    return "unknown";
}

std::string json_array(const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
        s += buf;
    }
    return s + "]";
}

/// Facts and measurements of a whole run, for run.py's checks and metrics.
std::string report(const Workload& w, unsigned threads, std::uint64_t seed,
                   const std::vector<Round>& rounds, bool trace,
                   const std::vector<Layered>& layered, const Primitives& prim) {
    JsonOut o;
    o.str("workload", w.name);
    o.num("seed", static_cast<double>(seed));
    o.num("threads", threads);
    o.str("build_type", PERFBENCH_BUILD_TYPE);
    o.str("cxx_flags", PERFBENCH_CXX_FLAGS);
    o.str("compiler", PERFBENCH_COMPILER);
    o.str("cpu", cpu_model());
    o.boolean("ctx_hook", kCtxHook);
    o.num("rounds", static_cast<double>(rounds.size()));

    std::vector<const Round*> plain, traced;
    for (const Round& r : rounds) (r.traced ? traced : plain).push_back(&r);
    const Round& last = rounds.back();

    // Operations: epochs (fail on a non-finite loss or a stale halo) and
    // queries (fail when their stream overflowed the latency histogram).
    std::uint64_t attempted = 0, failed = 0;
    for (const Round& r : rounds) {
        const std::uint64_t epochs = r.train.epochs_run;
        attempted += epochs;
        if (r.train.fault.stale_uses > 0) {
            failed += epochs;
        } else {
            for (const dist::EpochMetrics& m : r.train.epoch_metrics)
                if (!std::isfinite(m.loss)) ++failed;
        }
        for (const Probe& p : r.probes) {
            attempted += p.res.queries;
            if (p.hist_overflow) failed += p.res.queries;
        }
    }
    o.num("attempted", static_cast<double>(attempted));
    o.num("failed", static_cast<double>(failed));

    // End-to-end figures (untraced rounds only).
    std::vector<double> setup, wall, epoch_ms;
    double serve_run_s = 0;
    std::uint64_t serve_q = 0;
    for (const Round* r : plain) {
        setup.push_back(r->setup_s);
        wall.push_back(r->run_wall_s);
        for (std::size_t e = 1; e < r->epoch_wall_ms.size(); ++e)
            epoch_ms.push_back(r->epoch_wall_ms[e]);
        serve_run_s += r->serve_run_s;
        serve_q += r->serve_queries;
    }
    // Modelled figures: median over the plain rounds' inputs.
    auto over_plain = [&](auto get) {
        std::vector<double> v;
        for (const Round* r : plain) v.push_back(get(*r));
        return median(v);
    };
    const runtime::ServeResult& heavy = last.probes[last.heavy].res;
    {
        JsonOut m;
        m.num("setup_s", median(setup));
        m.num("run_wall_s", median(wall));
        m.num("epoch_wall_ms", median(epoch_ms));
        m.num("peak_rss_mb", peak_rss_mb());
        m.num("comm_mb_per_epoch", over_plain([](const Round& r) { return r.train.mean_comm_mb; }));
        m.num("comm_ms_per_epoch", over_plain([](const Round& r) { return r.train.mean_comm_ms; }));
        m.num("final_loss", over_plain([](const Round& r) { return r.train.final_loss; }));
        m.num("test_acc", over_plain([](const Round& r) { return r.train.test_accuracy; }));
        m.num("serve_sim_qps", serve_run_s > 0 ? serve_q / serve_run_s : 0.0);
        m.num("serve_p50_ms.light",
              over_plain([](const Round& r) { return r.probes[r.light].res.p50_ms; }));
        m.num("serve_p99_ms.light",
              over_plain([](const Round& r) { return r.probes[r.light].res.p99_ms; }));
        m.num("serve_p99_ms.heavy",
              over_plain([](const Round& r) { return r.probes[r.heavy].res.p99_ms; }));
        m.num("serve_max_qps", over_plain([](const Round& r) { return r.max_qps; }));
        o.raw("end_to_end", m.text());
    }

    // Per-layer figures (traced rounds; overhead against the plain ones).
    if (trace && !traced.empty()) {
        auto med = [&](auto get) {
            std::vector<double> v;
            for (const Layered& l : layered) v.push_back(get(l));
            return median(v);
        };
        auto med_r = [&](auto get) {
            std::vector<double> v;
            for (const Round& r : rounds) v.push_back(get(r));
            return median(v);
        };
        std::vector<double> traced_epoch_ms, server_ctor_s;
        double resolve_s = 0;
        std::uint64_t resolve_q = 0;
        for (const Round* r : traced)
            for (std::size_t e = 1; e < r->epoch_wall_ms.size(); ++e)
                traced_epoch_ms.push_back(r->epoch_wall_ms[e]);
        for (const Round* r : plain) {
            for (const Probe& p : r->probes) {
                server_ctor_s.push_back(p.ctor_s);
                resolve_s += p.run_s;
                resolve_q += p.res.queries;
            }
        }
        const double plain_epoch = median(epoch_ms);
        JsonOut m;
        m.num("run_wall_s", median(wall));
        m.num("epoch_wall_ms", plain_epoch);
        m.num("graph.make_dataset_s", med_r([](const Round& r) { return r.ds_s; }));
        m.num("partition.make_partitioning_s", med_r([](const Round& r) { return r.part_s; }));
        m.num("partition.cut_edges", static_cast<double>(last.own_cut_train));
        m.num("dist.context_build_s", med_r([](const Round& r) { return r.ctx_s; }));
        m.num("dist.context_builds", static_cast<double>(last.ctx_builds_in_scenario));
        m.num("core.grouping_setup_s", med_r([](const Round& r) { return r.grp_s; }));
        m.num("core.wire_rows", static_cast<double>(last.pipe.wire_rows));
        m.num("core.compression_ratio", last.pipe.compression_ratio);
        m.num("core.post_train_s", med([](const Layered& l) { return l.post_train_s; }));
        m.num("tensor.spmm_ms", prim.spmm_ms);
        m.num("tensor.gemm_ms", prim.gemm_ms);
        m.num("gnn.eval_ms", prim.eval_ms);
        m.num("gnn.first_epoch_ms", med_r([](const Round& r) {
                  return r.epoch_wall_ms.empty() ? 0.0 : r.epoch_wall_ms[0];
              }));
        m.num("dist.compress_ms_per_epoch", med([](const Layered& l) { return l.compress_ms; }));
        m.num("dist.compress_calls_per_epoch", med([](const Layered& l) { return l.compress_calls; }));
        m.num("dist.ef_recovered_mb_per_epoch", med([](const Layered& l) { return l.ef_recovered_mb; }));
        const double E = std::max(1.0, static_cast<double>(last.train.epochs_run));
        m.num("dist.sample_batch_ms", med_r([](const Round& r) { return r.sample_batch_ms; }));
        m.num("dist.batches_per_epoch", static_cast<double>(last.train.sampling.batches) / E);
        m.num("dist.mean_batch_nodes", last.train.sampling.mean_batch_nodes);
        m.num("dist.requested_rows_per_epoch",
              static_cast<double>(last.train.sampling.requested_rows) / E);
        m.num("comm.messages_per_epoch", med([](const Layered& l) { return l.messages; }));
        m.num("comm.bytes_mb_per_epoch", med([](const Layered& l) { return l.bytes_mb; }));
        m.num("comm.weight_sync_mb_per_epoch", prim.weight_sync_mb);
        m.num("runtime.migrated_mb",
              static_cast<double>(last.train.membership.migrated_bytes) / 1e6);
        m.num("runtime.rebuild_ms", last.train.membership.rebuild_ms);
        m.num("serve.server_setup_s", median(server_ctor_s));
        m.num("serve.resolve_us_per_query", resolve_q ? resolve_s / resolve_q * 1e6 : 0.0);
        m.num("serve.hit_rate", heavy.hit_rate);
        m.num("serve.halo_mb", heavy.halo_mb);
        m.num("serve.mean_batch", heavy.mean_batch);
        m.num("serve.max_ms", heavy.max_ms);
        m.num("common.pool_region_ms_per_epoch", med([](const Layered& l) { return l.pool_ms; }));
        m.num("common.pool_regions_per_epoch", med([](const Layered& l) { return l.pool_regions; }));
        m.num("common.pool_cover_pct", med([](const Layered& l) {
                  return l.epoch_span_ms > 0 ? 100.0 * l.pool_ms / l.epoch_span_ms : 0.0;
              }));
        m.num("obs.alloc_per_steady_epoch", med([](const Layered& l) { return l.alloc_steady; }));
        m.num("obs.report_kb", med([](const Layered& l) { return l.report_kb; }));
        m.num("obs.trace_overhead_pct",
              plain_epoch > 0 ? 100.0 * (median(traced_epoch_ms) / plain_epoch - 1.0) : 0.0);
        m.num("obs.untraced_pct", med([](const Layered& l) { return l.untraced_pct; }));
        m.num("obs.scenario_untraced_pct",
              med([](const Layered& l) { return l.scenario_untraced_pct; }));
        o.raw("per_layer", m.text());
    }

    // Facts for the output checks, one object per round.
    bool comm_checked = false;
    double comm_err = 0;
    for (const Layered& l : layered) {
        comm_checked = comm_checked || l.comm_checked;
        comm_err = std::max(comm_err, l.comm_ms_max_err);
    }
    o.boolean("comm_checked", comm_checked);
    o.num("comm_ms_rel_err", comm_err);
    o.boolean("samples_expected", w.mode == runtime::ScenarioMode::kSampleTrain);
    std::string facts = "[";
    for (std::size_t ri = 0; ri < rounds.size(); ++ri) {
        const Round& r = rounds[ri];
        JsonOut f;
        std::vector<double> losses;
        for (const dist::EpochMetrics& m : r.train.epoch_metrics) losses.push_back(m.loss);
        f.raw("losses", json_array(losses));
        f.num("stale_uses", static_cast<double>(r.train.fault.stale_uses));
        f.num("test_acc", r.train.test_accuracy);
        f.num("majority_share", r.majority_share);
        f.num("program_cut_edges", static_cast<double>(r.pipe.partition_quality.cut_edges));
        f.num("program_cross_edges", static_cast<double>(r.pipe.cross_edges));
        f.num("own_cut_edges", static_cast<double>(r.own_cut_train));
        f.num("sample_batches", static_cast<double>(r.audit.batches));
        f.num("sample_consumers", static_cast<double>(r.audit.consumers));
        f.num("sample_over_fanout", static_cast<double>(r.audit.over_fanout));
        f.num("sample_non_edges", static_cast<double>(r.audit.non_edges));
        const runtime::ServeConfig cfg = serve_config(r.sc, w, Seeds(seed, ri), 1.0);
        f.num("hist_max_ms", cfg.hist_max_ms);
        f.num("dispatch_overhead_ms", cfg.dispatch_overhead_ms);
        f.num("compute_ms_per_node", cfg.compute_ms_per_node);
        f.num("mean_ball", r.mean_ball);
        std::string probes = "[";
        for (std::size_t i = 0; i < r.probes.size(); ++i) {
            const Probe& p = r.probes[i];
            JsonOut q;
            q.num("qps", p.qps);
            q.num("p50_ms", p.res.p50_ms);
            q.num("p99_ms", p.res.p99_ms);
            q.num("max_ms", p.res.max_ms);
            q.num("mean_ms", p.res.mean_ms);
            probes += (i ? ", " : "") + q.text();
        }
        f.raw("probes", probes + "]");
        f.num("p99_limit_ms", w.ladder.p99_limit_ms);
        f.num("max_qps", r.max_qps);
        f.num("max_p99_ms", r.max_p99_ms);
        f.num("next_p99_ms", r.next_p99_ms);
        f.boolean("grid_low_fails", r.grid_low_fails);
        f.boolean("grid_top_passes", r.grid_top_passes);
        facts += (ri ? ", " : "") + f.text();
    }
    o.raw("facts", facts + "]");
    return o.text();
}

// ------------------------------------------------------------------ main

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--threads <n>]\n"
                 "       perfbench_driver --selftest\n");
    return 2;
}

int selftest();

} // namespace

int main(int argc, char** argv) {
    std::string name;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned threads = 4;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--selftest") return selftest();
        if (i + 1 >= argc) return usage();
        const char* v = argv[++i];
        if (a == "--workload") name = v;
        else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds") seconds = std::atof(v);
        else if (a == "--trace") trace = std::atoi(v) != 0;
        else if (a == "--threads") threads = static_cast<unsigned>(std::atoi(v));
        else return usage();
    }
    const std::vector<Workload> all = workloads();
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const Workload& w) { return w.name == name; });
    if (it == all.end() || threads < 1 || !(seconds > 0)) return usage();
    const Workload& w = *it;

    set_num_threads(threads);
    obs::set_trace_capacity(std::size_t{1} << 20);

    std::vector<Round> rounds;
    std::vector<Layered> layered;
    Primitives prim;
    const std::int64_t run_t0 = now_ns();
    double round_s_max = 0;
    while (true) {
        // Traced runs alternate plain and traced rounds (plain first).
        const bool traced = trace && rounds.size() % 2 == 1;
        if (traced) {
            obs::reset();
            obs::reset_alloc_stats();
            obs::set_alloc_tracking(true);
            obs::set_enabled(true);
        }
        const Seeds seeds(seed, rounds.size());
        const std::int64_t t0 = now_ns();
        const auto life0 = obs::detail::trace_now_ns();
        Round r = run_round(w, seeds, traced,
                            traced && layered.empty() ? &prim : nullptr);
        const auto life1 = obs::detail::trace_now_ns();
        if (traced) {
            obs::set_enabled(false);
            obs::set_alloc_tracking(false);
            const auto base = static_cast<std::uint64_t>(life0);
            const std::uint64_t scn0 =
                base + static_cast<std::uint64_t>(r.scn_t0_ns - t0);
            const std::uint64_t scn1 =
                base + static_cast<std::uint64_t>(r.scn_t1_ns - t0);
            layered.push_back(read_traced(w, r, life0, life1, scn0, scn1,
                                          prim.eval_ms * 1e-3));
        }
        round_s_max = std::max(round_s_max, since_s(t0));
        rounds.push_back(std::move(r));
        // Whole rounds only: start another when it should end in time; a
        // traced run needs at least one plain and one traced round.
        const double elapsed = since_s(run_t0);
        const std::size_t min_rounds = trace ? 2 : 1;
        if (rounds.size() >= min_rounds && elapsed + round_s_max > seconds) break;
    }
    std::printf("%s\n", report(w, num_threads(), seed, rounds, trace,
                               layered, prim)
                            .c_str());
    return 0;
}

namespace {

// ------------------------------------------------------------- self-tests

/// The driver-side halves of the output checks must catch a violation:
/// feed each one an input built to break it.
int selftest() {
    int bad = 0;
    auto expect = [&](bool ok, const char* what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
        if (!ok) ++bad;
    };
    // A path 0-1-2-3 split {0,1} | {2,3} cuts exactly one edge; moving
    // node 1 across cuts two.
    const std::vector<graph::Edge> path{{0, 1}, {1, 2}, {2, 3}};
    const graph::Graph g(4, path);
    partition::Partitioning p;
    p.num_parts = 2;
    p.part_of = {0, 0, 1, 1};
    expect(own_cut_edges(g, p) == 1, "own_cut_edges counts a single cut edge");
    p.part_of = {0, 1, 1, 1};
    expect(own_cut_edges(g, p) == 1, "own_cut_edges follows the partition");
    p.part_of = {0, 1, 0, 1};
    expect(own_cut_edges(g, p) == 3, "own_cut_edges counts every cut edge");
    // BFS balls on the path.
    expect(ball_size(g, 0, 1) == 2 && ball_size(g, 1, 2) == 4 &&
               ball_size(g, 3, 0) == 1,
           "ball_size matches hand-counted balls");
    // Sample audit: a batch that samples a non-edge and exceeds fanout 1.
    {
        const graph::Dataset data = graph::make_dataset(
            graph::DatasetPreset::kPubMedSim, 0.1, 5);
        partition::Partitioning one;
        one.num_parts = 2;
        one.part_of.assign(data.graph.num_nodes(), 0);
        for (std::uint32_t v = 0; v < data.graph.num_nodes(); v += 2) one.part_of[v] = 1;
        const dist::DistContext ctx(data, one, gnn::AdjNorm::kSymmetric);
        dist::SamplerConfig cfg;
        cfg.batch_size = 64;
        cfg.fanout = {3, 2};
        dist::NeighborSampler sampler(data, ctx, gnn::AdjNorm::kSymmetric, 2, cfg);
        sampler.begin_epoch(0);
        const dist::SampledBatch batch = sampler.batch(0);
        SampleAudit clean;
        audit_batch(data.graph, ctx, batch, {3, 2}, clean);
        expect(clean.consumers > 0 && clean.over_fanout == 0 && clean.non_edges == 0,
               "audit passes a batch the sampler drew");
        SampleAudit tight;
        audit_batch(data.graph, ctx, batch, {0, 0}, tight);
        expect(tight.over_fanout > 0, "audit flags a batch over its fanout");
        // Point one sampled column at a node that is no neighbour of its
        // consumer.
        dist::SampledBatch forged = batch;
        bool forged_one = false;
        for (const tensor::SparseMatrix& m : forged.local_adj) {
            for (std::size_t r = 0; r < m.rows() && !forged_one; ++r) {
                const std::uint32_t u = forged.nodes[r];
                for (const std::uint32_t col : m.row_cols(r)) {
                    if (forged.nodes[col] == u) continue;
                    for (std::uint32_t v = 0; v < data.graph.num_nodes(); ++v) {
                        if (v != u && !data.graph.has_edge(u, v)) {
                            forged.nodes[col] = v;
                            forged_one = true;
                            break;
                        }
                    }
                    break;
                }
            }
            if (forged_one) break;
        }
        SampleAudit broken;
        audit_batch(data.graph, ctx, forged, {3, 2}, broken);
        expect(forged_one && broken.non_edges > 0, "audit flags a sampled non-edge");
    }
    std::printf("%d failure(s)\n", bad);
    return bad == 0 ? 0 : 1;
}

} // namespace
