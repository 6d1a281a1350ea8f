// bench_repro: the paper's experiment section — Fig. 2, Figs. 5-7,
// Tables 2-4 and the ablations — one figure per invocation:
//
//   bench_repro --figure=<id> [--scale=...] [--mc=...] [--max_k=...]
//
// Every figure prints a fixed-width table (the paper's rows/series) and
// writes the same rows to results/<id>.csv. `bench_repro --help` lists the
// ids; `--figure=<id> --help` lists that figure's flags and defaults.
//
// Most figures are data: panels (dataset, shrink, model, opinion layer,
// k cap) of selectors (Series) run by one k-grid runner, which either
// evaluates spread at SeedGrid prefixes or times Select at each k. The
// rest are one function each. Selection goes through HolimEngine except
// where a figure measures a selector's own footprint (5h, 6i, 6j, 7j) or
// needs a knob SolveRequest does not carry (ActivationStrategy, 7j's
// mc_rounds, the IC-N objective).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/celf.h"
#include "algo/greedy.h"
#include "algo/icn_objective.h"
#include "algo/score_greedy.h"
#include "algo/tim_plus.h"
#include "bench_support/engine_support.h"
#include "common.h"
#include "data/churn.h"
#include "data/twitter.h"
#include "diffusion/independent_cascade.h"
#include "diffusion/oc_model.h"
#include "diffusion/oi_model.h"
#include "graph/stats.h"
#include "graph/subgraph.h"

using namespace holim;
using namespace holim::bench;

namespace {

constexpr double kNoCap = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------ table types

/// Which opinion layer a panel's selectors and evaluation see.
enum class Opinions {
  kNone,     // plain spread
  kNormal,   // o ~ N(0,1), phi ~ U(0,1)
  kUniform,  // o ~ U(-1,1), phi ~ U(0,1)
  // The Twitter corpus substrate: its background graph with IC p = 0.12
  // and the estimated opinions (the panel's dataset/model are unused).
  kTwitterCorpus,
};

/// How a series selects relative to the panel's opinion layer.
enum class Variant {
  kPlain,
  kClipped,  // lambda = 0: negative opinions zeroed during selection
  kOc,       // the OC special case: LT weights, phi == 1, LT base
};

/// Which k values a series runs at, from the panel's max_k.
enum class KGrid {
  kFull,       // SeedGrid(max_k)
  kUpTo,       // SeedGrid(min(max_k, k)): a GREEDY reference budget
  kAt,         // exactly {k}
  kLowerHalf,  // the SeedGrid(max_k) points <= max_k / 2
};

/// One selector of a panel: an engine request and its CSV label.
struct Series {
  std::string label;  // empty: the selector's display name
  const char* algorithm = "easyim";
  uint32_t l = 3;
  double epsilon = 0.1;
  std::size_t max_theta = 2'000'000;
  uint32_t mc = 0;         // 0: --mc
  bool mc_cap = false;     // mc caps --mc instead of replacing it
  KGrid grid = KGrid::kFull;
  uint32_t k = 0;          // kUpTo / kAt parameter
  Variant variant = Variant::kPlain;
};

/// One dataset/model/opinion setup of a figure.
struct Panel {
  std::vector<std::string> cells;  // leading CSV cells of every row
  std::string dataset = "NetHEPT";
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  double shrink = 1.0;       // scale = min(--scale * shrink, scale_cap)
  double scale_cap = kNoCap;
  Opinions opinions = Opinions::kNone;
  bool phi_one = false;      // interaction override phi == 1
  int instances = 1;         // opinion instances averaged (seed + 1000 i)
  uint32_t k_div = 1;        // max_k = min(--max_k / k_div, n / n_div)
  uint32_t n_div = 0;        // 0: no node-count cap
  std::vector<Series> series;
};

enum class Layout {
  kBySeries,       // series by series, k within
  kBySeriesTimed,  // kBySeries plus the series' select seconds
  kByK,            // k by k, series within
  kWide,           // one row per k, one column per series
};

/// A k-grid figure: quality (spread at prefixes of one max-k selection)
/// or time (Select seconds at every k).
struct KGridSpec {
  std::vector<std::string> columns;
  Layout layout;
  bool timed;
  std::vector<Panel> panels;
};

struct ExtraFlag {
  const char* name;
  double default_value;
  const char* help;
};

struct Context;

struct Figure {
  const char* id;  // also the CSV stem: results/<id>.csv
  const char* title;
  double scale;                 // the figure's own --scale default
  double scale_cap = kNoCap;    // whole-figure cap on --scale
  CommonOptionsSpec options{};  // --oracle / --rescore
  std::vector<ExtraFlag> extra;
  const char* expected = "";
  std::optional<KGridSpec> kgrid;         // a k-grid runner figure, or
  Status (*run)(const Context&) = nullptr;  // its own function
};

struct Context {
  const Figure& fig;
  const BenchArgs& args;
  CommonBenchConfig config;
  CommonOptions common;

  double Extra(const std::string& name) const {
    for (const ExtraFlag& flag : fig.extra) {
      if (name == flag.name) return args.GetDouble(name, flag.default_value);
    }
    HOLIM_CHECK(false);  // every figure reads only flags it declares
    return 0;
  }
};

ResultTable Table(const Context& ctx, std::vector<std::string> columns) {
  return ResultTable(ctx.fig.title, std::move(columns), CsvPath(ctx.fig.id));
}

// ------------------------------------------------------- the k-grid runner

std::vector<uint32_t> SeriesGrid(const Series& s, uint32_t max_k) {
  switch (s.grid) {
    case KGrid::kFull:
      return SeedGrid(max_k);
    case KGrid::kUpTo:
      return SeedGrid(std::min(max_k, s.k));
    case KGrid::kAt:
      return {s.k};
    case KGrid::kLowerHalf: {
      std::vector<uint32_t> grid = SeedGrid(max_k);
      std::erase_if(grid, [&](uint32_t k) { return k > max_k / 2; });
      return grid;
    }
  }
  return {};
}

struct Substrate {
  Workload w;
  std::optional<OpinionParams> estimated;  // kTwitterCorpus only
};

Result<Substrate> LoadSubstrate(const Panel& panel,
                                const CommonBenchConfig& config) {
  Substrate sub;
  if (panel.opinions == Opinions::kTwitterCorpus) {
    TwitterCorpusOptions options;
    options.num_users =
        static_cast<NodeId>(std::max(3000.0, 1'600'000 * config.scale * 0.1));
    options.num_topics = 6;
    options.seed = config.seed;
    HOLIM_ASSIGN_OR_RETURN(TwitterCorpus corpus, BuildTwitterCorpus(options));
    sub.w.graph = std::move(corpus.background);
    sub.w.params = MakeUniformIc(sub.w.graph, 0.12);
    sub.estimated = std::move(corpus.estimated);
    return sub;
  }
  HOLIM_ASSIGN_OR_RETURN(
      sub.w, LoadWorkload(panel.dataset,
                          std::min(config.scale * panel.shrink,
                                   panel.scale_cap),
                          panel.model));
  return sub;
}

bool HillClimbs(const Series& s) {
  const std::string name = s.algorithm;
  return name == "greedy" || name == "celf" || name == "celf++";
}

Status RunPanel(const Context& ctx, const KGridSpec& spec, const Panel& panel,
                ResultTable* table) {
  const CommonBenchConfig& config = ctx.config;
  HOLIM_ASSIGN_OR_RETURN(Substrate sub, LoadSubstrate(panel, config));
  const Graph& graph = sub.w.graph;
  const InfluenceParams& params = sub.w.params;
  const bool opinion = panel.opinions != Opinions::kNone;
  // O(1) EdgeSource in the opinion replay of the evaluation.
  if (opinion && !spec.timed) sub.w.graph.BuildEdgeSourceIndex();
  const OiBase base = panel.model == DiffusionModel::kLinearThreshold
                          ? OiBase::kLinearThreshold
                          : OiBase::kIndependentCascade;

  // Opinion layers (per instance, per Variant) precede the engine: its
  // Workspace retains cached selectors that reference them.
  InfluenceParams lt;
  std::vector<std::array<OpinionParams, 3>> layers;
  if (opinion) {
    lt = MakeLinearThreshold(graph);
    for (int i = 0; i < panel.instances; ++i) {
      OpinionParams o =
          sub.estimated ? *sub.estimated
                        : MakeRandomOpinions(
                              graph,
                              panel.opinions == Opinions::kNormal
                                  ? OpinionDistribution::kStandardNormal
                                  : OpinionDistribution::kUniform,
                              config.seed + 1000 * i);
      if (panel.phi_one) {
        std::fill(o.interaction.begin(), o.interaction.end(), 1.0);
      }
      OpinionParams clipped = o;
      for (double& v : clipped.opinion) v = std::max(0.0, v);
      OpinionParams phi_one = o;
      std::fill(phi_one.interaction.begin(), phi_one.interaction.end(), 1.0);
      layers.push_back({std::move(o), std::move(clipped), std::move(phi_one)});
    }
  }

  uint32_t max_k = config.max_k / panel.k_div;
  if (panel.n_div != 0) {
    max_k = std::min<uint32_t>(max_k, graph.num_nodes() / panel.n_div);
  }
  HolimEngine engine(graph);
  // --oracle=sketch evaluates over one Workspace snapshot set; when a
  // series hill-climbs on the sketch worlds (seeded --seed), every series
  // is judged on an independently seeded set (--seed + 1) instead, so
  // the hill-climber gets no in-sample advantage.
  std::shared_ptr<const SketchOracle> sketch;
  if (!spec.timed && ctx.common.oracle == SpreadOracle::kSketch) {
    const bool held_out =
        std::any_of(panel.series.begin(), panel.series.end(), HillClimbs);
    sketch = GetBenchSketchOracle(engine, graph, params, config,
                                  held_out ? 1 : 0,
                                  /*record_edge_offsets=*/opinion);
  }

  const std::size_t n_series = panel.series.size();
  std::vector<std::vector<uint32_t>> grids(n_series);
  std::vector<std::vector<double>> values(n_series);
  std::vector<std::string> labels(n_series);
  std::vector<double> seconds(n_series, 0.0);
  for (std::size_t s = 0; s < n_series; ++s) {
    const Series& series = panel.series[s];
    grids[s] = SeriesGrid(series, max_k);
    values[s].assign(grids[s].size(), 0.0);
    labels[s] = series.label;
    for (int i = 0; i < panel.instances; ++i) {
      const OpinionParams* layer =
          opinion ? &layers[i][static_cast<int>(series.variant)] : nullptr;
      auto solve = [&](uint32_t k) -> Result<SolveResult> {
        const bool oc = series.variant == Variant::kOc;
        SolveRequest r = MakeSolveRequest(series.algorithm, k,
                                          oc ? lt : params, config,
                                          ctx.common);
        r.opinions = layer;
        r.oi_base = oc ? OiBase::kLinearThreshold : base;
        r.l = series.l;
        r.epsilon = series.epsilon;
        r.max_theta = series.max_theta;
        if (series.mc != 0) {
          r.mc = series.mc_cap ? std::min(config.mc, series.mc) : series.mc;
        }
        r.num_sketches = config.mc;  // sketch selection worlds R = --mc
        HOLIM_ASSIGN_OR_RETURN(SolveResult sel, engine.Solve(r));
        if (series.label.empty()) labels[s] = sel.algorithm;
        seconds[s] = sel.select_seconds;
        return sel;
      };
      if (spec.timed) {
        for (std::size_t j = 0; j < grids[s].size(); ++j) {
          HOLIM_ASSIGN_OR_RETURN(SolveResult sel, solve(grids[s][j]));
          values[s][j] = sel.select_seconds;
        }
        continue;
      }
      // One selection of the series' largest k (0 fails as InvalidArgument,
      // like any k = 0 solve), evaluated at each grid prefix.
      HOLIM_ASSIGN_OR_RETURN(
          SolveResult sel,
          solve(series.grid == KGrid::kUpTo ? std::min(max_k, series.k)
                                            : max_k));
      // Every series is judged under the panel's own dynamics.
      const OpinionParams* truth = opinion ? &layers[i][0] : nullptr;
      const std::vector<double> v =
          truth == nullptr
              ? (sketch ? SpreadAtPrefixesSketch(*sketch, sel.seeds, grids[s])
                        : SpreadAtPrefixes(graph, params, sel.seeds, grids[s],
                                           config.mc, config.seed))
              : (sketch ? OpinionSpreadAtPrefixesSketch(
                              *sketch, *truth, sel.seeds, grids[s], 1.0)
                        : OpinionSpreadAtPrefixes(graph, params, *truth, base,
                                                  sel.seeds, grids[s], 1.0,
                                                  config.mc, config.seed));
      for (std::size_t j = 0; j < v.size(); ++j) {
        values[s][j] += v[j] / panel.instances;
      }
    }
  }

  auto add_row = [&](std::size_t s, std::size_t j) {
    std::vector<std::string> cells = panel.cells;
    cells.push_back(labels[s]);
    cells.push_back(std::to_string(grids[s][j]));
    cells.push_back(CsvWriter::Num(values[s][j]));
    if (spec.layout == Layout::kBySeriesTimed) {
      cells.push_back(CsvWriter::Num(seconds[s]));
    }
    table->AddRow(cells);
  };
  const std::vector<uint32_t> main_grid = SeedGrid(max_k);
  switch (spec.layout) {
    case Layout::kBySeries:
    case Layout::kBySeriesTimed:
      for (std::size_t s = 0; s < n_series; ++s) {
        for (std::size_t j = 0; j < grids[s].size(); ++j) add_row(s, j);
      }
      break;
    case Layout::kByK:
      for (uint32_t k : main_grid) {
        for (std::size_t s = 0; s < n_series; ++s) {
          const auto at = std::find(grids[s].begin(), grids[s].end(), k);
          if (at != grids[s].end()) add_row(s, at - grids[s].begin());
        }
      }
      break;
    case Layout::kWide:
      for (std::size_t j = 0; j < main_grid.size(); ++j) {
        std::vector<std::string> cells = panel.cells;
        cells.push_back(std::to_string(main_grid[j]));
        for (std::size_t s = 0; s < n_series; ++s) {
          cells.push_back(CsvWriter::Num(values[s][j]));
        }
        table->AddRow(cells);
      }
      break;
  }
  return Status::OK();
}

Status RunKGrid(const Context& ctx) {
  const KGridSpec& spec = *ctx.fig.kgrid;
  ResultTable table = Table(ctx, spec.columns);
  for (const Panel& panel : spec.panels) {
    HOLIM_RETURN_NOT_OK(RunPanel(ctx, spec, panel, &table));
  }
  table.Print();
  return Status::OK();
}

// ------------------------------------------- figures with their own shape

/// The three models' predicted opinion spread of `seeds` on one topic's
/// recorded activation trace (Figs. 5a-5b). The topic subgraph IS the
/// trace (every node in it tweeted), so the first layer replays it with
/// p = 1 and the models differ only in their opinion dynamics.
struct Prediction {
  double oi, oc, ic;
};

Prediction PredictTopic(const TopicData& topic, const OpinionParams& estimated,
                        const std::vector<NodeId>& seeds,
                        const McOptions& mc) {
  const Graph& sub = topic.subgraph.graph;
  OpinionParams local;
  local.opinion = ProjectNodeValues(topic.subgraph, estimated.opinion);
  local.interaction = ProjectEdgeValues(topic.subgraph, estimated.interaction);
  InfluenceParams influence = MakeUniformIc(sub, 1.0);
  InfluenceParams lt = MakeLinearThreshold(sub);
  Prediction p;
  // OI: estimated opinions + estimated interactions.
  p.oi = EstimateOpinionSpread(sub, influence, local,
                               OiBase::kIndependentCascade, seeds, 1.0, mc)
             .opinion_spread;
  // OC: LT layer, opinion averaging without interaction.
  p.oc = EstimateOcOpinionSpread(sub, lt, local, seeds, mc);
  // IC: opinion-oblivious activation; each activated node contributes its
  // static estimated opinion (no change dynamics).
  IcSimulator sim(sub, influence);
  Rng rng(mc.seed);
  double acc = 0;
  for (uint32_t r = 0; r < mc.num_simulations; ++r) {
    const Cascade& cascade = sim.Run(seeds, rng);
    for (std::size_t i = seeds.size(); i < cascade.order.size(); ++i) {
      acc += local.opinion[cascade.order[i].node];
    }
  }
  p.ic = acc / mc.num_simulations;
  return p;
}

McOptions Mc(uint32_t simulations, uint64_t seed) {
  McOptions mc;
  mc.num_simulations = simulations;
  mc.seed = seed;
  return mc;
}

Status Fig5a(const Context& ctx) {
  const CommonBenchConfig& config = ctx.config;
  TwitterCorpusOptions options;
  options.num_users =
      static_cast<NodeId>(std::max(2000.0, 1'600'000 * config.scale * 0.1));
  options.num_topics = static_cast<uint32_t>(ctx.Extra("topics"));
  options.seed = config.seed;
  HOLIM_ASSIGN_OR_RETURN(TwitterCorpus corpus, BuildTwitterCorpus(options));
  std::printf("corpus: %u users, %zu topics; opinion estimation error "
              "seeds=%.2f%% non-seeds=%.2f%% (paper: 3.43%% / 8.57%%)\n",
              corpus.background.num_nodes(), corpus.topics.size(),
              100 * corpus.seed_opinion_error,
              100 * corpus.nonseed_opinion_error);
  ResultTable table = Table(ctx, {"topic", "GroundTruth", "OI", "OC", "IC"});
  const McOptions mc = Mc(config.mc, config.seed);
  double err_oi = 0, err_oc = 0, err_ic = 0;
  double avg_gt = 0, avg_oi = 0, avg_oc = 0, avg_ic = 0;
  for (const TopicData& topic : corpus.topics) {
    const Prediction p =
        PredictTopic(topic, corpus.estimated, topic.originators, mc);
    const double gt = topic.ground_truth_spread;
    table.AddRow({topic.hashtag, CsvWriter::Num(gt), CsvWriter::Num(p.oi),
                  CsvWriter::Num(p.oc), CsvWriter::Num(p.ic)});
    err_oi += std::abs(p.oi - gt);
    err_oc += std::abs(p.oc - gt);
    err_ic += std::abs(p.ic - gt);
    avg_gt += gt;
    avg_oi += p.oi;
    avg_oc += p.oc;
    avg_ic += p.ic;
  }
  const double t = static_cast<double>(corpus.topics.size());
  table.AddRow({"Average", CsvWriter::Num(avg_gt / t),
                CsvWriter::Num(avg_oi / t), CsvWriter::Num(avg_oc / t),
                CsvWriter::Num(avg_ic / t)});
  table.Print();
  std::printf("\nmean |error| vs ground truth:  OI=%.2f  OC=%.2f  IC=%.2f\n",
              err_oi / t, err_oc / t, err_ic / t);
  return Status::OK();
}

Status Fig5b(const Context& ctx) {
  const CommonBenchConfig& config = ctx.config;
  TwitterCorpusOptions options;
  options.num_users =
      static_cast<NodeId>(std::max(2000.0, 1'600'000 * config.scale * 0.1));
  options.num_topics = static_cast<uint32_t>(ctx.Extra("topics"));
  options.originators_per_topic = 24;
  options.seed = config.seed;
  HOLIM_ASSIGN_OR_RETURN(TwitterCorpus corpus, BuildTwitterCorpus(options));
  ResultTable table = Table(ctx, {"k", "IC", "OC", "OI"});
  const McOptions mc = Mc(config.mc, config.seed);
  for (uint32_t k : {5u, 10u, 15u, 20u}) {
    double se_oi = 0, se_oc = 0, se_ic = 0, norm = 0;
    uint32_t counted = 0;
    for (const TopicData& topic : corpus.topics) {
      if (topic.originators.size() < k) continue;
      ++counted;
      std::vector<NodeId> seeds(topic.originators.begin(),
                                topic.originators.begin() + k);
      // Ground truth restricted to cascades reachable from these k seeds
      // is approximated by the full-topic truth scaled by seed share.
      const double gt = topic.ground_truth_spread * static_cast<double>(k) /
                        topic.originators.size();
      const Prediction p = PredictTopic(topic, corpus.estimated, seeds, mc);
      se_oi += (p.oi - gt) * (p.oi - gt);
      se_oc += (p.oc - gt) * (p.oc - gt);
      se_ic += (p.ic - gt) * (p.ic - gt);
      norm += gt * gt;
    }
    if (counted == 0 || norm == 0) continue;
    table.AddRow({std::to_string(k),
                  CsvWriter::Num(100 * std::sqrt(se_ic / norm)),
                  CsvWriter::Num(100 * std::sqrt(se_oc / norm)),
                  CsvWriter::Num(100 * std::sqrt(se_oi / norm))});
  }
  table.Print();
  return Status::OK();
}

Status Fig5d(const Context& ctx) {
  const CommonBenchConfig& config = ctx.config;
  ChurnOptions options;
  options.num_customers =
      static_cast<uint32_t>(std::max(2000.0, 34'000 * config.scale));
  options.seed = config.seed;
  HOLIM_ASSIGN_OR_RETURN(ChurnData data, BuildChurnData(options));
  std::printf("churn graph: %u customers, %llu edges, holdout accuracy "
              "%.1f%%\n",
              data.graph.num_nodes(),
              static_cast<unsigned long long>(data.graph.num_edges()),
              100 * data.holdout_sign_accuracy);
  InfluenceParams lt = MakeLinearThreshold(data.graph);
  OpinionParams phi_one = data.opinions;
  std::fill(phi_one.interaction.begin(), phi_one.interaction.end(), 1.0);
  HolimEngine engine(data.graph);
  const uint32_t max_k = std::min<uint32_t>(200, config.max_k * 2);
  SolveRequest oi = MakeSolveRequest("osim", max_k, data.influence, config);
  oi.opinions = &data.opinions;
  SolveRequest oc = MakeSolveRequest("osim", max_k, lt, config);
  oc.opinions = &phi_one;
  oc.oi_base = OiBase::kLinearThreshold;
  SolveRequest ic = MakeSolveRequest("easyim", max_k, data.influence, config);
  ResultTable table = Table(ctx, {"k", "OI", "OC", "IC"});
  const auto grid = SeedGrid(max_k);
  std::vector<std::vector<double>> values;
  for (const SolveRequest* request : {&oi, &oc, &ic}) {
    HOLIM_ASSIGN_OR_RETURN(SolveResult sel, engine.Solve(*request));
    values.push_back(OpinionSpreadAtPrefixes(
        data.graph, data.influence, data.opinions,
        OiBase::kIndependentCascade, sel.seeds, grid, 1.0, config.mc,
        config.seed));
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.AddRow({std::to_string(grid[i]), CsvWriter::Num(values[0][i]),
                  CsvWriter::Num(values[1][i]), CsvWriter::Num(values[2][i])});
  }
  table.Print();
  return Status::OK();
}

Status Fig5h(const Context& ctx) {
  const CommonBenchConfig& config = ctx.config;
  ResultTable table =
      Table(ctx, {"dataset", "algorithm", "graph_MiB", "exec_MiB"});
  for (const std::string& dataset : MediumDatasetNames()) {
    HOLIM_ASSIGN_OR_RETURN(
        Workload w, LoadWorkload(dataset, config.scale,
                                 DiffusionModel::kIndependentCascade));
    OpinionParams opinions = MakeRandomOpinions(
        w.graph, OpinionDistribution::kStandardNormal, config.seed);
    const std::string graph_mib = CsvWriter::Num(MemoryMeter::ToMiB(
        w.graph.MemoryFootprintBytes() + w.params.MemoryFootprintBytes() +
        opinions.MemoryFootprintBytes()));
    const uint32_t k = std::min<uint32_t>(100, w.graph.num_nodes() / 10);
    // Deterministic working sets (RSS deltas are page-fault history at
    // these sizes). OSIM: the scorer's rolling buffers plus the
    // MC-majority bookkeeping, both capacity-based from the run.
    {
      OsimSelector osim(w.graph, w.params, opinions,
                        OiBase::kIndependentCascade, 3);
      HOLIM_ASSIGN_OR_RETURN(SeedSelection selection, osim.Select(k));
      table.AddRow({dataset, "OSIM", graph_mib,
                    CsvWriter::Num(MemoryMeter::ToMiB(
                        selection.scratch_bytes +
                        selection.activation_bytes))});
    }
    // Modified-GREEDY only on the two small datasets (as in the paper,
    // where it cannot complete on DBLP/YouTube). Its working set is the
    // OI simulator each MC evaluation runs, after one cascade from the
    // highest out-degree node has sized its IC candidate buffer to the
    // largest row, plus GreedySelector's one-byte chosen flag per node.
    if (dataset == "NetHEPT" || dataset == "HepPh") {
      OiSimulator sim(w.graph, w.params, opinions,
                      OiBase::kIndependentCascade);
      NodeId hub = 0;
      for (NodeId u = 1; u < w.graph.num_nodes(); ++u) {
        if (w.graph.OutDegree(u) > w.graph.OutDegree(hub)) hub = u;
      }
      Rng rng(config.seed);
      const NodeId seeds[] = {hub};
      sim.Run(seeds, rng);
      const std::size_t greedy_bytes =
          sim.ScratchBytes() + w.graph.num_nodes() * sizeof(char);
      table.AddRow({dataset, "Modified-GREEDY", graph_mib,
                    CsvWriter::Num(MemoryMeter::ToMiB(greedy_bytes))});
    } else {
      table.AddRow({dataset, "Modified-GREEDY", graph_mib,
                    "DNF (paper: >1 month)"});
    }
  }
  table.Print();
  return Status::OK();
}

Status Fig6i(const Context& ctx) {
  const CommonBenchConfig& config = ctx.config;
  ResultTable table = Table(ctx, {"dataset", "algorithm", "k", "memory_MiB"});
  for (const std::string& dataset : {std::string("NetHEPT"),
                                     std::string("DBLP")}) {
    const double shrink = dataset == "DBLP" ? 0.1 : 1.0;
    HOLIM_ASSIGN_OR_RETURN(
        Workload w, LoadWorkload(dataset, config.scale * shrink,
                                 DiffusionModel::kIndependentCascade));
    const uint32_t max_k =
        std::min<uint32_t>(config.max_k / 2, w.graph.num_nodes() / 4);
    for (uint32_t k : SeedGrid(max_k)) {
      {
        EasyImSelector easyim(w.graph, w.params, 3);
        HOLIM_ASSIGN_OR_RETURN(SeedSelection sel, easyim.Select(k));
        // Deterministic accounting (RSS is noisy at these small sizes):
        // EaSyIM working set = 2 score arrays.
        EasyImScorer scorer(w.graph, w.params, 3);
        table.AddRow({dataset, "EaSyIM", std::to_string(k),
                      CsvWriter::Num(
                          MemoryMeter::ToMiB(scorer.ScratchBytes()))});
      }
      {
        TimPlusOptions tim_opts;
        tim_opts.epsilon = 0.1;
        tim_opts.max_theta = 400000;
        TimPlusSelector tim(w.graph, w.params, tim_opts);
        HOLIM_ASSIGN_OR_RETURN(SeedSelection sel, tim.Select(k));
        table.AddRow({dataset, "TIM+", std::to_string(k),
                      CsvWriter::Num(MemoryMeter::ToMiB(
                          tim.last_run_stats().rr_memory_bytes))});
      }
      if (dataset == "NetHEPT") {
        auto objective = std::make_shared<SpreadObjective>(
            w.graph, w.params, Mc(30, config.seed));
        CelfSelector celf(w.graph, objective, true, "CELF++");
        HOLIM_ASSIGN_OR_RETURN(SeedSelection sel, celf.Select(k));
        // CELF++ heap: one ~40 B entry per node.
        table.AddRow({dataset, "CELF++", std::to_string(k),
                      CsvWriter::Num(
                          MemoryMeter::ToMiB(w.graph.num_nodes() * 40))});
      }
    }
  }
  table.Print();
  return Status::OK();
}

Status Fig6j(const Context& ctx) {
  ResultTable table =
      Table(ctx, {"dataset", "algorithm", "graph_MiB", "exec_MiB"});
  for (const std::string& dataset : MediumDatasetNames()) {
    const double shrink =
        (dataset == "DBLP" || dataset == "YouTube") ? 0.1 : 1.0;
    HOLIM_ASSIGN_OR_RETURN(
        Workload w, LoadWorkload(dataset, ctx.config.scale * shrink,
                                 DiffusionModel::kIndependentCascade));
    const std::string graph_mib = CsvWriter::Num(MemoryMeter::ToMiB(
        w.graph.MemoryFootprintBytes() + w.params.MemoryFootprintBytes()));
    const NodeId n = w.graph.num_nodes();
    // Deterministic working-set accounting per algorithm (RSS deltas are
    // unreliable below a few MiB).
    EasyImScorer scorer(w.graph, w.params, 3);
    const std::pair<const char*, std::size_t> rows[] = {
        {"EaSyIM", scorer.ScratchBytes() + n * sizeof(double)},
        {"IRIE", 3ull * n * sizeof(double)},  // rank + AP + next arrays
        {"CELF++", 40ull * n},  // heap entry: node, 2 gains, round, best
        {"SIMPATH", 2ull * n + 24ull * n},  // on-path marks, masks, heap
    };
    for (const auto& [algorithm, bytes] : rows) {
      table.AddRow({dataset, algorithm, graph_mib,
                    CsvWriter::Num(MemoryMeter::ToMiB(bytes))});
    }
  }
  table.Print();
  return Status::OK();
}

Status Fig7j(const Context& ctx) {
  ResultTable table = Table(ctx, {"dataset", "n", "arcs", "graph_MiB",
                                  "exec_MiB", "select_seconds"});
  for (const std::string& dataset : LargeDatasetNames()) {
    HOLIM_ASSIGN_OR_RETURN(DatasetSpec spec, FindDatasetSpec(dataset));
    const double shrink = spec.paper_edges > 1'000'000'000 ? 0.02 : 0.2;
    HOLIM_ASSIGN_OR_RETURN(
        Workload w, LoadWorkload(dataset, ctx.config.scale * shrink,
                                 DiffusionModel::kIndependentCascade));
    const uint32_t k = std::min<uint32_t>(100, w.graph.num_nodes() / 10);
    ScoreGreedyOptions options;
    options.mc_rounds = 5;  // keep the MC-majority step cheap at scale
    EasyImSelector easyim(w.graph, w.params, 1, options);
    HOLIM_ASSIGN_OR_RETURN(SeedSelection sel, easyim.Select(k));
    EasyImScorer scorer(w.graph, w.params, 1);
    table.AddRow(
        {dataset, std::to_string(w.graph.num_nodes()),
         std::to_string(w.graph.num_edges()),
         CsvWriter::Num(MemoryMeter::ToMiB(w.graph.MemoryFootprintBytes() +
                                           w.params.MemoryFootprintBytes())),
         CsvWriter::Num(MemoryMeter::ToMiB(scorer.ScratchBytes() +
                                           w.graph.num_nodes() * 8)),
         CsvWriter::Num(sel.elapsed_seconds)});
  }
  table.Print();
  return Status::OK();
}

Status Table2(const Context& ctx) {
  ResultTable table =
      Table(ctx, {"dataset", "paper_n", "paper_m", "type", "paper_avg_deg",
                  "paper_diam90", "gen_n", "gen_arcs", "gen_avg_deg",
                  "gen_diam90"});
  for (const auto& spec : AllDatasetSpecs()) {
    // Large datasets get an extra shrink so the table finishes fast.
    const bool large = spec.paper_nodes > 2'000'000;
    const double scale = ctx.config.scale * (large ? 0.05 : 1.0);
    HOLIM_ASSIGN_OR_RETURN(Graph g, LoadSyntheticDataset(spec.name, scale));
    auto stats = ComputeGraphStats(g, 16, ctx.config.seed);
    table.AddRow({spec.name, std::to_string(spec.paper_nodes),
                  std::to_string(spec.paper_edges),
                  spec.directed ? "Directed" : "Undirected",
                  CsvWriter::Num(spec.paper_avg_degree),
                  CsvWriter::Num(spec.paper_diameter90),
                  std::to_string(stats.num_nodes),
                  std::to_string(stats.num_edges),
                  CsvWriter::Num(stats.avg_out_degree),
                  CsvWriter::Num(stats.effective_diameter_90)});
  }
  table.Print();
  return Status::OK();
}

/// "<a / b>x" with the table's zero guard on the denominator.
std::string Ratio(double a, double b) {
  return CsvWriter::Num(a / std::max(1e-9, b)) + "x";
}

Status Table3(const Context& ctx) {
  const CommonBenchConfig& config = ctx.config;
  // TIM+'s RR sets stay bounded by this cap; it emulates the paper's
  // 100 GB box at our scale. When the cap binds TIM+ reports "OOM".
  const auto ram_cap = static_cast<std::size_t>(ctx.Extra("tim_theta_cap"));
  ResultTable table =
      Table(ctx, {"dataset", "tim_minutes", "easyim_minutes",
                  "easyim_vs_tim_time", "tim_MiB", "easyim_MiB",
                  "tim_vs_easyim_memory"});
  for (const std::string& dataset :
       {std::string("DBLP"), std::string("YouTube"),
        std::string("SocLiveJournal")}) {
    const double shrink = dataset == "DBLP"      ? 1.0
                          : dataset == "YouTube" ? 0.4
                                                 : 0.1;
    HOLIM_ASSIGN_OR_RETURN(
        Workload w, LoadWorkload(dataset, config.scale * shrink,
                                 DiffusionModel::kIndependentCascade));
    HolimEngine engine(w.graph);
    const uint32_t k = std::min<uint32_t>(50, w.graph.num_nodes() / 10);
    SolveRequest easy = MakeSolveRequest("easyim", k, w.params, config);
    easy.l = 1;
    HOLIM_ASSIGN_OR_RETURN(SolveResult easy_sel, engine.Solve(easy));
    // O(n) rolling buffers (scorer scratch, reported by the solve) plus
    // the driver's per-node score vector.
    const double easy_mib = MemoryMeter::ToMiB(easy_sel.scratch_bytes +
                                               w.graph.num_nodes() * 8);
    SolveRequest tim = MakeSolveRequest("tim+", k, w.params, config);
    tim.epsilon = 0.1;
    tim.max_theta = ram_cap;
    HOLIM_ASSIGN_OR_RETURN(SolveResult tim_sel, engine.Solve(tim));
    const bool oom = tim_sel.Stat("theta_capped") != 0.0;
    const double tim_mib = MemoryMeter::ToMiB(
        static_cast<std::size_t>(tim_sel.Stat("rr_memory_bytes")));
    table.AddRow(
        {dataset,
         oom ? "OOM (cap hit)" : CsvWriter::Num(tim_sel.select_seconds / 60),
         CsvWriter::Num(easy_sel.select_seconds / 60),
         oom ? "-" : Ratio(easy_sel.select_seconds, tim_sel.select_seconds),
         CsvWriter::Num(tim_mib), CsvWriter::Num(easy_mib),
         Ratio(tim_mib, easy_mib)});
  }
  table.Print();
  return Status::OK();
}

Status Table4(const Context& ctx) {
  const CommonBenchConfig& config = ctx.config;
  // CELF++ budget: skip datasets whose initial pass would exceed this many
  // objective evaluations x simulations (emulates the paper's 7-day DNF).
  // Only the MC oracle pays it — the sketch session's per-evaluation cost
  // is near-O(touched), which is the point of --oracle=sketch.
  const auto celf_budget = static_cast<uint64_t>(ctx.Extra("celf_budget"));
  ResultTable table =
      Table(ctx, {"dataset", "celf_minutes", "easyim_minutes",
                  "celf_vs_easyim_time", "celf_MiB", "easyim_MiB",
                  "celf_vs_easyim_memory"});
  for (const std::string& dataset :
       {std::string("NetHEPT"), std::string("HepPh"), std::string("DBLP")}) {
    const double shrink = dataset == "DBLP" ? 0.3 : 1.0;
    HOLIM_ASSIGN_OR_RETURN(
        Workload w, LoadWorkload(dataset, config.scale * shrink,
                                 DiffusionModel::kIndependentCascade));
    HolimEngine engine(w.graph);
    const uint32_t k = std::min<uint32_t>(100, w.graph.num_nodes() / 10);
    SolveRequest easy = MakeSolveRequest("easyim", k, w.params, config);
    easy.l = 1;
    HOLIM_ASSIGN_OR_RETURN(SolveResult easy_sel, engine.Solve(easy));
    const double easy_mib = MemoryMeter::ToMiB(easy_sel.scratch_bytes +
                                               w.graph.num_nodes() * 8);
    const uint32_t celf_mc = 50;
    const uint64_t estimated_work =
        static_cast<uint64_t>(w.graph.num_nodes()) * celf_mc;
    const bool sketch = ctx.common.oracle == SpreadOracle::kSketch;
    // MC CELF's memory is a rough per-node model; the sketch oracle's
    // footprint is its measured arena (capacity-based convention),
    // reported by the solve below.
    double celf_mib = MemoryMeter::ToMiB(40ull * w.graph.num_nodes());
    if (!sketch && estimated_work > celf_budget) {
      table.AddRow({dataset, "DNF (budget)",
                    CsvWriter::Num(easy_sel.select_seconds / 60), "-",
                    CsvWriter::Num(celf_mib), CsvWriter::Num(easy_mib),
                    Ratio(celf_mib, easy_mib)});
      continue;
    }
    SolveRequest celf =
        MakeSolveRequest("celf++", k, w.params, config, ctx.common);
    celf.mc = celf_mc;
    celf.num_sketches = celf_mc;
    HOLIM_ASSIGN_OR_RETURN(SolveResult celf_sel, engine.Solve(celf));
    if (sketch) celf_mib = MemoryMeter::ToMiB(celf_sel.sketch_arena_bytes);
    table.AddRow({dataset, CsvWriter::Num(celf_sel.select_seconds / 60),
                  CsvWriter::Num(easy_sel.select_seconds / 60),
                  Ratio(celf_sel.select_seconds, easy_sel.select_seconds),
                  CsvWriter::Num(celf_mib), CsvWriter::Num(easy_mib),
                  Ratio(celf_mib, easy_mib)});
  }
  table.Print();
  return Status::OK();
}

Status AblationActivation(const Context& ctx) {
  const CommonBenchConfig& config = ctx.config;
  HOLIM_ASSIGN_OR_RETURN(
      Workload w, LoadWorkload("NetHEPT", config.scale,
                               DiffusionModel::kIndependentCascade));
  const uint32_t k = std::min<uint32_t>(50, w.graph.num_nodes() / 10);
  ResultTable table = Table(ctx, {"strategy", "spread@k", "seconds"});
  for (auto strategy :
       {ActivationStrategy::kSeedsOnly, ActivationStrategy::kMonteCarloMajority,
        ActivationStrategy::kExpectedReach}) {
    ScoreGreedyOptions options;
    options.activation = strategy;
    options.seed = config.seed;
    EasyImSelector selector(w.graph, w.params, 3, options);
    HOLIM_ASSIGN_OR_RETURN(SeedSelection sel, selector.Select(k));
    const double spread = EstimateSpread(w.graph, w.params, sel.seeds,
                                         Mc(config.mc, config.seed));
    table.AddRow({ActivationStrategyName(strategy), CsvWriter::Num(spread),
                  CsvWriter::Num(sel.elapsed_seconds)});
  }
  table.Print();
  return Status::OK();
}

// Cross-model robustness of opinion-aware selection: seeds selected under
// each model (OSIM for OI; CELF on the submodular IC-N positive-spread
// objective for IC-N) are evaluated under both models' dynamics.
Status AblationIcnModel(const Context& ctx) {
  const CommonBenchConfig& config = ctx.config;
  const double quality = ctx.Extra("quality");
  HOLIM_ASSIGN_OR_RETURN(
      Workload w, LoadWorkload("NetHEPT", config.scale,
                               DiffusionModel::kIndependentCascade));
  w.graph.BuildEdgeSourceIndex();  // O(1) EdgeSource in opinion replay
  OpinionParams opinions = MakeRandomOpinions(
      w.graph, OpinionDistribution::kStandardNormal, config.seed);
  const uint32_t k =
      std::min<uint32_t>(config.max_k / 5, w.graph.num_nodes() / 20);
  HolimEngine engine(w.graph);
  SolveRequest oi = MakeSolveRequest("osim", k, w.params, config);
  oi.opinions = &opinions;
  HOLIM_ASSIGN_OR_RETURN(SolveResult oi_seeds, engine.Solve(oi));

  // CELF on the (submodular) IC-N positive-spread objective with uniform
  // quality factor; with --oracle=sketch it evaluates over presampled
  // worlds (exact in the quality flips given the worlds).
  const McOptions icn_mc = Mc(std::min<uint32_t>(config.mc, 100), config.seed);
  std::shared_ptr<const SketchOracle> sketch;
  if (ctx.common.oracle == SpreadOracle::kSketch) {
    sketch = MakeSketchOracle(w.graph, w.params, icn_mc.num_simulations,
                              config.seed);
  }
  auto icn_objective = std::make_shared<IcnPositiveSpreadObjective>(
      w.graph, w.params, quality, icn_mc, sketch);
  CelfSelector icn_celf(w.graph, icn_objective, true, "IC-N CELF");
  HOLIM_ASSIGN_OR_RETURN(SeedSelection icn_seeds, icn_celf.Select(k));

  const McOptions eval_mc = Mc(config.mc, config.seed + 1);
  auto oi_value = [&](const std::vector<NodeId>& seeds) {
    return CsvWriter::Num(
        EstimateOpinionSpread(w.graph, w.params, opinions,
                              OiBase::kIndependentCascade, seeds, 1.0,
                              eval_mc)
            .effective_opinion_spread);
  };
  auto icn_value = [&](const std::vector<NodeId>& seeds) {
    return CsvWriter::Num(
        EstimateIcnPositiveSpread(w.graph, w.params, quality, seeds,
                                  eval_mc));
  };
  ResultTable table("Ablation — OI vs IC-N selection robustness (k=" +
                        std::to_string(k) + ")",
                    {"selected_under", "eval_OI_gamma", "eval_ICN_positive"},
                    CsvPath(ctx.fig.id));
  table.AddRow({"OI (OSIM)", oi_value(oi_seeds.seeds),
                icn_value(oi_seeds.seeds)});
  table.AddRow({"IC-N (CELF)", oi_value(icn_seeds.seeds),
                icn_value(icn_seeds.seeds)});
  table.Print();
  return Status::OK();
}


// ------------------------------------------------------- the figure table

constexpr DiffusionModel kIC = DiffusionModel::kIndependentCascade;
constexpr DiffusionModel kWC = DiffusionModel::kWeightedCascade;
constexpr DiffusionModel kLT = DiffusionModel::kLinearThreshold;
constexpr CommonOptionsSpec kOracle{/*oracle=*/true};
constexpr CommonOptionsSpec kRescoreFull{/*oracle=*/false,
                                         /*rescore_default=*/"full"};

/// `algorithm` at each path-length horizon l, labelled prefix + l.
std::vector<Series> LSweep(const char* algorithm, const std::string& prefix,
                           std::initializer_list<uint32_t> ls) {
  std::vector<Series> series;
  for (uint32_t l : ls) {
    series.push_back({.label = prefix + std::to_string(l),
                      .algorithm = algorithm, .l = l});
  }
  return series;
}

std::vector<Series> Join(std::vector<Series> a, const std::vector<Series>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::vector<Figure> Figures() {
  const std::vector<Series> models = {
      {.label = "OI", .algorithm = "osim"},
      {.label = "OC", .algorithm = "osim", .variant = Variant::kOc},
      {.label = "IC", .algorithm = "easyim"},
  };
  const std::vector<Series> lambdas = {
      {.label = "lambda1", .algorithm = "osim"},
      {.label = "lambda0", .algorithm = "osim", .variant = Variant::kClipped},
  };
  const std::vector<Series> osim_sweep =
      LSweep("osim", "OSIM,l=", {1, 2, 3, 5});
  auto opinion_panel = [](const char* dataset, Opinions opinions,
                          double shrink, int instances,
                          std::vector<Series> series) {
    return Panel{.cells = {dataset}, .dataset = dataset, .shrink = shrink,
                 .opinions = opinions, .instances = instances,
                 .series = std::move(series)};
  };
  // Figs. 6f-6h and 7d-7i: max_k = min(--max_k / 2, n / 4).
  auto panel = [](const char* figure, const std::string& dataset,
                  DiffusionModel model, double shrink,
                  std::vector<Series> series) {
    return Panel{.cells = {figure, dataset}, .dataset = dataset,
                 .model = model, .shrink = shrink, .k_div = 2, .n_div = 4,
                 .series = std::move(series)};
  };
  // EaSyIM against a specialist heuristic on its home model.
  auto versus = [](const char* easy_label, const char* rival,
                   const char* rival_label) {
    return std::vector<Series>{{.label = easy_label, .algorithm = "easyim"},
                               {.label = rival_label, .algorithm = rival}};
  };
  const std::vector<Series> easy_tim = {
      {.algorithm = "easyim", .l = 1},
      {.algorithm = "easyim", .l = 3},
      {.algorithm = "easyim", .l = 5},
      {.label = "TIM+", .algorithm = "tim+", .epsilon = 0.2,
       .max_theta = 200000},
  };
  std::vector<Panel> fig7hi;
  for (const std::string& dataset : MediumDatasetNames()) {
    const bool big = dataset == "DBLP" || dataset == "YouTube";
    fig7hi.push_back(panel("7h", dataset, kWC, big ? 0.1 : 1.0,
                           versus("EaSyIM", "irie", "IRIE")));
  }
  for (const std::string dataset : {"NetHEPT", "HepPh", "DBLP"}) {
    // Paper: SIMPATH DNF on DBLP after 5 days; a smaller instance instead.
    fig7hi.push_back(panel("7i", dataset, kLT, dataset == "DBLP" ? 0.05 : 1.0,
                           versus("EaSyIM", "simpath", "SIMPATH")));
  }
  const std::vector<Series> spread_rivals = {
      {.algorithm = "easyim"},
      {.algorithm = "tim+", .epsilon = 0.1, .max_theta = 400000},
      {.algorithm = "tim+", .epsilon = 0.15, .max_theta = 400000},
      {.algorithm = "tim+", .epsilon = 0.2, .max_theta = 400000},
      // MC: the historical CELF++ budget; sketch: R = --mc worlds.
      {.label = "CELF++", .algorithm = "celf++", .mc = 100, .mc_cap = true},
  };

  return {
      {.id = "fig2_model_comparison",
       .title = "Figure 2 — opinion spread under OI/OC/IC seed selection",
       .scale = 0.2, .options = kOracle,
       .expected = "Expected shape (paper Fig. 2): OI >= OC >> IC at every k.",
       .kgrid = KGridSpec{
           {"dataset", "selector", "k", "opinion_spread"}, Layout::kBySeries,
           false,
           // The paper averages over 3 instances of the generated opinion
           // data; one instance's net opinion mass masks the selectors.
           {opinion_panel("HepPh", Opinions::kNormal, 1.0, 3, models),
            opinion_panel("NetHEPT", Opinions::kNormal, 1.0, 3, models)}}},
      {.id = "fig5a_twitter_groundtruth",
       .title = "Figure 5a — Twitter topics: model predictions vs "
                "ground-truth opinion spread (k=originators)",
       .scale = 0.2, .extra = {{"topics", 12, "number of topic subgraphs"}},
       .expected = "Expected shape (paper Fig. 5a): OI closest to ground "
                   "truth.",
       .run = Fig5a},
      {.id = "fig5b_twitter_rmse",
       .title = "Figure 5b — normalized RMSE (%) of opinion-spread "
                "prediction vs seeds",
       .scale = 0.2, .extra = {{"topics", 10, "number of topic subgraphs"}},
       .expected = "Expected shape (paper Fig. 5b): OI lowest error, IC "
                   "highest.",
       .run = Fig5b},
      {.id = "fig5c_twitter_spread",
       .title = "Figure 5c — opinion spread of OI/OC/IC-selected seeds on "
                "the Twitter background graph",
       .scale = 0.2, .options = kOracle,
       .expected = "Expected shape (paper Fig. 5c): OI > OC > IC.",
       .kgrid = KGridSpec{{"k", "OI", "OC", "IC"}, Layout::kWide, false,
                          {{.opinions = Opinions::kTwitterCorpus,
                            .n_div = 2, .series = models}}}},
      {.id = "fig5d_churn",
       .title = "Figure 5d — churn prevention: opinion spread of "
                "OI/OC/IC-selected retention targets",
       .scale = 0.2,
       .expected = "Expected shape (paper Fig. 5d): OI dominates OC and IC.",
       .run = Fig5d},
      {.id = "fig5e_lambda",
       .title = "Figure 5e — lambda=1 vs lambda=0 (penalty ablation)",
       .scale = 0.2,
       .expected = "Expected shape (paper Fig. 5e): lambda=1 >= lambda=0 — "
                   "ignoring negative\nopinion during selection costs "
                   "spread.",
       .kgrid = KGridSpec{
           {"dataset", "k", "lambda1", "lambda0"}, Layout::kWide, false,
           {opinion_panel("NetHEPT", Opinions::kNormal, 1.0, 3, lambdas),
            opinion_panel("HepPh", Opinions::kNormal, 1.0, 3, lambdas)}}},
      {.id = "fig5f_osim_quality",
       .title = "Figure 5f — OSIM l-sweep vs Modified-GREEDY: opinion "
                "spread vs seeds (OI, NetHEPT)",
       .scale = 0.05,
       .expected = "Expected shape (paper Fig. 5f): spread improves with l "
                   "up to l=3 and OSIM\nclosely tracks Modified-GREEDY.",
       .kgrid = KGridSpec{
           {"selector", "k", "effective_opinion_spread"}, Layout::kBySeries,
           false,
           // Modified-GREEDY is O(k n sims): a small instance.
           {{.opinions = Opinions::kNormal, .k_div = 4, .n_div = 30,
             .series = Join({{.label = "Modified-GREEDY",
                              .algorithm = "greedy", .mc = 100,
                              .mc_cap = true}},
                            osim_sweep)}}}},
      {.id = "fig5g_osim_time",
       .title = "Figure 5g — OSIM vs Modified-GREEDY selection time vs "
                "seeds (OI, NetHEPT)",
       .scale = 0.05, .options = kRescoreFull,
       .expected = "Expected shape (paper Fig. 5g): OSIM linear in k and "
                   "l; Modified-GREEDY\norders of magnitude slower.",
       .kgrid = KGridSpec{
           {"selector", "k", "seconds"}, Layout::kBySeries, true,
           {{.opinions = Opinions::kNormal, .k_div = 4, .n_div = 30,
             .series = Join(osim_sweep,
                            {{.label = "Modified-GREEDY",
                              .algorithm = "greedy", .mc = 100,
                              .mc_cap = true, .grid = KGrid::kUpTo,
                              .k = 10}})}}}},
      {.id = "fig5h_osim_memory",
       .title = "Figure 5h — OSIM vs Modified-GREEDY memory on the medium "
                "datasets (k=100 scaled)",
       .scale = 0.2, .scale_cap = 0.05,
       .expected = "Expected shape (paper Fig. 5h): execution memory is a "
                   "small constant\noverhead above graph loading for both "
                   "algorithms.",
       .run = Fig5h},
      {.id = "fig6abc_easyim_lsweep",
       .title = "Figures 6a-6c — EaSyIM path-length sweep",
       .scale = 0.2,
       .expected = "Expected shape (paper Figs. 6a-6c): spread grows with l "
                   "and saturates\naround l=3..5; l->diameter dips from "
                   "cyclic error.",
       .kgrid = KGridSpec{
           {"figure", "dataset", "model", "l", "k", "spread"},
           Layout::kBySeries, false,
           // DBLP/YouTube are larger: extra shrink so the sweep stays fast.
           {{.cells = {"6a", "NetHEPT", "LT"}, .dataset = "NetHEPT",
             .model = kLT,
             .series = LSweep("easyim", "", {1, 2, 3, 5, 7, 10})},
            {.cells = {"6b", "DBLP", "IC"}, .dataset = "DBLP", .model = kIC,
             .shrink = 0.02,
             .series = LSweep("easyim", "", {1, 2, 3, 5, 7, 10})},
            {.cells = {"6c", "YouTube", "WC"}, .dataset = "YouTube",
             .model = kWC, .shrink = 0.02,
             .series = LSweep("easyim", "", {1, 2, 3, 5, 7, 10})}}}},
      {.id = "fig6de_spread_comparison",
       .title = "Figures 6d-6e — EaSyIM vs TIM+ vs CELF++ spread (IC)",
       .scale = 0.05, .options = kOracle,
       .expected = "Expected shape (paper Figs. 6d-6e): all methods within "
                   "a few percent of\neach other; EaSyIM mirrors the state "
                   "of the art.",
       .kgrid = KGridSpec{
           {"dataset", "algorithm", "k", "spread"}, Layout::kBySeries, false,
           // CELF++ evaluates every node once: small instances.
           {{.cells = {"HepPh"}, .dataset = "HepPh", .k_div = 2, .n_div = 4,
             .series = spread_rivals},
            {.cells = {"DBLP"}, .dataset = "DBLP", .shrink = 0.05,
             .k_div = 2, .n_div = 4, .series = spread_rivals}}}},
      {.id = "fig6fgh_time_comparison",
       .title = "Figures 6f-6h — EaSyIM vs CELF++/TIM+ running time vs "
                "seeds",
       .scale = 0.01, .options = kRescoreFull,
       .expected = "Expected shape (paper Figs. 6f-6h): EaSyIM time linear "
                   "in l and k; CELF++\nslowest by orders of magnitude; "
                   "TIM+ fast but see Fig. 6i for its memory.",
       .kgrid = KGridSpec{
           {"figure", "dataset", "algorithm", "k", "seconds"}, Layout::kByK,
           true,
           // CELF++ on the smallest panel only (paper: DNF on DBLP/YouTube).
           {panel("6f", "NetHEPT", kLT, 1.0,
                  Join(easy_tim, {{.label = "CELF++", .algorithm = "celf++",
                                   .mc = 50, .grid = KGrid::kLowerHalf}})),
            panel("6g", "DBLP", kIC, 0.1, easy_tim),
            panel("6h", "YouTube", kWC, 0.05, easy_tim)}}},
      {.id = "fig6i_memory_growth",
       .title = "Figure 6i — memory vs seeds (IC)", .scale = 0.01,
       .expected = "Expected shape (paper Fig. 6i): EaSyIM smallest (~500x "
                   "less than TIM+);\nTIM+ grows fastest with k via theta.",
       .run = Fig6i},
      {.id = "fig6j_memory_overhead",
       .title = "Figure 6j — execution memory overhead (k=100 scaled)",
       .scale = 0.01,
       .expected = "Expected shape (paper Fig. 6j): EaSyIM least overhead, "
                   "SIMPATH highest\namong the heuristics; TIM+ omitted "
                   "(off the chart, see Fig. 6i).",
       .run = Fig6j},
      {.id = "fig7a_lambda_large",
       .title = "Figure 7a — lambda=1 vs lambda=0 on DBLP/YouTube",
       .scale = 0.2,
       .expected = "Expected shape (paper Fig. 7a): lambda=1 >= lambda=0.",
       .kgrid = KGridSpec{
           {"dataset", "k", "lambda1", "lambda0"}, Layout::kWide, false,
           {opinion_panel("DBLP", Opinions::kUniform, 0.02, 1, lambdas),
            opinion_panel("YouTube", Opinions::kUniform, 0.01, 1, lambdas)}}},
      {.id = "fig7bc_osim_lsweep",
       .title = "Figures 7b-7c — OSIM l-sweep (OC on HepPh, OI on "
                "DBLP/YouTube)",
       .scale = 0.2,
       .expected = "Expected shape (paper Figs. 7b-7c): spread grows with "
                   "l, best around l=3;\nOSIM tracks GREEDY on HepPh.",
       .kgrid = KGridSpec{
           {"figure", "dataset", "model", "selector", "k", "opinion_spread"},
           Layout::kBySeries, false,
           // 7b: OC (phi == 1 on the LT layer) vs GREEDY; 7c: OI with
           // uniform opinions, GREEDY omitted (paper: not scalable).
           {{.cells = {"7b", "HepPh", "OC"}, .dataset = "HepPh",
             .model = kLT, .scale_cap = 0.05, .opinions = Opinions::kNormal,
             .phi_one = true, .k_div = 2, .n_div = 4,
             .series = Join({{.label = "GREEDY", .algorithm = "greedy",
                              .mc = 60, .grid = KGrid::kUpTo, .k = 10}},
                            osim_sweep)},
            {.cells = {"7c", "DBLP", "OI"}, .dataset = "DBLP",
             .shrink = 0.02, .opinions = Opinions::kUniform,
             .series = osim_sweep},
            {.cells = {"7c", "YouTube", "OI"}, .dataset = "YouTube",
             .shrink = 0.01, .opinions = Opinions::kUniform,
             .series = osim_sweep}}}},
      {.id = "fig7de_heuristic_spread",
       .title = "Figures 7d-7e — EaSyIM vs SIMPATH/IRIE spread",
       .scale = 0.01, .options = kOracle,
       .expected = "Expected shape (paper Figs. 7d-7e): EaSyIM matches the "
                   "specialist\nheuristics' spread on their home models.",
       .kgrid = KGridSpec{
           {"figure", "dataset", "algorithm", "k", "spread"}, Layout::kByK,
           false,
           {panel("7d", "NetHEPT", kLT, 1.0,
                  versus("EaSyIM,l=3", "simpath", "SIMPATH")),
            panel("7e", "YouTube", kWC, 0.05,
                  versus("EaSyIM,l=3", "irie", "IRIE"))}}},
      {.id = "fig7fg_osim_time_large",
       .title = "Figures 7f-7g — OSIM time vs seeds (OC on HepPh, OI on "
                "DBLP/YouTube)",
       .scale = 0.2, .options = kRescoreFull,
       .expected = "Expected shape (paper Figs. 7f-7g): time linear in l "
                   "and k; Modified-GREEDY\noff the chart.",
       .kgrid = KGridSpec{
           {"figure", "dataset", "selector", "k", "seconds"},
           Layout::kBySeries, true,
           // GREEDY omitted on 7g: the paper reports > 1 month.
           {{.cells = {"7f", "HepPh"}, .dataset = "HepPh", .model = kLT,
             .scale_cap = 0.05, .opinions = Opinions::kNormal,
             .phi_one = true, .k_div = 2, .n_div = 4,
             .series = Join(osim_sweep,
                            {{.label = "Modified-GREEDY",
                              .algorithm = "greedy", .mc = 50,
                              .grid = KGrid::kAt, .k = 3}})},
            {.cells = {"7g", "DBLP"}, .dataset = "DBLP", .shrink = 0.02,
             .opinions = Opinions::kUniform, .series = osim_sweep},
            {.cells = {"7g", "YouTube"}, .dataset = "YouTube",
             .shrink = 0.01, .opinions = Opinions::kUniform,
             .series = osim_sweep}}}},
      {.id = "fig7hi_heuristic_time",
       .title = "Figures 7h-7i — EaSyIM vs IRIE (WC) / SIMPATH (LT) "
                "running time",
       .scale = 0.01,
       .expected = "Expected shape (paper Figs. 7h-7i): EaSyIM 2-6x faster "
                   "than IRIE;\nSIMPATH competitive only on the smallest "
                   "datasets.",
       .kgrid = KGridSpec{{"figure", "dataset", "algorithm", "k", "seconds"},
                          Layout::kByK, true, fig7hi}},
      {.id = "fig7j_large_memory",
       .title = "Figure 7j — EaSyIM memory on the large datasets (k=100)",
       .scale = 0.002,
       .expected = "Expected shape (paper Fig. 7j): execution memory stays "
                   "a vanishing\nfraction of graph memory — billion-edge "
                   "feasible.",
       .run = Fig7j},
      {.id = "table2_datasets",
       .title = "Table 2 — datasets: paper shape vs synthetic stand-in (at "
                "--scale)",
       .scale = 0.2, .run = Table2},
      {.id = "table3_easyim_vs_tim",
       .title = "Table 3 — EaSyIM(l=1) vs TIM+ (k=50, eps=0.1)",
       .scale = 0.005,
       .extra = {{"tim_theta_cap", 2'000'000,
                  "RR-set cap emulating the RAM budget"}},
       .expected = "Expected shape (paper Table 3): TIM+ faster where it "
                   "fits but its memory\nis 2-3 orders of magnitude larger; "
                   "it OOMs on the big datasets while\nEaSyIM completes "
                   "everywhere.",
       .run = Table3},
      {.id = "table4_easyim_vs_celf",
       .title = "Table 4 — EaSyIM(l=1) vs CELF++ (k=100 scaled)",
       .scale = 0.01, .options = kOracle,
       .extra = {{"celf_budget", 2'000'000,
                  "evaluation budget emulating the paper's 7-day timeout "
                  "(MC oracle only)"}},
       .expected = "Expected shape (paper Table 4): EaSyIM 40x+ faster and "
                   "~7x lighter;\nCELF++ does not finish on DBLP.",
       .run = Table4},
      {.id = "ablation_activation",
       .title = "Ablation — ScoreGREEDY activated-set strategy",
       .scale = 0.2,
       .expected = "Reading: seeds-only is fastest but risks redundant "
                   "seeds in one region;\nmc-majority (default) trades a "
                   "little time for better dispersion;\nexpected-reach is "
                   "the deterministic mid.",
       .run = AblationActivation},
      {.id = "ablation_baselines",
       .title = "Ablation — baseline panorama (NetHEPT, IC)",
       .scale = 0.2,
       .expected = "Reading: EaSyIM should match StaticGreedy/IMM quality "
                   "while beating\nASIM (probability-blind) and the degree "
                   "heuristics.",
       .kgrid = KGridSpec{
           {"algorithm", "k", "spread", "select_seconds"},
           Layout::kBySeriesTimed, false,
           {{.k_div = 2, .n_div = 10,
             .series = {{.algorithm = "easyim"},
                        {.algorithm = "asim"},
                        {.algorithm = "static-greedy"},
                        {.algorithm = "imm", .epsilon = 0.2,
                         .max_theta = 400000},
                        {.algorithm = "imrank"},
                        {.algorithm = "degreediscount"},
                        {.algorithm = "pagerank"},
                        {.algorithm = "random"}}}}}},
      {.id = "ablation_icn_model",
       .title = "Ablation — cross-model robustness (OI vs IC-N)",
       .scale = 0.2, .scale_cap = 0.05, .options = kOracle,
       .extra = {{"quality", 0.8, "IC-N quality factor q"}},
       .expected = "Reading: each row's own-model column should win its "
                   "column; IC-N seeds\nare opinion-blind, so their OI "
                   "evaluation suffers most (the paper's\n'constrained and "
                   "specific' critique).",
       .run = AblationIcnModel},
  };
}

std::string FormatDefault(double v) {
  return v == std::floor(v) ? std::to_string(static_cast<long long>(v))
                            : CsvWriter::Num(v);
}

/// The --scale help suffix naming every cap the figure applies.
std::string ScaleNote(const Figure& fig) {
  if (fig.scale_cap != kNoCap) {
    return "; capped at " + CsvWriter::Num(fig.scale_cap);
  }
  std::string note;
  if (fig.kgrid) {
    for (const Panel& panel : fig.kgrid->panels) {
      if (panel.scale_cap == kNoCap) continue;
      note += "; capped at " + CsvWriter::Num(panel.scale_cap) +
              " on panel " + panel.cells.front();
    }
  }
  return note;
}

int Fail(const Status& status, const std::string& detail) {
  std::fprintf(stderr, "%s\n%s", status.ToString().c_str(), detail.c_str());
  return ExitCodeForStatus(status);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Figure> figures = Figures();
  std::string id;
  bool help = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--figure=", 0) == 0) id = arg.substr(9);
    if (arg == "--figure" && i + 1 < argc) id = argv[i + 1];
    if (arg == "--help") help = true;
  }
  std::string listing = "Usage: " + std::string(argv[0]) +
                        " --figure=<id> [flags]  (--figure=<id> --help "
                        "lists a figure's flags)\nFigures:\n";
  for (const Figure& fig : figures) {
    listing += "  " + std::string(fig.id) + "  " + fig.title + "\n";
  }
  const auto fig = std::find_if(figures.begin(), figures.end(),
                                [&](const Figure& f) { return id == f.id; });
  if (fig == figures.end()) {
    if (help && id.empty()) {
      std::printf("%s", listing.c_str());
      return 0;
    }
    return Fail(Status::InvalidArgument(id.empty() ? "missing --figure"
                                                   : "unknown --figure: " + id),
                listing);
  }

  BenchArgs args;
  args.Declare("figure", "which figure or table to reproduce");
  CommonBenchConfig defaults;
  defaults.scale = fig->scale;
  DeclareCommonFlags(&args, defaults, ScaleNote(*fig));
  DeclareCommonOptions(&args, fig->options);
  for (const ExtraFlag& flag : fig->extra) {
    args.Declare(flag.name, std::string(flag.help) + " (default " +
                                FormatDefault(flag.default_value) + ")");
  }
  const std::string usage =
      args.HelpText(std::string(argv[0]) + " --figure=" + fig->id);
  Status st = args.Parse(argc, argv);
  if (!st.ok()) {
    return Fail(Status::InvalidArgument(st.message() + " (figure " +
                                        fig->id + " does not read it)"),
                usage);
  }
  if (help) {
    std::printf("%s\n%s", fig->title, usage.c_str());
    return 0;
  }
  Result<CommonOptions> common = ParseCommonOptions(args, fig->options);
  if (!common.ok()) return Fail(common.status(), usage);
  Context ctx{*fig, args, ReadCommonConfig(args, defaults), *common};
  ctx.config.scale = std::min(ctx.config.scale, fig->scale_cap);

  std::printf("%s\n", fig->title);
  st = fig->kgrid ? RunKGrid(ctx) : fig->run(ctx);
  if (!st.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", st.ToString().c_str());
    return ExitCodeForStatus(st);
  }
  if (*fig->expected != '\0') std::printf("\n%s\n", fig->expected);
  return 0;
}
