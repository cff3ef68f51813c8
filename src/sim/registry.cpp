#include "src/sim/registry.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "src/baseline/baselines.hpp"
#include "src/common/assert.hpp"
#include "src/common/exec_policy.hpp"
#include "src/common/strict_parse.hpp"
#include "src/common/timer.hpp"
#include "src/core/calculate_preferences.hpp"
#include "src/protocols/env.hpp"
#include "src/sim/churn.hpp"

namespace colscore {

namespace {

// ---- override-value parsing -------------------------------------------------

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const std::string& want) {
  throw ScenarioError("override '" + key + "=" + value + "': expected " + want);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  const std::optional<std::uint64_t> v = parse_strict_u64(value);
  if (!v) bad_value(key, value, "an unsigned integer");
  return *v;
}

std::size_t parse_size(const std::string& key, const std::string& value) {
  return static_cast<std::size_t>(parse_u64(key, value));
}

double parse_double(const std::string& key, const std::string& value) {
  const std::optional<double> v = parse_strict_f64(value);
  if (!v) bad_value(key, value, "a number");
  return *v;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true" || value == "yes") return true;
  if (value == "0" || value == "false" || value == "no") return false;
  bad_value(key, value, "a boolean (0/1/true/false)");
}

std::string format_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// ---- override keys ----------------------------------------------------------

/// The values a Params double accepts. A rate, divisor or scale at zero (or
/// a fraction outside (0, 1]) switches its protocol step off without an
/// error, and a negative count factor or a non-finite value casts to a
/// garbage count, so such a value fails at resolve(). kSlackFraction is
/// [0, 1): a threshold's shortfall below its full size.
enum class DoubleRange {
  kFinite, kNonNegative, kPositive, kFraction, kSlackFraction
};

struct ParamsDoubleField {
  const char* key;
  double Params::*member;
  DoubleRange range;
};
struct ParamsSizeField {
  const char* key;
  std::size_t Params::*member;
  bool positive = false;  // zero is rejected at resolve()
};

constexpr ParamsDoubleField kParamsDoubleFields[] = {
    {"sample_rate_c", &Params::sample_rate_c, DoubleRange::kPositive},
    {"sr_diameter_c", &Params::sr_diameter_c, DoubleRange::kFinite},
    {"sr_subset_scale", &Params::sr_subset_scale, DoubleRange::kPositive},
    {"sr_subset_exponent", &Params::sr_subset_exponent, DoubleRange::kFinite},
    {"sr_support_divisor", &Params::sr_support_divisor, DoubleRange::kPositive},
    {"graph_tau_c", &Params::graph_tau_c, DoubleRange::kPositive},
    {"graph_tau_sample_frac", &Params::graph_tau_sample_frac,
     DoubleRange::kFraction},
    {"cluster_slack", &Params::cluster_slack, DoubleRange::kSlackFraction},
    {"vote_c", &Params::vote_c, DoubleRange::kNonNegative},
    {"rselect_c", &Params::rselect_c, DoubleRange::kPositive},
    // At or below 0 every run takes the probe-everything easy case.
    {"easy_case_factor", &Params::easy_case_factor, DoubleRange::kPositive},
};

constexpr ParamsSizeField kParamsSizeFields[] = {
    // SmallRadius needs a candidate per repeat and a finalist to play.
    {"sr_repeats", &Params::sr_repeats, /*positive=*/true},
    {"sr_probes_per_pair", &Params::sr_probes_per_pair, /*positive=*/true},
    {"sr_prefilter_probes", &Params::sr_prefilter_probes},
    {"sr_max_finalists", &Params::sr_max_finalists, /*positive=*/true},
    {"vote_min", &Params::vote_min},
};

constexpr const char* kCoreKeys[] = {
    "n",    "budget",    "seed", "diameter", "clusters",
    "reps", "dishonest", "zipf", "opt",      "paper_params",
};

/// A count the protocols assert is at least 1; a zero must fail at resolve(),
/// not abort a sweep mid-run.
std::size_t parse_positive(const std::string& key, const std::string& value) {
  const std::size_t v = parse_size(key, value);
  if (v == 0) bad_value(key, value, "a positive integer");
  return v;
}

/// Applies a core (non-Params) override. Returns false if the key is not a
/// core key.
bool apply_core_override(Scenario& sc, const std::string& key,
                         const std::string& value) {
  if (key == "n") sc.n = parse_size(key, value);
  else if (key == "budget") sc.budget = parse_positive(key, value);
  else if (key == "seed") sc.seed = parse_u64(key, value);
  else if (key == "diameter") sc.diameter = parse_size(key, value);
  else if (key == "clusters") sc.n_clusters = parse_size(key, value);
  else if (key == "dishonest") sc.dishonest = parse_size(key, value);
  else if (key == "reps") sc.robust_outer_reps = parse_positive(key, value);
  else if (key == "zipf") sc.zipf_sizes = parse_bool(key, value);
  else if (key == "opt") sc.compute_opt = parse_bool(key, value);
  else if (key == "paper_params") sc.paper_params = parse_bool(key, value);
  else return false;
  return true;
}

/// Applies a Params-field override. Returns false if the key is unknown.
bool apply_params_override(Params& params, const std::string& key,
                           const std::string& value) {
  for (const auto& f : kParamsDoubleFields)
    if (key == f.key) {
      const double v = parse_double(key, value);
      // Each test is written so that NaN fails it.
      if (f.range == DoubleRange::kFinite && !std::isfinite(v))
        bad_value(key, value, "a finite number");
      if (f.range == DoubleRange::kNonNegative && !(v >= 0 && std::isfinite(v)))
        bad_value(key, value, "a finite number at least 0");
      if (f.range == DoubleRange::kPositive && !(v > 0 && std::isfinite(v)))
        bad_value(key, value, "a finite number above 0");
      if (f.range == DoubleRange::kFraction && !(v > 0 && v <= 1))
        bad_value(key, value, "a fraction in (0, 1]");
      if (f.range == DoubleRange::kSlackFraction && !(v >= 0 && v < 1))
        bad_value(key, value, "a fraction in [0, 1)");
      params.*(f.member) = v;
      return true;
    }
  for (const auto& f : kParamsSizeFields)
    if (key == f.key) {
      params.*(f.member) =
          f.positive ? parse_positive(key, value) : parse_size(key, value);
      return true;
    }
  return false;
}

bool is_params_key(const std::string& key) {
  for (const auto& f : kParamsDoubleFields)
    if (key == f.key) return true;
  for (const auto& f : kParamsSizeFields)
    if (key == f.key) return true;
  return false;
}

/// One schema-declared key in scope for a resolve(): which registry kind and
/// entry declared it, and its spec.
struct SchemaKey {
  const char* kind;
  const std::string* entry;
  const ParamSpec* spec;
};

[[noreturn]] void unknown_key(const std::string& key,
                              const std::vector<SchemaKey>& schema_keys) {
  std::string msg = "unknown override key '" + key + "'; accepted: ";
  bool first = true;
  for (const std::string& k : scenario_override_keys()) {
    if (!first) msg += ", ";
    msg += k;
    first = false;
  }
  // Group the advertised schema keys by declaring entry, preserving their
  // workload < adversary < algorithm order.
  for (std::size_t i = 0; i < schema_keys.size(); ++i) {
    const SchemaKey& sk = schema_keys[i];
    if (i > 0 && *schema_keys[i - 1].entry == *sk.entry &&
        schema_keys[i - 1].kind == sk.kind) {
      msg += ", " + sk.spec->key;
    } else {
      msg += std::string("; ") + sk.kind + " '" + *sk.entry +
             "' also accepts: " + sk.spec->key;
    }
  }
  throw ScenarioError(msg);
}

// ---- built-in registration --------------------------------------------------

std::size_t derived_clusters(const Scenario& sc) {
  return sc.n_clusters != 0 ? sc.n_clusters : std::max<std::size_t>(1, sc.budget);
}

// Workload preconditions, checked before a generator runs so that a spec
// the generator cannot build fails its row with a ScenarioError naming the
// key, instead of a CS_ASSERT abort that takes the whole sweep down.

/// Every one of `groups` clusters (or chain links) needs a player. Names
/// `clusters` when it is set, else `budget`, which the count defaults from.
void require_groups_fit(const Scenario& sc, std::size_t groups) {
  if (groups <= sc.n) return;
  const std::string want = "at most n (" + std::to_string(sc.n) +
                           ") clusters (got " + std::to_string(groups) + ")";
  if (sc.n_clusters != 0)
    bad_value("clusters", std::to_string(sc.n_clusters), want);
  bad_value("budget", std::to_string(sc.budget),
            want + "; clusters defaults from budget");
}

/// Planted flips and the lower-bound twin set draw `diameter` distinct
/// objects among the world's n.
void require_diameter_fits(const Scenario& sc) {
  if (sc.diameter > sc.n)
    bad_value("diameter", std::to_string(sc.diameter),
              "at most n (" + std::to_string(sc.n) + ", the object count)");
}

void require_planted_fits(const Scenario& sc) {
  require_groups_fit(sc, derived_clusters(sc));
  require_diameter_fits(sc);
}

/// Churn probabilities: NaN and values outside [0, 1] are rejected.
void require_probability(const std::string& key, double p) {
  if (!(p >= 0.0 && p <= 1.0))
    bad_value(key, format_double(p), "a probability in [0, 1]");
}

/// The `churn` workload's streaming knobs, resolved from the scenario's
/// schema-validated extras (defaults live in the extra_* fallbacks so a bare
/// "workload=churn" runs a sensible drift). Range errors throw a
/// ScenarioError naming the key before any world is built.
ChurnConfig churn_config_for(const Scenario& sc) {
  ChurnConfig cfg;
  cfg.epochs = sc.extra_size("epochs", 16);
  cfg.flip_rate = sc.extra_double("flip_rate", 0.01);
  require_probability("flip_rate", cfg.flip_rate);
  cfg.flip_bits = sc.extra_size("flip_bits", 2);
  // A drifting row flips distinct positions among the world's n objects.
  if (cfg.flip_bits > sc.n)
    bad_value("flip_bits", std::to_string(cfg.flip_bits),
              "at most n (the object count)");
  cfg.arrive = sc.extra_double("arrive", 0.25);
  require_probability("arrive", cfg.arrive);
  cfg.depart = sc.extra_double("depart", 0.0);
  require_probability("depart", cfg.depart);
  // Edge threshold for the streamed graph: twice the planted diameter (two
  // members of one cluster sit <= diameter apart; drift can push them a bit
  // past it before re-clustering should separate them). Override with
  // stream_tau for threshold studies; 0 keeps the derived value, like
  // clusters=0.
  const std::size_t tau = sc.extra_size("stream_tau", 0);
  cfg.threshold = tau != 0 ? tau : std::max<std::size_t>(1, 2 * sc.diameter);
  cfg.min_cluster = std::max<std::size_t>(
      2, sc.n / std::max<std::size_t>(1, derived_clusters(sc)) * 2 / 3);
  return cfg;
}

void register_builtin_workloads(WorkloadRegistry& reg) {
  reg.add("planted",
          {"planted clusters: random centers, members flip <= diameter/2 bits",
           [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
             require_planted_fits(sc);
             return planted_clusters(sc.n, sc.n, derived_clusters(sc), sc.diameter,
                                     rng, sc.zipf_sizes);
           },
           {}});
  reg.add("identical",
          {"identical preferences inside each cluster (ZeroRadius assumption)",
           [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
             require_groups_fit(sc, derived_clusters(sc));
             return identical_clusters(sc.n, sc.n, derived_clusters(sc), rng);
           },
           {}});
  reg.add("lower_bound",
          {"Claim 2 lower-bound instance: pivot + twin set, random on S",
           [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
             // The twin group holds the pivot and at least one twin.
             if (sc.n < 2)
               bad_value("n", std::to_string(sc.n), "at least 2 (a pivot and a twin)");
             require_diameter_fits(sc);
             return lower_bound_instance(sc.n, sc.budget, sc.diameter, rng);
           },
           {}});
  reg.add("chained",
          {"chain of groups, consecutive centers `diameter` bits apart",
           [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
             const std::size_t links =
                 sc.n_clusters != 0 ? sc.n_clusters
                                    : std::max<std::size_t>(2, 2 * sc.budget);
             if (links < 2)
               bad_value("clusters", std::to_string(links),
                         "at least 2 (chain links)");
             require_groups_fit(sc, links);
             // Consecutive links differ on `diameter` fresh objects.
             if (sc.diameter > sc.n / links)
               bad_value("diameter", std::to_string(sc.diameter),
                         "at most n / links (" + std::to_string(sc.n) + " / " +
                             std::to_string(links) +
                             ") so the chain fits the object universe");
             return chained_clusters(sc.n, sc.n, links, sc.diameter, rng);
           },
           {}});
  reg.add("uniform",
          {"no structure: every preference an independent fair coin",
           [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
             return uniform_random(sc.n, sc.n, rng);
           },
           {}});
  reg.add("two_blocks",
          {"two taste camps disagreeing on every object",
           [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
             return two_blocks(sc.n, sc.n, rng);
           },
           {}});
  reg.add(
      "churn",
      {"planted clusters drifted by epoch churn (streaming maintenance): "
       "epochs (default 16) epochs of per-player fates — depart w.p. "
       "`depart` (default 0), else drift w.p. `flip_rate` (default 0.01, "
       "flipping `flip_bits`=2 positions), departed players return w.p. "
       "`arrive` (default 0.25); stream_tau (default 2*diameter) is the "
       "streamed neighbor graph's edge threshold",
       [](const Scenario& sc, Rng& rng, const ExecPolicy& policy) {
         const ChurnConfig config = churn_config_for(sc);
         require_planted_fits(sc);
         World w = planted_clusters(sc.n, sc.n, derived_clusters(sc),
                                    sc.diameter, rng, sc.zipf_sizes);
         w.churn = run_churn(w.matrix, config, rng, policy);
         w.description += " + churn drift";
         return w;
       },
       {},
       {{"epochs", ParamType::kSize, "churn epochs to simulate"},
        {"flip_rate", ParamType::kDouble,
         "per-epoch drift probability per alive player"},
        {"flip_bits", ParamType::kSize, "positions flipped per drifting row"},
        {"arrive", ParamType::kDouble,
         "per-epoch return probability per departed player"},
        {"depart", ParamType::kDouble,
         "per-epoch departure probability per alive player"},
        {"stream_tau", ParamType::kSize,
         "edge threshold of the streamed graph (0 keeps 2*diameter)"}},
       {{"epochs", MetricType::kU64, "churn epochs simulated"},
        {"edges_changed", MetricType::kU64,
         "graph edges added+removed across all epochs"},
        {"rebuild_fraction", MetricType::kF64,
         "fraction of epochs that fell back to a full graph rebuild"},
        {"stream_arrivals", MetricType::kU64,
         "players re-admitted over the run"},
        {"stream_departures", MetricType::kU64,
         "players retired over the run"},
        {"recluster_fraction", MetricType::kF64,
         "fraction of epochs whose edge delta forced a re-peel"}},
       [](const MetricContext& ctx, MetricEmitter& emit) {
         const ChurnStats& churn = ctx.world.churn;
         emit.u64("epochs", churn.epochs);
         emit.u64("edges_changed", churn.edges_changed);
         emit.u64("stream_arrivals", churn.arrivals);
         emit.u64("stream_departures", churn.departures);
         const double epochs = churn.epochs == 0
                                   ? 1.0
                                   : static_cast<double>(churn.epochs);
         emit.f64("rebuild_fraction",
                  static_cast<double>(churn.rebuilds) / epochs);
         emit.f64("recluster_fraction",
                  static_cast<double>(churn.reclusters) / epochs);
       }});
}

void register_builtin_adversaries(AdversaryRegistry& reg) {
  reg.add("none", {"all players honest", nullptr, {}});
  reg.add("random_liar",
          {"reports a coin flip regardless of truth",
           [](const Scenario&, const World&, PlayerId) {
             return std::make_unique<RandomLiar>();
           },
           {}});
  reg.add("inverter",
          {"always reports the opposite of the truth",
           [](const Scenario&, const World&, PlayerId) {
             return std::make_unique<Inverter>();
           },
           {}});
  reg.add("constant_one",
          {"ballot stuffing: claims to like every object",
           [](const Scenario&, const World&, PlayerId) {
             return std::make_unique<ConstantReporter>(true);
           },
           {}});
  reg.add("targeted_bias",
          {"truthful except the first 5% of objects, which it promotes",
           [](const Scenario&, const World& world, PlayerId) {
             std::unordered_set<ObjectId> targets;
             for (ObjectId o = 0;
                  o < std::max<std::size_t>(1, world.n_objects() / 20); ++o)
               targets.insert(o);
             return std::make_unique<TargetedBias>(std::move(targets), true);
           },
           {}});
  reg.add("hijacker",
          {"mimics the victim during clustering, then inverts its votes",
           [](const Scenario&, const World& world, PlayerId victim) {
             return std::make_unique<ClusterHijacker>(world.matrix, victim);
           },
           {}});
  reg.add("sleeper",
          {"honest until the voting phase, then lies",
           [](const Scenario&, const World&, PlayerId) {
             return std::make_unique<Sleeper>();
           },
           {}});
  reg.add("strange_colluder",
          {"Lemma 13's optimal voting attack on strange objects",
           [](const Scenario& sc, const World& world, PlayerId) {
             return std::make_unique<StrangeObjectColluder>(world.matrix,
                                                            sc.diameter);
           },
           {}});
}

AlgorithmOutput run_with_honest_beacon(
    const AlgorithmContext& ctx,
    const std::function<ProtocolResult(ProtocolEnv&)>& body) {
  HonestBeacon beacon(mix_keys(ctx.scenario.seed, 0xbeacULL));
  ProtocolEnv env(ctx.oracle, ctx.board, ctx.population, beacon,
                  mix_keys(ctx.scenario.seed, 0x10ca1ULL), ctx.policy);
  AlgorithmOutput out;
  out.result = body(env);
  return out;
}

void register_builtin_algorithms(AlgorithmRegistry& reg) {
  reg.add("calculate_preferences",
          {"Fig. 2 protocol under honest shared randomness (§6)",
           [](const AlgorithmContext& ctx) {
             return run_with_honest_beacon(ctx, [&](ProtocolEnv& env) {
               return calculate_preferences(
                   env, ctx.params, mix_keys(ctx.scenario.seed, 0xca1cULL));
             });
           },
           {}});
  reg.add("robust",
          {"§7 wrapper: leader election + repeated Fig. 2 + final RSelect",
           [](const AlgorithmContext& ctx) {
             RobustParams rp;
             rp.inner = ctx.params;
             rp.outer_reps = ctx.scenario.robust_outer_reps;
             RobustResult rr = robust_calculate_preferences(
                 ctx.oracle, ctx.board, ctx.population, rp,
                 mix_keys(ctx.scenario.seed, 0x0b57ULL),
                 mix_keys(ctx.scenario.seed, 0x10ca1ULL), ctx.policy);
             return AlgorithmOutput{std::move(rr.result), rr.honest_leader_reps,
                                    /*reports_leader_reps=*/true};
           },
           {}});
  // err/opt is identically 0 for probe_all, so its registered default skips
  // the O(n^2) empirical OPT computation; spell opt=1 to force it.
  reg.add("probe_all",
          {"trivial B = n comparator: every player probes every object",
           [](const AlgorithmContext& ctx) {
             return run_with_honest_beacon(
                 ctx, [&](ProtocolEnv& env) { return probe_all(env); });
           },
           {{"opt", "0"}}});
  reg.add("random_guess",
          {"zero probes, coin-flip outputs (degenerate comparator)",
           [](const AlgorithmContext& ctx) {
             return run_with_honest_beacon(ctx, [&](ProtocolEnv& env) {
               return random_guess(env, mix_keys(ctx.scenario.seed, 0x99e55ULL));
             });
           },
           {}});
  reg.add("oracle_clusters",
          {"genie comparator: work-shares inside the true planted clusters",
           [](const AlgorithmContext& ctx) {
             return run_with_honest_beacon(ctx, [&](ProtocolEnv& env) {
               return oracle_clusters(env, ctx.world);
             });
           },
           {}});
  reg.add("sample_and_share",
          {"Alon et al. [2,3] star-neighbourhood baseline (not Byzantine-safe)",
           [](const AlgorithmContext& ctx) {
             return run_with_honest_beacon(ctx, [&](ProtocolEnv& env) {
               SampleShareParams sp;
               sp.budget = ctx.scenario.budget;
               sp.seed = mix_keys(ctx.scenario.seed, 0x5a3b1eULL);
               return sample_and_share(env, sp).result;
             });
           },
           {}});
  // Historical CLI spellings.
  reg.alias("calc", "calculate_preferences");
  reg.alias("oracle", "oracle_clusters");
  reg.alias("baseline", "sample_and_share");
}

}  // namespace

// ---- ScenarioSpec -----------------------------------------------------------

ScenarioSpec& ScenarioSpec::set(std::string key, std::string value) {
  if (key == "workload") workload = std::move(value);
  else if (key == "adversary") adversary = std::move(value);
  else if (key == "algorithm") algorithm = std::move(value);
  else overrides[std::move(key)] = std::move(value);
  return *this;
}

ScenarioSpec ScenarioSpec::parse(std::string_view text) {
  ScenarioSpec spec;
  std::istringstream in{std::string(text)};
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size())
      throw ScenarioError("malformed scenario token '" + token +
                          "'; expected key=value");
    spec.set(token.substr(0, eq), token.substr(eq + 1));
  }
  return spec;
}

std::string ScenarioSpec::to_string() const {
  std::string out = "workload=" + workload + " adversary=" + adversary +
                    " algorithm=" + algorithm;
  for (const auto& [key, value] : overrides) out += " " + key + "=" + value;
  return out;
}

std::vector<std::string> scenario_override_keys() {
  std::vector<std::string> keys;
  for (const char* k : kCoreKeys) keys.emplace_back(k);
  for (const auto& f : kParamsDoubleFields) keys.emplace_back(f.key);
  for (const auto& f : kParamsSizeFields) keys.emplace_back(f.key);
  return keys;
}

bool is_reserved_override_key(const std::string& key) {
  for (const char* k : kCoreKeys)
    if (key == k) return true;
  return is_params_key(key);
}

void validate_reserved_override(const std::string& key,
                                const std::string& value) {
  Scenario scratch;
  if (apply_core_override(scratch, key, value)) return;
  Params params;
  if (apply_params_override(params, key, value)) return;
  throw ScenarioError("'" + key + "' is not a built-in override key");
}

// ---- param schemas ----------------------------------------------------------

const char* param_type_name(ParamType type) {
  switch (type) {
    case ParamType::kSize:
    case ParamType::kU64: return "an unsigned integer";
    case ParamType::kDouble: return "a number";
    case ParamType::kBool: return "a boolean (0/1/true/false)";
    case ParamType::kString: return "a string";
  }
  return "?";
}

void validate_param_value(const ParamSpec& spec, const std::string& value) {
  // Route the message through param_type_name so the documented error
  // strings have a single source.
  try {
    switch (spec.type) {
      case ParamType::kSize:
      case ParamType::kU64: (void)parse_u64(spec.key, value); break;
      case ParamType::kDouble: (void)parse_double(spec.key, value); break;
      case ParamType::kBool: (void)parse_bool(spec.key, value); break;
      case ParamType::kString: break;  // any text
    }
  } catch (const ScenarioError&) {
    throw ScenarioError("override '" + spec.key + "=" + value +
                        "': expected " + param_type_name(spec.type));
  }
}

// ---- Scenario ---------------------------------------------------------------

Scenario Scenario::resolve(const ScenarioSpec& spec) {
  Scenario sc;
  sc.workload = WorkloadRegistry::instance().canonical(spec.workload);
  sc.adversary = AdversaryRegistry::instance().canonical(spec.adversary);
  sc.algorithm = AlgorithmRegistry::instance().canonical(spec.algorithm);

  const WorkloadEntry& workload = WorkloadRegistry::instance().at(sc.workload);
  const AdversaryEntry& adversary =
      AdversaryRegistry::instance().at(sc.adversary);
  const AlgorithmEntry& algorithm =
      AlgorithmRegistry::instance().at(sc.algorithm);

  // Entry-declared override keys in scope for this scenario. First
  // declaration wins on (unlikely) cross-entry collisions, in the same
  // workload < adversary < algorithm order the defaults merge in.
  std::vector<SchemaKey> schema_keys;
  for (const ParamSpec& s : workload.schema)
    schema_keys.push_back({"workload", &sc.workload, &s});
  for (const ParamSpec& s : adversary.schema)
    schema_keys.push_back({"adversary", &sc.adversary, &s});
  for (const ParamSpec& s : algorithm.schema)
    schema_keys.push_back({"algorithm", &sc.algorithm, &s});
  auto find_schema_key = [&](const std::string& key) -> const SchemaKey* {
    for (const SchemaKey& sk : schema_keys)
      if (sk.spec->key == key) return &sk;
    return nullptr;
  };

  // Registered defaults first (workload, adversary, algorithm), user last.
  std::vector<std::pair<std::string, std::string>> merged;
  for (const auto& kv : workload.defaults) merged.push_back(kv);
  for (const auto& kv : adversary.defaults) merged.push_back(kv);
  for (const auto& kv : algorithm.defaults) merged.push_back(kv);
  for (const auto& kv : spec.overrides) merged.push_back(kv);

  // Pass 1: core keys (so `budget` is known before paper_params expands).
  std::vector<const std::pair<std::string, std::string>*> params_overrides;
  for (const auto& kv : merged) {
    if (apply_core_override(sc, kv.first, kv.second)) continue;
    if (is_params_key(kv.first)) {
      params_overrides.push_back(&kv);
      continue;
    }
    if (const SchemaKey* sk = find_schema_key(kv.first)) {
      // Typed validation with the documented attribution: the error names
      // the declaring entry and the offending key=value.
      try {
        validate_param_value(*sk->spec, kv.second);
      } catch (const ScenarioError& e) {
        throw ScenarioError(std::string(sk->kind) + " '" + *sk->entry + "' " +
                            e.what());
      }
      sc.extra[kv.first] = kv.second;
      continue;
    }
    unknown_key(kv.first, schema_keys);
  }
  if (sc.paper_params) sc.params = Params::paper(sc.budget);
  // Pass 2: Params fields refine whichever preset is active.
  for (const auto* kv : params_overrides)
    apply_params_override(sc.params, kv->first, kv->second);
  // Votes per object = max(vote_min, vote_c * log2 n): with both at zero
  // work sharing casts no vote and a coin decides every object.
  // (vote_c is already known to be at least 0.)
  if (sc.params.vote_min == 0 && sc.params.vote_c == 0)
    throw ScenarioError("overrides 'vote_min=0' and 'vote_c=0' leave work "
                        "sharing no votes per object; raise either above 0");
  return sc;
}

ScenarioSpec Scenario::to_spec() const {
  static const Scenario defaults;
  ScenarioSpec spec;
  spec.workload = workload;
  spec.adversary = adversary;
  spec.algorithm = algorithm;
  auto set_size = [&](const char* key, std::size_t v, std::size_t dflt) {
    if (v != dflt) spec.overrides[key] = std::to_string(v);
  };
  set_size("n", n, defaults.n);
  set_size("budget", budget, defaults.budget);
  if (seed != defaults.seed) spec.overrides["seed"] = std::to_string(seed);
  set_size("diameter", diameter, defaults.diameter);
  set_size("clusters", n_clusters, defaults.n_clusters);
  set_size("dishonest", dishonest, defaults.dishonest);
  set_size("reps", robust_outer_reps, defaults.robust_outer_reps);
  if (zipf_sizes != defaults.zipf_sizes) spec.overrides["zipf"] = "1";
  if (compute_opt != defaults.compute_opt) spec.overrides["opt"] = "0";
  if (paper_params != defaults.paper_params) spec.overrides["paper_params"] = "1";

  const Params base = paper_params ? Params::paper(budget) : Params{};
  for (const auto& f : kParamsDoubleFields)
    if (params.*(f.member) != base.*(f.member))
      spec.overrides[f.key] = format_double(params.*(f.member));
  for (const auto& f : kParamsSizeFields)
    if (params.*(f.member) != base.*(f.member))
      spec.overrides[f.key] = std::to_string(params.*(f.member));
  for (const auto& [key, value] : extra) spec.overrides[key] = value;
  return spec;
}

// Extra-override getters: values were validated against the declaring entry's
// schema at resolve() time, so these parses only fail for scenarios built by
// hand with malformed extras — and then they fail loudly, not silently.
std::size_t Scenario::extra_size(std::string_view key, std::size_t dflt) const {
  const auto it = extra.find(key);
  return it == extra.end() ? dflt : parse_size(it->first, it->second);
}

std::uint64_t Scenario::extra_u64(std::string_view key,
                                  std::uint64_t dflt) const {
  const auto it = extra.find(key);
  return it == extra.end() ? dflt : parse_u64(it->first, it->second);
}

double Scenario::extra_double(std::string_view key, double dflt) const {
  const auto it = extra.find(key);
  return it == extra.end() ? dflt : parse_double(it->first, it->second);
}

bool Scenario::extra_bool(std::string_view key, bool dflt) const {
  const auto it = extra.find(key);
  return it == extra.end() ? dflt : parse_bool(it->first, it->second);
}

std::string Scenario::extra_string(std::string_view key,
                                   std::string dflt) const {
  const auto it = extra.find(key);
  return it == extra.end() ? std::move(dflt) : it->second;
}

// ---- registries -------------------------------------------------------------

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry& reg = *[] {
    auto* r = new WorkloadRegistry();
    register_builtin_workloads(*r);
    return r;
  }();
  return reg;
}

AdversaryRegistry& AdversaryRegistry::instance() {
  static AdversaryRegistry& reg = *[] {
    auto* r = new AdversaryRegistry();
    register_builtin_adversaries(*r);
    return r;
  }();
  return reg;
}

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry& reg = *[] {
    auto* r = new AlgorithmRegistry();
    register_builtin_algorithms(*r);
    return r;
  }();
  return reg;
}

// ---- execution --------------------------------------------------------------

World build_scenario_world(const Scenario& scenario,
                           const ExecPolicy& policy) {
  Rng rng(mix_keys(scenario.seed, 0x0a71dULL));
  return WorkloadRegistry::instance().at(scenario.workload).make(scenario, rng,
                                                                 policy);
}

Population build_scenario_population(const Scenario& scenario, const World& world) {
  Population pop(scenario.n);
  const AdversaryEntry& entry =
      AdversaryRegistry::instance().at(scenario.adversary);
  if (scenario.dishonest == 0 || !entry.make) return pop;
  Rng rng(mix_keys(scenario.seed, 0xad7e85a47ULL));

  // Hijacker-style attacks need a victim: player 0 is always protected from
  // corruption so it stays a meaningful target.
  const PlayerId victim = 0;
  pop.corrupt_random(
      std::min(scenario.dishonest, scenario.n - 1), rng,
      [&]() { return entry.make(scenario, world, victim); }, victim);
  return pop;
}

ExperimentOutcome run_scenario(const Scenario& scenario,
                               const ExecPolicy& policy) {
  Timer timer;
  // Bind the calling thread to one of the policy's workspace slots for the
  // whole run; nested protocol frames (and pool workers, via their own
  // scopes) share or acquire slots from the same arena, so two scenarios on
  // disjoint policies can never alias scratch.
  WorkerScope worker(policy);
  const World world = build_scenario_world(scenario, policy);
  const Population pop = build_scenario_population(scenario, world);
  ProbeOracle oracle(world.matrix);
  // With a single-worker policy every protocol loop runs inline, so counter
  // charges can skip the atomic RMW (see ProbeOracle::bind_policy).
  oracle.bind_policy(policy);
  BulletinBoard board;

  Params params = scenario.params;
  params.budget = scenario.budget;

  const AlgorithmContext ctx{scenario, world, oracle, board, pop, params,
                             policy};
  AlgorithmOutput algo =
      AlgorithmRegistry::instance().at(scenario.algorithm).run(ctx);
  ProtocolResult& result = algo.result;

  ExperimentOutcome outcome;
  const std::vector<PlayerId> honest = pop.honest_players();
  outcome.honest_players = honest.size();
  outcome.error = error_stats(world.matrix, result.outputs, honest, policy);
  if (scenario.n > 0)
    outcome.victim_error = world.matrix.row(0).hamming(result.outputs[0]);
  outcome.planted_diameter = world.planted_diameter;
  outcome.total_probes = result.total_probes;
  outcome.max_probes = result.max_probes;
  for (PlayerId p : honest)
    outcome.honest_max_probes =
        std::max(outcome.honest_max_probes, result.probes_by_player[p]);
  outcome.iterations = result.iterations;
  outcome.easy_case = result.easy_case;
  outcome.honest_leader_reps = algo.honest_leader_reps;
  outcome.has_leader_reps = algo.reports_leader_reps;
  outcome.board_reports = board.report_count();
  outcome.board_vectors = board.vector_count();

  if (scenario.compute_opt) {
    const std::size_t group =
        std::max<std::size_t>(2, scenario.n / scenario.budget);
    outcome.opt = opt_radius(world.matrix, group, policy);
    const auto errors =
        hamming_errors(world.matrix, result.outputs, honest, policy);
    outcome.approx_ratio = worst_approx_ratio(errors, honest, outcome.opt);
  }

  // Entry-published metrics: each resolved entry may declare result metrics
  // and publish values here, while the run's world/board/oracle are still
  // alive. They ride on the outcome into the schema layer (make_run_record).
  const MetricContext mctx{scenario, world, pop, oracle, board, result, outcome};
  std::vector<std::pair<std::string, std::string>> emitted_by;  // key -> label
  const auto emit_entry = [&](const char* kind, const std::string& name,
                              const auto& entry) {
    if (!entry.emit_metrics) return;
    const std::string label = std::string(kind) + " '" + name + "'";
    MetricEmitter emitter(entry.metrics, label);
    entry.emit_metrics(mctx, emitter);
    for (auto& kv : emitter.take()) {
      // Two entries may *declare* the same key (same type), but one run
      // publishing it twice is ambiguous — fail loudly instead of letting
      // the later emitter silently overwrite the earlier one.
      for (const auto& [key, owner] : emitted_by)
        if (key == kv.first)
          throw ScenarioError(owner + " and " + label +
                              " both emitted metric '" + kv.first + "'");
      emitted_by.emplace_back(kv.first, label);
      outcome.entry_metrics.push_back(std::move(kv));
    }
  };
  emit_entry("workload", scenario.workload,
             WorkloadRegistry::instance().at(scenario.workload));
  emit_entry("adversary", scenario.adversary,
             AdversaryRegistry::instance().at(scenario.adversary));
  emit_entry("algorithm", scenario.algorithm,
             AlgorithmRegistry::instance().at(scenario.algorithm));

  outcome.wall_seconds = timer.seconds();
  return outcome;
}

}  // namespace colscore
