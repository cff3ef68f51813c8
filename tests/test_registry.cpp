// Scenario-registry coverage: the historical CLI names stay registered,
// specs round-trip, errors are actionable, and new entries integrate by
// registration alone.
#include "src/sim/registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/sim/suite.hpp"

namespace colscore {
namespace {

TEST(Registry, EveryLegacyWorkloadIsRegistered) {
  for (const std::string name :
       {"planted", "identical", "lower_bound", "chained", "uniform", "two_blocks"}) {
    EXPECT_TRUE(WorkloadRegistry::instance().contains(name)) << name;
    EXPECT_FALSE(WorkloadRegistry::instance().at(name).description.empty());
  }
}

TEST(Registry, EveryLegacyAdversaryIsRegistered) {
  for (const std::string name :
       {"none", "random_liar", "inverter", "constant_one", "targeted_bias",
        "hijacker", "sleeper", "strange_colluder"}) {
    EXPECT_TRUE(AdversaryRegistry::instance().contains(name)) << name;
  }
}

TEST(Registry, EveryLegacyAlgorithmIsRegistered) {
  for (const std::string name :
       {"calculate_preferences", "robust", "probe_all", "random_guess",
        "oracle_clusters", "sample_and_share"}) {
    EXPECT_TRUE(AlgorithmRegistry::instance().contains(name)) << name;
  }
}

TEST(Registry, HistoricalAliasesResolve) {
  EXPECT_EQ(AlgorithmRegistry::instance().canonical("calc"),
            "calculate_preferences");
  EXPECT_EQ(AlgorithmRegistry::instance().canonical("oracle"), "oracle_clusters");
  EXPECT_EQ(AlgorithmRegistry::instance().canonical("baseline"),
            "sample_and_share");
}

TEST(Registry, UnknownNamesProduceActionableErrors) {
  try {
    (void)WorkloadRegistry::instance().at("martian");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown workload 'martian'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("planted"), std::string::npos) << msg;  // lists options
  }
}

TEST(ScenarioSpec, ParseToStringRoundTrips) {
  ScenarioSpec spec;
  spec.workload = "chained";
  spec.adversary = "sleeper";
  spec.algorithm = "robust";
  spec.set("n", "512").set("dishonest", "20").set("vote_min", "11");
  EXPECT_EQ(ScenarioSpec::parse(spec.to_string()), spec);

  const ScenarioSpec defaults;  // no overrides at all
  EXPECT_EQ(ScenarioSpec::parse(defaults.to_string()), defaults);
}

TEST(ScenarioSpec, ParseRejectsMalformedTokens) {
  EXPECT_THROW(ScenarioSpec::parse("n512"), ScenarioError);
  EXPECT_THROW(ScenarioSpec::parse("n="), ScenarioError);
  EXPECT_THROW(ScenarioSpec::parse("=512"), ScenarioError);
}

TEST(Scenario, ResolveAppliesOverrides) {
  const Scenario sc = Scenario::resolve(ScenarioSpec::parse(
      "workload=identical adversary=inverter algorithm=calc n=96 budget=4 "
      "dishonest=7 seed=5 zipf=1 opt=0 vote_min=11 sample_rate_c=8.5"));
  EXPECT_EQ(sc.workload, "identical");
  EXPECT_EQ(sc.adversary, "inverter");
  EXPECT_EQ(sc.algorithm, "calculate_preferences");  // alias canonicalized
  EXPECT_EQ(sc.n, 96u);
  EXPECT_EQ(sc.budget, 4u);
  EXPECT_EQ(sc.dishonest, 7u);
  EXPECT_EQ(sc.seed, 5u);
  EXPECT_TRUE(sc.zipf_sizes);
  EXPECT_FALSE(sc.compute_opt);
  EXPECT_EQ(sc.params.vote_min, 11u);
  EXPECT_DOUBLE_EQ(sc.params.sample_rate_c, 8.5);
}

TEST(Scenario, ResolveRejectsUnknownOverrideKeys) {
  try {
    (void)Scenario::resolve(ScenarioSpec::parse("frobnicate=3"));
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown override key 'frobnicate'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("budget"), std::string::npos) << msg;  // lists keys
  }
}

TEST(Scenario, ResolveRejectsBadValues) {
  EXPECT_THROW(Scenario::resolve(ScenarioSpec::parse("n=abc")), ScenarioError);
  EXPECT_THROW(Scenario::resolve(ScenarioSpec::parse("n=12x")), ScenarioError);
  EXPECT_THROW(Scenario::resolve(ScenarioSpec::parse("zipf=maybe")),
               ScenarioError);
}

TEST(Scenario, ResolveRejectsAZeroBudget) {
  // Every algorithm asserts budget >= 1; resolve must reject the value
  // first, so a grid with a budget=0 cell fails at plan time, not mid-run.
  try {
    (void)Scenario::resolve(ScenarioSpec::parse("budget=0"));
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'budget=0'"), std::string::npos) << msg;
  }
  EXPECT_EQ(Scenario::resolve(ScenarioSpec::parse("budget=1")).budget, 1u);
}

TEST(Scenario, ResolveRejectsZeroRepeatAndFinalistCounts) {
  // SmallRadius asserts a candidate per repeat (sr_repeats, the robust
  // wrapper's reps) and a finalist to play (sr_max_finalists); resolve must
  // reject a zero at plan time, as it does budget=0.
  for (const char* spec :
       {"sr_repeats=0", "algorithm=robust reps=0", "sr_max_finalists=0"}) {
    try {
      (void)Scenario::resolve(ScenarioSpec::parse(spec));
      ADD_FAILURE() << spec << ": expected ScenarioError";
    } catch (const ScenarioError& e) {
      const std::string msg = e.what();
      const std::string key = std::string(spec).substr(
          std::string(spec).rfind(' ') + 1);  // the "key=0" token
      EXPECT_NE(msg.find("'" + key + "': expected a positive integer"),
                std::string::npos)
          << msg;
    }
  }
  const Scenario ones = Scenario::resolve(ScenarioSpec::parse(
      "algorithm=robust reps=1 sr_repeats=1 sr_max_finalists=1"));
  EXPECT_EQ(ones.robust_outer_reps, 1u);
  EXPECT_EQ(ones.params.sr_repeats, 1u);
  EXPECT_EQ(ones.params.sr_max_finalists, 1u);
}

TEST(Scenario, ResolveRejectsOverridesThatSwitchAStepOff) {
  // A zero rate, divisor or scale (or a fraction outside (0, 1]) silently
  // switches its protocol step off: with vote_c=0 vote_min=0 a planted
  // n=256 run's max_err is 148 where the defaults give 8. Each must fail at
  // plan time, naming the key.
  const std::pair<const char*, const char*> bad[] = {
      {"sample_rate_c=0", "'sample_rate_c=0': expected a finite number above 0"},
      {"sample_rate_c=nan", "'sample_rate_c=nan'"},
      {"sr_support_divisor=-5", "'sr_support_divisor=-5'"},
      {"graph_tau_c=inf", "'graph_tau_c=inf'"},
      {"sr_subset_scale=0", "'sr_subset_scale=0'"},
      {"rselect_c=0", "'rselect_c=0'"},
      {"graph_tau_sample_frac=0",
       "'graph_tau_sample_frac=0': expected a fraction in (0, 1]"},
      {"graph_tau_sample_frac=1.5", "'graph_tau_sample_frac=1.5'"},
      {"vote_c=-1", "'vote_c=-1': expected a finite number at least 0"},
      {"vote_c=0 vote_min=0", "'vote_min=0' and 'vote_c=0'"},
      {"paper_params=1 vote_min=0 vote_c=0", "'vote_min=0' and 'vote_c=0'"},
      // cluster_slack above 1 casts a negative threshold to size_t; both it
      // and sr_probes_per_pair=0 give max_err 54 where the defaults give 8.
      {"cluster_slack=2", "'cluster_slack=2': expected a fraction in [0, 1)"},
      {"cluster_slack=1", "'cluster_slack=1'"},
      {"cluster_slack=-0.5", "'cluster_slack=-0.5'"},
      {"cluster_slack=nan", "'cluster_slack=nan'"},
      {"sr_probes_per_pair=0",
       "'sr_probes_per_pair=0': expected a positive integer"},
      {"sr_diameter_c=inf", "'sr_diameter_c=inf': expected a finite number"},
      {"sr_subset_exponent=nan", "'sr_subset_exponent=nan'"},
      {"easy_case_factor=0",
       "'easy_case_factor=0': expected a finite number above 0"},
      {"easy_case_factor=-1", "'easy_case_factor=-1'"},
  };
  for (const auto& [spec, want] : bad) {
    try {
      (void)Scenario::resolve(ScenarioSpec::parse(spec));
      ADD_FAILURE() << spec << ": expected ScenarioError";
    } catch (const ScenarioError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(want), std::string::npos) << spec << ": " << msg;
    }
  }
  // Either vote knob alone still yields votes, and the ends of the
  // fraction's range are accepted.
  const Scenario ok = Scenario::resolve(ScenarioSpec::parse(
      "vote_c=0 graph_tau_sample_frac=1 rselect_c=0.5 cluster_slack=0"));
  EXPECT_EQ(ok.params.vote_c, 0.0);
  EXPECT_EQ(ok.params.graph_tau_sample_frac, 1.0);
  EXPECT_EQ(ok.params.cluster_slack, 0.0);
  EXPECT_EQ(Scenario::resolve(ScenarioSpec::parse("vote_min=0")).params.vote_min,
            0u);
}

// Huge but finite Params values saturate instead of reaching an undefined
// float->size_t cast: an exponent that makes the SmallRadius subset count
// inf clamps to |O| like any count past it, and a diameter constant past
// SIZE_MAX saturates like any diameter beyond every Hamming distance.
TEST(Registry, HugeParamsRunLikeLargeOnes) {
  const auto row = [](const std::string& knob) {
    SuiteOptions options;
    options.threads = 1;
    options.derive_seeds = false;
    const std::vector<SuiteRun> runs = SuiteRunner(options).run(
        {ScenarioSpec::parse("n=128 budget=4 opt=0 " + knob)});
    EXPECT_EQ(runs.front().status, RunStatus::kOk) << knob << runs.front().error;
    return suite_row_cells(runs.front());
  };
  EXPECT_EQ(row("sr_subset_exponent=1000"), row("sr_subset_exponent=5"));
  EXPECT_EQ(row("sr_diameter_c=1e300"), row("sr_diameter_c=1e15"));
}

TEST(Registry, WorkloadPreconditionsFailByKeyNotByAbort) {
  // Each spec breaks a generator precondition. The workload factory must
  // reject it with a ScenarioError naming the key behind it (clusters, or
  // budget when clusters defaults from it), so a sweep records one failed
  // row instead of aborting.
  const struct {
    const char* spec;
    const char* names;
  } cases[] = {
      {"workload=planted n=8", "'diameter=16'"},
      {"workload=churn n=8", "'diameter=16'"},
      {"workload=planted n=16 diameter=4 clusters=17", "'clusters=17'"},
      {"workload=identical n=2 budget=8", "'budget=8'"},
      {"workload=identical n=16 budget=100", "'budget=100'"},
      {"workload=chained n=8", "'budget=8'"},
      {"workload=chained clusters=1", "'clusters=1'"},
      {"workload=chained n=64 budget=4", "'diameter=16'"},
      {"workload=lower_bound n=4 diameter=8", "'diameter=8'"},
      {"workload=lower_bound n=1 diameter=0", "'n=1'"},
  };
  for (const auto& c : cases) {
    const Scenario sc = Scenario::resolve(ScenarioSpec::parse(c.spec));
    try {
      (void)build_scenario_world(sc);
      ADD_FAILURE() << c.spec << ": expected ScenarioError";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find(c.names), std::string::npos)
          << c.spec << ": " << e.what();
    }
  }
}

TEST(Scenario, PaperParamsExpandThenRefine) {
  const Scenario sc = Scenario::resolve(
      ScenarioSpec::parse("paper_params=1 budget=4 vote_min=13"));
  const Params paper = Params::paper(4);
  EXPECT_DOUBLE_EQ(sc.params.sr_subset_exponent, paper.sr_subset_exponent);
  EXPECT_EQ(sc.params.vote_min, 13u);  // field override wins over the preset
}

TEST(Scenario, RegisteredDefaultsApplyAndUserWins) {
  // probe_all registers opt=0 as a default override.
  EXPECT_FALSE(
      Scenario::resolve(ScenarioSpec::parse("algorithm=probe_all")).compute_opt);
  EXPECT_TRUE(Scenario::resolve(ScenarioSpec::parse("algorithm=probe_all opt=1"))
                  .compute_opt);
}

TEST(Scenario, ToSpecRoundTripsThroughResolve) {
  Scenario sc;
  sc.workload = "chained";
  sc.adversary = "hijacker";
  sc.algorithm = "robust";
  sc.n = 80;
  sc.budget = 4;
  sc.seed = 123;
  sc.dishonest = 6;
  sc.compute_opt = false;
  sc.params.vote_min = 15;
  const Scenario back = Scenario::resolve(sc.to_spec());
  EXPECT_EQ(back.workload, sc.workload);
  EXPECT_EQ(back.adversary, sc.adversary);
  EXPECT_EQ(back.algorithm, sc.algorithm);
  EXPECT_EQ(back.n, sc.n);
  EXPECT_EQ(back.budget, sc.budget);
  EXPECT_EQ(back.seed, sc.seed);
  EXPECT_EQ(back.dishonest, sc.dishonest);
  EXPECT_EQ(back.compute_opt, sc.compute_opt);
  EXPECT_EQ(back.params.vote_min, sc.params.vote_min);
}

TEST(Registry, DuplicateRegistrationProducesTheDocumentedError) {
  WorkloadRegistry::instance().add(
      "dup_probe", {"duplicate-registration probe (test-only)",
                    [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                      return uniform_random(sc.n, sc.n, rng);
                    }});
  try {
    WorkloadRegistry::instance().add(
        "dup_probe", {"second registration",
                      [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                        return uniform_random(sc.n, sc.n, rng);
                      }});
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("workload 'dup_probe' is already registered"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("replace()"), std::string::npos) << msg;
  }
  // replace() is the intentional spelling and must succeed.
  WorkloadRegistry::instance().replace(
      "dup_probe", {"replaced on purpose",
                    [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                      return uniform_random(sc.n, sc.n, rng);
                    }});
  EXPECT_EQ(WorkloadRegistry::instance().at("dup_probe").description,
            "replaced on purpose");
}

TEST(Registry, SchemaKeysMayNotShadowBuiltinOverrides) {
  try {
    WorkloadRegistry::instance().add(
        "shadow_probe", {"schema-shadow probe (test-only)",
                         [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                           return uniform_random(sc.n, sc.n, rng);
                         },
                         {},
                         {{"n", ParamType::kSize, "shadows the core key"}}});
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what())
                  .find("schema key 'n' shadows a built-in override key"),
              std::string::npos)
        << e.what();
  }
}

TEST(Registry, DefaultsMustBeBuiltinOrSchemaKeys) {
  try {
    WorkloadRegistry::instance().add(
        "default_probe", {"bad-default probe (test-only)",
                          [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                            return uniform_random(sc.n, sc.n, rng);
                          },
                          {{"mystery_knob", "3"}}});
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("default override 'mystery_knob'"), std::string::npos)
        << msg;
  }
  // A mistyped value for a schema-declared default also fails at add().
  try {
    WorkloadRegistry::instance().add(
        "default_probe", {"bad-typed-default probe (test-only)",
                          [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                            return uniform_random(sc.n, sc.n, rng);
                          },
                          {{"knob", "lots"}},
                          {{"knob", ParamType::kSize, "a knob"}}});
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'knob=lots'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unsigned integer"), std::string::npos) << msg;
  }
}

TEST(Registry, SchemaTypedOverridesValidateAndReachTheFactory) {
  // The schema idiom end to end: declare typed keys at registration, set
  // them in a spec, read them back through Scenario::extra_* in the factory.
  WorkloadRegistry::instance().add(
      "schema_probe",
      {"schema-declared knobs probe (test-only)",
       [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
         // The typed knob is observable through the planted diameter.
         return planted_clusters(sc.n, sc.n, 2,
                                 2 * sc.extra_size("blocks", 1), rng);
       },
       {{"blocks", "2"}},
       {{"blocks", ParamType::kSize, "half the planted diameter"},
        {"spread", ParamType::kDouble, "unused here"},
        {"mirror", ParamType::kBool, "unused here"}}});

  // Registered default applies; extras survive resolve and to_spec.
  const Scenario with_default = Scenario::resolve(
      ScenarioSpec::parse("workload=schema_probe n=32 opt=0"));
  EXPECT_EQ(with_default.extra_size("blocks", 1), 2u);
  const Scenario overridden = Scenario::resolve(ScenarioSpec::parse(
      "workload=schema_probe n=32 opt=0 blocks=3 spread=0.5 mirror=true"));
  EXPECT_EQ(overridden.extra_size("blocks", 1), 3u);
  EXPECT_DOUBLE_EQ(overridden.extra_double("spread", 0.0), 0.5);
  EXPECT_TRUE(overridden.extra_bool("mirror", false));
  EXPECT_EQ(overridden.to_spec().overrides.at("blocks"), "3");
  EXPECT_EQ(Scenario::resolve(overridden.to_spec()).extra_size("blocks", 0),
            3u);

  // The factory observes the typed value (blocks=3 -> diameter 6).
  const ExperimentOutcome out = run_scenario(overridden);
  EXPECT_EQ(out.planted_diameter, 6u);

  // Wrong-typed value: the documented error names the entry and key=value.
  try {
    (void)Scenario::resolve(
        ScenarioSpec::parse("workload=schema_probe blocks=abc"));
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("workload 'schema_probe' override 'blocks=abc'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("expected an unsigned integer"), std::string::npos)
        << msg;
  }

  // Schema keys only exist for entries that declare them...
  EXPECT_THROW((void)Scenario::resolve(
                   ScenarioSpec::parse("workload=planted blocks=3")),
               ScenarioError);
  // ...and the unknown-key error advertises them for entries that do.
  try {
    (void)Scenario::resolve(
        ScenarioSpec::parse("workload=schema_probe blks=3"));
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown override key 'blks'"), std::string::npos) << msg;
    // Schema keys are advertised grouped per declaring entry.
    EXPECT_NE(
        msg.find("workload 'schema_probe' also accepts: blocks, spread, mirror"),
        std::string::npos)
        << msg;
  }
}

TEST(Registry, NewAdversaryRunsEndToEndWithoutEnumChanges) {
  // The acceptance demo: registration alone makes a new attack runnable.
  AdversaryRegistry::instance().add(
      "pessimist", {"claims to dislike every object (test-only)",
                    [](const Scenario&, const World&, PlayerId) {
                      return std::make_unique<ConstantReporter>(false);
                    }});
  EXPECT_TRUE(AdversaryRegistry::instance().contains("pessimist"));

  const ExperimentOutcome out = run_scenario(Scenario::resolve(
      ScenarioSpec::parse("adversary=pessimist n=64 budget=4 dishonest=6 "
                          "seed=3 opt=0")));
  EXPECT_EQ(out.honest_players, 58u);
  EXPECT_LE(out.error.max_error, 64u);
}

TEST(Registry, EveryAdversaryPublishesAtTheHonestWidth) {
  // The board packs each vector channel at the width of its first post, so a
  // dishonest publication must be exactly as wide as the honest vector it
  // stands in for, in every phase that publishes: sample answers (the
  // sample_and_share baseline), ZeroRadius cross-adoption and SmallRadius
  // subset outputs. Iterates the live registry, test-registered entries
  // included.
  constexpr Phase kPublishingPhases[] = {Phase::kSample, Phase::kZeroRadius,
                                         Phase::kSmallRadius};
  for (const std::string& name : AdversaryRegistry::instance().names()) {
    const Scenario sc = Scenario::resolve(ScenarioSpec::parse(
        "adversary=" + name + " n=256 budget=4 dishonest=16 seed=5 opt=0"));
    const World world = build_scenario_world(sc);
    const Population pop = build_scenario_population(sc, world);
    const std::vector<PlayerId> dishonest = pop.dishonest_players();
    if (AdversaryRegistry::instance().at(name).make) {
      EXPECT_FALSE(dishonest.empty()) << name;
    }

    Rng rng(0x1d7);
    std::vector<ObjectId> universe(world.n_objects());
    for (ObjectId o = 0; o < universe.size(); ++o) universe[o] = o;
    // One-word, multi-word inline and heap-backed BitVector widths.
    for (const std::size_t width : {std::size_t{1}, std::size_t{64},
                                    std::size_t{65}, std::size_t{193},
                                    world.n_objects()}) {
      ASSERT_LE(width, universe.size());
      for (std::size_t i = 0; i < width; ++i)
        std::swap(universe[i], universe[i + rng.below(universe.size() - i)]);
      const std::span<const ObjectId> objects(universe.data(), width);
      const BitVector honest = random_bitvector(width, rng);
      for (const Phase phase : kPublishingPhases) {
        for (const PlayerId p : dishonest) {
          const BitVector published =
              pop.publication(p, honest, objects, ReportContext{phase, 7}, rng);
          EXPECT_EQ(published.size(), width)
              << name << " player " << p << " phase "
              << static_cast<int>(phase);
        }
      }
    }
  }
}

}  // namespace
}  // namespace colscore
