// Golden-file and determinism tests for the BENCH_results.json artifact
// (bench/experiments.{hpp,cpp}).
//
// The golden file pins the byte-exact serialization of a fixed-seed E1
// smoke run: any change to the schema, the metric definitions, the JSON
// formatting, or the simulation's determinism shows up as a diff here.
// To regenerate after an INTENDED change:
//
//   MOCC_UPDATE_GOLDEN=1 build/tests/bench_report_test
//
// then review the diff of tests/golden/e1_smoke.json and bump
// kBenchSchemaVersion if the record shape changed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "experiments.hpp"

namespace mocc::bench {
namespace {

SuiteOptions smoke_options(const std::string& experiment) {
  SuiteOptions options;
  options.smoke = true;
  options.only = {experiment};
  return options;
}

std::string render_smoke(const std::string& experiment) {
  const SuiteOptions options = smoke_options(experiment);
  const auto records = run_suite(options);
  std::ostringstream out;
  write_records_json(out, records, options);
  return out.str();
}

std::string render_e1_smoke() { return render_smoke("E1"); }

/// Shared golden-file check: regenerates under MOCC_UPDATE_GOLDEN=1,
/// otherwise requires byte equality.
void expect_matches_golden(const std::string& rendered, const std::string& file) {
  const std::string golden_path = std::string(MOCC_GOLDEN_DIR) + "/" + file;

  if (std::getenv("MOCC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << rendered;
    GTEST_SKIP() << "golden file regenerated at " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " — regenerate with MOCC_UPDATE_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered, golden.str())
      << "BENCH_results.json bytes drifted from the golden " << file
      << "; if intended, regenerate with MOCC_UPDATE_GOLDEN=1 and review "
         "the diff (bump kBenchSchemaVersion on shape changes)";
}

TEST(BenchReport, FixedSeedRerunIsByteIdentical) {
  EXPECT_EQ(render_e1_smoke(), render_e1_smoke());
}

TEST(BenchReport, MatchesGoldenE1Smoke) {
  expect_matches_golden(render_e1_smoke(), "e1_smoke.json");
}

/// Pins the E8 fault-sweep record bytes — including the conditional
/// "schema_minor" header that only E8-bearing artifacts carry.
TEST(BenchReport, MatchesGoldenE8Smoke) {
  expect_matches_golden(render_smoke("E8"), "e8_smoke.json");
}

TEST(BenchReport, SchemaMinorOnlyWithFaultRecords) {
  // Pre-fault artifacts (no E8 record) must serialize exactly as minor 0
  // did; E8-bearing artifacts declare the additive revision.
  EXPECT_EQ(render_e1_smoke().find("schema_minor"), std::string::npos);
  EXPECT_NE(render_smoke("E8").find("\"schema_minor\": 1"), std::string::npos);
}

/// Pins the E9 batching-sweep record bytes, including the minor-3
/// header its batch-size series declares.
TEST(BenchReport, MatchesGoldenE9Smoke) {
  expect_matches_golden(render_smoke("E9"), "e9_smoke.json");
}

TEST(BenchReport, E9DeclaresBatchingSchemaMinor) {
  EXPECT_NE(render_smoke("E9").find("\"schema_minor\": 3"), std::string::npos);
}

/// Pins the E11 streaming-audit record bytes, including the minor-5
/// header its audit_* counter series declares.
TEST(BenchReport, MatchesGoldenE11Smoke) {
  expect_matches_golden(render_smoke("E11"), "e11_smoke.json");
}

TEST(BenchReport, E11DeclaresStreamingSchemaMinor) {
  EXPECT_NE(render_smoke("E11").find("\"schema_minor\": 5"), std::string::npos);
}

/// E11 sanity: every mode of every shape runs the same virtual-time
/// workload (the sink is pure observation, never scheduling), stream
/// records carry live-audit progress counters, and posthoc records
/// carry a green trace audit.
TEST(BenchReport, E11StreamingModesAgreeOnVirtualTime) {
  const auto records = run_suite(smoke_options("E11"));
  ASSERT_FALSE(records.empty());
  std::map<std::string, double> shape_time;
  for (const auto& record : records) {
    EXPECT_EQ(record.audit, ExperimentRecord::Audit::kOk) << record.name;
    const std::string shape = record.config.at("faults");
    const double virtual_time =
        record.metrics.gauges().at("virtual_time").value();
    auto [it, inserted] = shape_time.emplace(shape, virtual_time);
    if (!inserted) {
      EXPECT_EQ(it->second, virtual_time) << record.name;
    }
    const auto& counters = record.metrics.counters();
    const std::string mode = record.config.at("audit_mode");
    if (mode == "stream") {
      ASSERT_TRUE(counters.contains("audit_mops")) << record.name;
      EXPECT_GT(counters.at("audit_mops").value(), 0u) << record.name;
      EXPECT_EQ(counters.at("audit_windows_failed").value(), 0u) << record.name;
      EXPECT_EQ(record.metrics.gauges().at("audit_verdict").value(), 0.0)
          << record.name;
    } else if (mode == "posthoc") {
      EXPECT_EQ(record.metrics.gauges().at("posthoc_audit_ok").value(), 1.0)
          << record.name;
      EXPECT_GT(counters.at("posthoc_audit_mops").value(), 0u) << record.name;
    }
  }
  EXPECT_EQ(shape_time.size(), 2u);
}

/// The E9 acceptance invariant: batched sequencer abcast at batch size
/// >= 8 cuts messages-per-update by at least 5x against the unbatched
/// baseline on the raw stack, with the audit green at every sweep point
/// and real group-commit accounting on the batched ones.
TEST(BenchReport, E9BatchingCutsMessagesPerUpdateFiveFold) {
  const auto records = run_suite(smoke_options("E9"));
  ASSERT_FALSE(records.empty());
  double raw_unbatched = 0.0;
  double raw_batched = 0.0;
  for (const auto& record : records) {
    EXPECT_EQ(record.audit, ExperimentRecord::Audit::kOk) << record.name;
    const auto& counters = record.metrics.counters();
    ASSERT_TRUE(counters.contains("batch_assigns")) << record.name;
    const bool batched = record.config.at("abcast_batch") != "1";
    if (batched) {
      EXPECT_GT(counters.at("batch_assigns").value(), 0u) << record.name;
      EXPECT_GT(counters.at("batch_flushes").value(), 0u) << record.name;
    } else {
      EXPECT_EQ(counters.at("batch_assigns").value(), 0u) << record.name;
    }
    if (record.config.at("link") == "off") {
      const double msg_per_op = record.metrics.gauges().at("msg_per_op").value();
      if (batched) {
        raw_batched = msg_per_op;
      } else {
        raw_unbatched = msg_per_op;
      }
    }
  }
  ASSERT_GT(raw_unbatched, 0.0);
  ASSERT_GT(raw_batched, 0.0);
  EXPECT_GE(raw_unbatched / raw_batched, 5.0)
      << "unbatched " << raw_unbatched << " vs batched " << raw_batched;
}

/// The E8 smoke sweep audits every point and must come back clean, with
/// the link-on points carrying real fault/link accounting.
TEST(BenchReport, E8SmokeAuditsPassAndCarryFaultMetrics) {
  const auto records = run_suite(smoke_options("E8"));
  ASSERT_FALSE(records.empty());
  for (const auto& record : records) {
    EXPECT_EQ(record.audit, ExperimentRecord::Audit::kOk) << record.name;
    const auto& counters = record.metrics.counters();
    ASSERT_TRUE(counters.contains("link_data")) << record.name;
    ASSERT_TRUE(counters.contains("fault_drops")) << record.name;
    EXPECT_EQ(counters.at("link_exhausted").value(), 0u) << record.name;
    if (record.config.at("link") == "on") {
      EXPECT_GT(counters.at("link_data").value(), 0u) << record.name;
    } else {
      EXPECT_EQ(counters.at("link_data").value(), 0u) << record.name;
    }
  }
}

TEST(BenchReport, SelectionFiltersExperiments) {
  SuiteOptions options;
  options.smoke = true;
  options.only = {"E4"};
  const auto records = run_suite(options);
  ASSERT_FALSE(records.empty());
  for (const auto& record : records) {
    EXPECT_EQ(record.experiment, "E4");
  }
  EXPECT_TRUE(experiment_selected(options, "E4"));
  EXPECT_FALSE(experiment_selected(options, "E1"));
}

/// The satellite fix for the old set_latency_counters bug: a run with an
/// empty latency class must still register that class's counters and
/// histogram with explicit zeros, so every record of an experiment has
/// the same keys.
TEST(BenchReport, EmptyLatencyClassKeepsSchemaStableZeros) {
  protocols::WorkloadReport update_only;
  update_only.updates = 5;
  update_only.update_latency.add(10.0);
  update_only.queries = 0;  // no query ever completed

  obs::Registry registry;
  register_latency_metrics(registry, update_only);

  EXPECT_EQ(registry.counter("queries").value(), 0u);
  EXPECT_EQ(registry.counter("updates").value(), 5u);
  const auto& histograms = registry.histograms();
  ASSERT_TRUE(histograms.contains("q"));
  ASSERT_TRUE(histograms.contains("u"));
  EXPECT_EQ(histograms.at("q").count(), 0u);
  EXPECT_EQ(histograms.at("q").mean(), 0.0);
  EXPECT_EQ(histograms.at("q").percentile(99.0), 0.0);
  EXPECT_EQ(histograms.at("u").count(), 1u);

  // And the JSON record therefore always carries both classes.
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  registry.write_json_fields(json);
  json.end_object();
  EXPECT_NE(out.str().find("\"q\":{\"count\":0"), std::string::npos);
}

/// Pins the E10 multicore-engine record bytes. Smoke E10 runs the
/// single-thread points only and zeroes the wall-clock gauge, so the
/// record is as deterministic as every simulator record despite the
/// engine using real threads in full mode.
TEST(BenchReport, MatchesGoldenE10Smoke) {
  expect_matches_golden(render_smoke("E10"), "e10_smoke.json");
}

TEST(BenchReport, E10DeclaresExecSchemaMinor) {
  EXPECT_NE(render_smoke("E10").find("\"schema_minor\": 4"), std::string::npos);
}

/// The E10 acceptance invariant at smoke scale: every point's merged
/// history passes the admissibility re-check (record.audit == kOk) and
/// carries the full exec counter set.
TEST(BenchReport, E10SmokeVerifiesAndCarriesExecMetrics) {
  const auto records = run_suite(smoke_options("E10"));
  ASSERT_FALSE(records.empty());
  for (const auto& record : records) {
    EXPECT_EQ(record.audit, ExperimentRecord::Audit::kOk) << record.name;
    const auto& counters = record.metrics.counters();
    ASSERT_TRUE(counters.contains("exec_committed")) << record.name;
    EXPECT_GT(counters.at("exec_committed").value(), 0u) << record.name;
    EXPECT_EQ(counters.at("exec_abandoned").value(), 0u) << record.name;
    EXPECT_GT(counters.at("exec_verify_windows").value(), 0u) << record.name;
    // Smoke records never carry wall clock — the gauge is pinned to 0.
    EXPECT_EQ(record.metrics.gauges().at("exec_tput_mops").value(), 0.0)
        << record.name;
  }
}

/// The zero-committed corner (e.g. an all-abort run under max_attempts):
/// register_exec_metrics must still register every counter, the
/// histogram, and both gauges with explicit zeros — same schema-stability
/// contract as register_latency_metrics above.
TEST(BenchReport, ZeroCommittedExecRunKeepsSchemaStableZeros) {
  exec::ExecResult empty;  // nothing attempted, nothing committed
  obs::Registry registry;
  register_exec_metrics(registry, empty, /*include_wallclock=*/true);

  EXPECT_EQ(registry.counter("exec_committed").value(), 0u);
  EXPECT_EQ(registry.counter("exec_abort_validation").value(), 0u);
  EXPECT_EQ(registry.counter("exec_abort_lock").value(), 0u);
  EXPECT_EQ(registry.counter("exec_abandoned").value(), 0u);
  const auto& histograms = registry.histograms();
  ASSERT_TRUE(histograms.contains("exec_retries"));
  EXPECT_EQ(histograms.at("exec_retries").count(), 0u);
  EXPECT_EQ(histograms.at("exec_retries").mean(), 0.0);
  const auto& gauges = registry.gauges();
  EXPECT_EQ(gauges.at("exec_abort_rate").value(), 0.0);  // 0/0 -> 0, not NaN
  EXPECT_EQ(gauges.at("exec_tput_mops").value(), 0.0);

  // And the keys serialize with explicit zeros rather than going absent.
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  registry.write_json_fields(json);
  json.end_object();
  EXPECT_NE(out.str().find("\"exec_retries\":{\"count\":0"), std::string::npos);
}

/// Wall time enters full-mode records only. E4 and E5 have no golden,
/// so this is what keeps their smoke records free of clock readings.
TEST(BenchReport, SmokeRecordsCarryNoWallTime) {
  SuiteOptions options;
  options.smoke = true;
  const auto records = run_suite(options);
  std::set<std::string> experiments;
  for (const auto& record : records) {
    experiments.insert(record.experiment);
    const auto& gauges = record.metrics.gauges();
    EXPECT_FALSE(gauges.contains("wall_ms")) << record.name;
    EXPECT_FALSE(gauges.contains("verified_tput_mops")) << record.name;
    EXPECT_FALSE(gauges.contains("host_threads")) << record.name;
  }
  EXPECT_EQ(experiments.size(), 11u);
}

TEST(BenchReport, FullE5RecordsCarryWallTime) {
  SuiteOptions options;
  options.only = {"E5"};
  const auto records = run_suite(options);
  ASSERT_FALSE(records.empty());
  std::set<std::string> names;
  for (const auto& record : records) {
    names.insert(record.name);
    const auto& gauges = record.metrics.gauges();
    ASSERT_TRUE(gauges.contains("wall_ms")) << record.name;
    EXPECT_GT(gauges.at("wall_ms").value(), 0.0) << record.name;
  }
  // The Theorem-7 cost curve runs to 4096 m-operations.
  for (const std::size_t m : {16, 64, 256, 1024, 4096}) {
    EXPECT_TRUE(names.contains("E5/theorem7_poly/m" + std::to_string(m))) << m;
  }
}

/// Audit verdicts surface in the records: the E7 smoke sweep audits
/// every run and must come back clean.
TEST(BenchReport, E7SmokeAuditsPass) {
  SuiteOptions options;
  options.smoke = true;
  options.only = {"E7"};
  const auto records = run_suite(options);
  ASSERT_FALSE(records.empty());
  for (const auto& record : records) {
    EXPECT_EQ(record.audit, ExperimentRecord::Audit::kOk) << record.name;
    const auto& gauges = record.metrics.gauges();
    ASSERT_TRUE(gauges.contains("audit_ok")) << record.name;
    EXPECT_EQ(gauges.at("audit_ok").value(), 1.0) << record.name;
  }
}

}  // namespace
}  // namespace mocc::bench
