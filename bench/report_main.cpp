// bench_report — runs the E1-E11 experiment suite and writes the
// machine-readable BENCH_results.json artifact (schema in
// docs/observability.md). tools/run_bench.sh is the packaged entry
// point; invoke this directly for finer control:
//
//   bench_report                      # full suite -> BENCH_results.json
//   bench_report --smoke              # CI-sized sweeps
//   bench_report --only=E1,E5 --print # subset + tables on stdout
//   bench_report --trace=trace.jsonl  # also write a demo span trace
//   bench_report --spans              # phase-breakdown series (minor 2)
//
// Smoke output is deterministic: rerunning with the same flags produces
// a byte-identical file. Full-mode records add wall-time gauges (E5/E11
// `wall_ms`, E10 `exec_tput_mops` / `verified_tput_mops`).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments.hpp"
#include "util/cli.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void print_usage(const char* program) {
  std::cout << "usage: " << program << " [options]\n"
            << "  --smoke          reduced CI-sized sweeps\n"
            << "  --only=E1,E5     run a subset of the experiments\n"
            << "  --out=PATH       artifact path (default BENCH_results.json)\n"
            << "  --print          also render per-experiment tables to stdout\n"
            << "  --trace=PATH     write a demo JSONL span trace\n"
            << "  --spans          collect causal spans on E1/E2/E8/E9 and add the\n"
            << "                   phase-breakdown metrics (schema_minor 2)\n";
}

}  // namespace

int main(int argc, char** argv) {
  mocc::util::CliArgs args(argc, argv);
  if (args.get_bool("help", false)) {
    print_usage(args.program_name().c_str());
    return 0;
  }

  mocc::bench::SuiteOptions options;
  options.smoke = args.get_bool("smoke", false);
  options.only = split_csv(args.get_string("only", ""));
  options.spans = args.get_bool("spans", false);
  const std::string out_path = args.get_string("out", "BENCH_results.json");
  const bool print = args.get_bool("print", false);
  const std::string trace_path = args.get_string("trace", "");
  const auto unused = args.unused();
  if (!unused.empty()) {
    std::cerr << "unknown flag --" << unused.front() << " (try --help)\n";
    return 2;
  }
  for (const auto& name : options.only) {
    static const std::vector<std::string> known = {
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11"};
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::cerr << "unknown experiment '" << name << "' (expected E1..E11)\n";
      return 2;
    }
  }

  const auto records = mocc::bench::run_suite(options);

  {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open " << out_path << " for writing\n";
      return 1;
    }
    mocc::bench::write_records_json(out, records, options);
  }
  std::cout << "wrote " << records.size() << " records ("
            << (options.smoke ? "smoke" : "full") << ") to " << out_path << "\n";

  if (!trace_path.empty()) {
    std::ofstream trace(trace_path, std::ios::binary);
    if (!trace) {
      std::cerr << "cannot open " << trace_path << " for writing\n";
      return 1;
    }
    mocc::bench::write_demo_trace(trace);
    std::cout << "wrote demo trace to " << trace_path << "\n";
  }

  if (print) {
    mocc::bench::print_records(std::cout, records);
  }
  return 0;
}
