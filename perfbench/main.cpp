// mocc_perfbench: verified m-operations per second, end to end and per
// layer. README.md in this directory defines every workload and metric.
//
//   mocc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   mocc_perfbench --selftest
//
// A run repeats one workload in fixed-size repetitions ("reps") until
// --seconds have passed, each rep on inputs derived from (seed, rep).
// Every rep is executed AND verified; a rep whose m-operations did not
// all complete, or whose verdict is not ok, counts all its m-operations
// as failed and makes the run exit non-zero. Timings are medians over
// reps. Counts and virtual-time figures come from the first kCountedReps
// reps only, so they are a pure function of the seed.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Lines before it, each starting with '#', repeat the
// metrics for people, with sample counts and host and build facts.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/system.hpp"
#include "exec/engine.hpp"
#include "exec/verify.hpp"
#include "obs/live.hpp"
#include "protocols/workload.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using namespace mocc;

constexpr std::size_t kCountedReps = 5;
constexpr std::size_t kMscriptPrograms = 2048;
constexpr std::size_t kMscriptPasses = 9;

// ---------------------------------------------------------------- workloads

struct SimShape {
  const char* name;
  std::size_t processes;
  double update_ratio;
  bool lossy;
  std::size_t ops_per_process;
};

// Both simulator shapes run Figure 6 (mlin) over 64 objects with a
// footprint of 2, closed loop: every process has one m-operation
// outstanding. n4 is read-mostly on a clean network, so the live
// auditor's window checks dominate; n16 is write-heavy on a lossy
// network, so the wire path, abcast and the reliable link dominate.
constexpr SimShape kSimN4{"sim_mlin_n4_readmostly", 4, 0.2, false, 1500};
constexpr SimShape kSimN16{"sim_mlin_n16_lossy", 16, 0.8, true, 300};
constexpr const char* kExecName = "exec_hot_audited";
constexpr std::size_t kExecMopsPerThread = 2500;

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t rep_seed(std::uint64_t seed, std::size_t rep) {
  return mix(mix(seed) + rep);
}

api::SystemConfig sim_config(const SimShape& shape, std::uint64_t seed,
                             const std::string& mutation) {
  api::SystemConfig config;
  config.protocol = "mlin";
  config.num_processes = shape.processes;
  config.num_objects = 64;
  config.delay = "lan";
  config.seed = seed;
  config.mutation = mutation;
  if (shape.lossy) {
    config.reliable_link = true;
    // Above the worst lan round trip (2 x 15 ticks), so every retransmit
    // answers a real drop rather than a slow ack.
    config.link.initial_rto = 40;
    config.faults.seed = mix(seed ^ 0xfa17);
    config.faults.default_link.drop_rate = 0.05;
    config.faults.default_link.duplicate_rate = 0.05;
  }
  return config;
}

protocols::WorkloadParams sim_params(const SimShape& shape) {
  protocols::WorkloadParams params;
  params.ops_per_process = shape.ops_per_process;
  params.update_ratio = shape.update_ratio;
  params.footprint = 2;
  return params;
}

obs::StreamingAuditorOptions auditor_options() {
  obs::StreamingAuditorOptions options;
  options.condition = core::Condition::kMLinearizability;
  options.window = 512;
  return options;
}

std::size_t host_cpus() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t exec_threads() { return std::min<std::size_t>(4, host_cpus()); }

exec::ExecConfig exec_config(std::uint64_t seed) {
  exec::ExecConfig config;
  config.threads = exec_threads();
  config.objects = 64;
  config.mops_per_thread = kExecMopsPerThread;
  config.footprint = 4;
  config.query_ratio = 0.4;
  config.rmw_ratio = 0.5;
  config.zipf_skew = 0.9;
  config.seed = seed;
  return config;
}

// ------------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< '#' lines: sample counts, failures
  std::uint64_t fingerprint = 0;   ///< hash of the counted reps' histories

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), std::isfinite(value) ? value : 0.0,
                       std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Charges `mops` m-operations of rep `rep` to the failure count.
  void fail(std::size_t rep, std::uint64_t mops, const std::string& why) {
    correct = false;
    failed += mops;
    note("FAILED: rep " + std::to_string(rep) + ": " + why);
  }
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Percentile of integer-valued samples (virtual-time ticks), interpolated
/// within the run of ties at the nearest rank (the grouped-data formula).
/// The nearest-rank value v is reported as v - 0.5 + (rank - below) / ties,
/// so a shift of the distribution by less than one tick still shows.
double tick_percentile(const util::Summary& summary, double p) {
  if (summary.empty()) return 0.0;
  std::vector<double> sorted = summary.samples();
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  const double rank = std::max(1.0, std::ceil(p / 100.0 * n));
  const double v = sorted[static_cast<std::size_t>(rank) - 1];
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), v);
  const double below = static_cast<double>(lo - sorted.begin());
  const double ties = static_cast<double>(hi - lo);
  return v - 0.5 + (p / 100.0 * n - below) / ties;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss, which Linux carries across exec from the launching process.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) { return mix(h ^ v); }

std::uint64_t history_fingerprint(const core::History& history) {
  std::uint64_t h = history.size();
  for (const core::MOperation& mop : history.mops()) {
    h = hash_combine(h, mop.process());
    for (const core::Operation& op : mop.ops()) {
      h = hash_combine(h, static_cast<std::uint64_t>(op.type));
      h = hash_combine(h, op.object);
      h = hash_combine(h, static_cast<std::uint64_t>(op.value));
    }
  }
  return h;
}

/// Paces the reps of one run: the counted reps always run; a later rep
/// runs only if one as long as the previous still ends within --seconds.
class RepLoop {
 public:
  explicit RepLoop(double seconds)
      : seconds_(seconds), start_(Clock::now()), last_(start_) {}

  bool another(std::size_t rep) {
    const Clock::time_point now = Clock::now();
    const double rep_s = seconds_between(last_, now);
    last_ = now;
    return rep < kCountedReps || seconds_between(start_, now) + rep_s <= seconds_;
  }

  Clock::time_point start() const { return start_; }

 private:
  double seconds_;
  Clock::time_point start_;
  Clock::time_point last_;
};

// -------------------------------------------------------- simulator workloads

/// Per-layer figures of one traced simulator rep.
struct SimLayers {
  double ctor_s = 0.0;
  double run_s = 0.0;  ///< run_workload wall time minus the sink's
  double ingest_s = 0.0;
  double window_s = 0.0;
  double finish_s = 0.0;
  std::vector<double> window_ms;
  std::uint64_t sends = 0;
  std::uint64_t delivers = 0;
  std::uint64_t sequenced = 0;
  util::Summary agree_ticks;
};

struct SimRep {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  double setup_s = 0.0;
  double verified_s = 0.0;  ///< first run call to final verdict
  protocols::WorkloadReport report;
  sim::TrafficStats traffic;
  fault::LinkStats link;
  std::size_t windows = 0;
  std::uint64_t fingerprint = 0;
  std::string failure;  ///< empty when the rep passed the gate
  SimLayers layers;     ///< filled when traced
};

/// One executed and verified simulator rep. With `spans`, the auditor is
/// reached through a TimedAuditorSink and every call is recorded.
SimRep run_sim_rep(const SimShape& shape, std::uint64_t seed, const std::string& mutation,
                   SpanRecorder* spans, bool fingerprint) {
  SimRep rep;
  rep.attempted = shape.processes * shape.ops_per_process;
  const protocols::WorkloadParams params = sim_params(shape);

  const Clock::time_point t0 = Clock::now();
  const std::size_t ctor_span = spans ? spans->begin("api.System") : 0;
  api::System system(sim_config(shape, seed, mutation));
  if (spans) rep.layers.ctor_s = spans->end(ctor_span);
  obs::StreamingAuditor auditor(auditor_options());
  const Clock::time_point t1 = Clock::now();

  const std::size_t run_span = spans ? spans->begin("sim.run_workload") : 0;
  std::optional<TimedAuditorSink> timed;
  if (spans) {
    timed.emplace(auditor, *spans, run_span);
    system.set_trace_sink(&*timed);
  } else {
    system.set_trace_sink(&auditor);
  }
  rep.report = system.run_workload(params);
  if (spans) {
    timed->flush();
    const double wall = spans->end(run_span);
    rep.layers.run_s = wall - timed->ingest_s - timed->window_s;
  }
  const std::size_t finish_span = spans ? spans->begin("obs.live.finish") : 0;
  const obs::StreamingReport& verdict = auditor.finish();
  if (spans) rep.layers.finish_s = spans->end(finish_span);
  const Clock::time_point t2 = Clock::now();
  system.set_trace_sink(nullptr);

  rep.setup_s = seconds_between(t0, t1);
  rep.verified_s = seconds_between(t1, t2);
  rep.completed = rep.report.queries + rep.report.updates;
  rep.traffic = system.traffic();
  rep.link = system.link_stats();
  rep.windows = verdict.windows;
  if (spans) {
    rep.layers.ingest_s = timed->ingest_s;
    rep.layers.window_s = timed->window_s;
    rep.layers.window_ms = timed->window_ms;
    rep.layers.sends = timed->sends;
    rep.layers.delivers = timed->delivers;
    rep.layers.sequenced = timed->sequenced;
    rep.layers.agree_ticks = timed->agree_ticks;
  }
  if (fingerprint) rep.fingerprint = history_fingerprint(system.history());

  if (rep.completed != rep.attempted) {
    rep.failure = std::to_string(rep.completed) + " of " +
                  std::to_string(rep.attempted) + " m-ops completed";
  } else if (!verdict.ok()) {
    rep.failure = "verdict " + std::string(obs::to_string(verdict.verdict)) + ": " +
                  verdict.detail;
  } else if (verdict.mops != rep.completed) {
    rep.failure = "auditor saw " + std::to_string(verdict.mops) + " of " +
                  std::to_string(rep.completed) + " m-ops";
  } else if (!system.link_failures().empty()) {
    rep.failure = std::to_string(system.link_failures().size()) +
                  " reliable-link sends exhausted their retries";
  }
  return rep;
}

/// Returns the run_workload wall time with `sink` attached and no auditor
/// (one half of the obs.trace.emit_s pair). The pass is not verified, but
/// every m-op must complete.
double run_emit_pass(const SimShape& shape, std::uint64_t seed, obs::TraceSink* sink,
                     const char* name, std::size_t rep, SpanRecorder& spans,
                     Result& result) {
  api::System system(sim_config(shape, seed, ""));
  if (sink != nullptr) system.set_trace_sink(sink);
  const std::size_t span = spans.begin(name);
  const protocols::WorkloadReport report = system.run_workload(sim_params(shape));
  const double wall = spans.end(span);
  system.set_trace_sink(nullptr);
  const std::uint64_t attempted = shape.processes * shape.ops_per_process;
  result.attempted += attempted;
  if (report.queries + report.updates != attempted) {
    result.fail(rep, attempted, std::string(name) + " did not complete every m-op");
  }
  return wall;
}

/// The simulator's latency percentiles in virtual time. They are per-layer
/// metrics: the engine has no virtual time, and its logical-clock latency
/// counts how often the host ran the worker threads at once, not what the
/// program did.
std::vector<Metric> latency_metrics(const util::Summary& q, const util::Summary& u) {
  return {{"query_latency_p50_ticks", tick_percentile(q, 50), "ticks"},
          {"query_latency_p99_ticks", tick_percentile(q, 99), "ticks"},
          {"update_latency_p50_ticks", tick_percentile(u, 50), "ticks"},
          {"update_latency_p99_ticks", tick_percentile(u, 99), "ticks"}};
}

std::string latency_samples_note(const util::Summary& q, const util::Summary& u) {
  return "latency samples (virtual time): " + std::to_string(q.count()) + " queries, " +
         std::to_string(u.count()) + " updates, from the first " +
         std::to_string(kCountedReps) + " reps";
}

Result measure_sim_e2e(const SimShape& shape, std::uint64_t seed, double seconds,
                       bool fingerprint = false) {
  Result result;
  std::vector<double> setup;
  std::vector<double> throughput;
  util::Summary q;
  util::Summary u;
  double mops = 0;
  double messages = 0;
  double bytes = 0;
  RepLoop loop(seconds);
  for (std::size_t r = 0; loop.another(r); ++r) {
    const SimRep rep = run_sim_rep(shape, rep_seed(seed, r), "", nullptr,
                                   fingerprint && r < kCountedReps);
    result.attempted += rep.attempted;
    if (!rep.failure.empty()) result.fail(r, rep.attempted, rep.failure);
    if (r > 0) {  // rep 0 pays the process's first-touch costs
      setup.push_back(rep.setup_s);
      throughput.push_back(ratio(static_cast<double>(rep.completed), rep.verified_s));
    }
    if (r < kCountedReps) {
      q.merge(rep.report.query_latency);
      u.merge(rep.report.update_latency);
      mops += static_cast<double>(rep.completed);
      messages += static_cast<double>(rep.traffic.messages);
      bytes += static_cast<double>(rep.traffic.bytes);
      result.fingerprint = hash_combine(result.fingerprint, rep.fingerprint);
    }
  }
  result.add("verified_mops_per_s", median(throughput), "mops/s");
  result.add("setup_s", median(setup), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("msgs_per_mop", ratio(messages, mops), "msgs/mop");
  result.add("bytes_per_mop", ratio(bytes, mops), "B/mop");
  char line[96];
  for (const Metric& m : latency_metrics(q, u)) {
    std::snprintf(line, sizeof line, "%-34s %18.6f %s (per-layer metric)", m.name.c_str(),
                  m.value, m.unit.c_str());
    result.note(line);
  }
  result.note(latency_samples_note(q, u));
  result.note(std::to_string(throughput.size()) + " timed reps (after warm-up rep 0) of " +
              std::to_string(shape.processes * shape.ops_per_process) + " m-ops");
  return result;
}

/// Times encode / decode / validate per program over the workload's own
/// random_program mix; returns false if a program fails to round-trip.
bool measure_mscript(const SimShape& shape, std::uint64_t seed, SpanRecorder& spans,
                     Result& result) {
  const protocols::WorkloadParams params = sim_params(shape);
  util::Rng rng(mix(seed ^ 0x5c41));
  util::ZipfGenerator zipf(64, params.zipf_skew);
  std::vector<mscript::Program> programs;
  programs.reserve(kMscriptPrograms);
  for (std::size_t i = 0; i < kMscriptPrograms; ++i) {
    programs.push_back(protocols::random_program(64, params, rng, zipf, i));
  }
  const double n = static_cast<double>(programs.size());
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  std::vector<double> validate_ns;
  bool ok = true;
  for (std::size_t pass = 0; pass < kMscriptPasses; ++pass) {
    util::ByteWriter writer;
    std::size_t span = spans.begin("mscript.encode");
    for (const mscript::Program& program : programs) program.encode(writer);
    encode_ns.push_back(spans.end(span) * 1e9 / n);

    std::vector<mscript::Program> decoded;
    decoded.reserve(programs.size());
    util::ByteReader reader(writer.bytes());
    span = spans.begin("mscript.decode");
    for (std::size_t i = 0; i < programs.size(); ++i) {
      decoded.push_back(mscript::Program::decode(reader));
    }
    decode_ns.push_back(spans.end(span) * 1e9 / n);

    std::size_t invalid = 0;
    span = spans.begin("mscript.validate");
    for (const mscript::Program& program : programs) {
      invalid += program.validate().empty() ? 0 : 1;
    }
    validate_ns.push_back(spans.end(span) * 1e9 / n);
    ok = ok && invalid == 0 && reader.exhausted() && decoded == programs;
  }
  result.add("mscript.encode_ns", median(encode_ns), "ns");
  result.add("mscript.decode_ns", median(decode_ns), "ns");
  result.add("mscript.validate_ns", median(validate_ns), "ns");
  return ok;
}

// ------------------------------------------------------ multicore engine

struct ExecRep {
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  double setup_s = 0.0;
  double verified_s = 0.0;
  exec::ExecResult run;
  std::string failure;
};

std::string exec_gate(const exec::ExecResult& run, const exec::VerifyReport& verdict,
                      std::uint64_t attempted) {
  if (run.stats.committed != attempted || run.stats.abandoned != 0) {
    return std::to_string(run.stats.committed) + " of " + std::to_string(attempted) +
           " m-ops committed";
  }
  if (!verdict.ok) return "verify_execution: " + verdict.to_string();
  if (verdict.mops != attempted) {
    return "verified " + std::to_string(verdict.mops) + " of " +
           std::to_string(attempted) + " m-ops";
  }
  return "";
}

/// One executed and verified engine rep (run + verify_execution with the
/// P5.x audit). Set-up is the part of exec::run outside its worker threads.
ExecRep run_exec_rep(std::uint64_t seed) {
  ExecRep rep;
  const exec::ExecConfig config = exec_config(seed);
  rep.attempted = config.threads * config.mops_per_thread;
  const Clock::time_point t0 = Clock::now();
  rep.run = exec::run(config);
  const Clock::time_point t1 = Clock::now();
  const exec::VerifyReport verdict = exec::verify_execution(rep.run);
  const Clock::time_point t2 = Clock::now();
  rep.setup_s = seconds_between(t0, t1) - rep.run.stats.elapsed_seconds;
  rep.verified_s = seconds_between(t0, t2);
  rep.committed = rep.run.stats.committed;
  rep.failure = exec_gate(rep.run, verdict, rep.attempted);
  return rep;
}

Result measure_exec_e2e(std::uint64_t seed, double seconds) {
  Result result;
  std::vector<double> setup;
  std::vector<double> throughput;
  double mops = 0;
  double external_reads = 0;
  double log_bytes = 0;
  RepLoop loop(seconds);
  for (std::size_t r = 0; loop.another(r); ++r) {
    const ExecRep rep = run_exec_rep(rep_seed(seed, r));
    result.attempted += rep.attempted;
    if (!rep.failure.empty()) result.fail(r, rep.attempted, rep.failure);
    if (r > 0) {  // rep 0 pays the process's first-touch costs
      setup.push_back(rep.setup_s);
      throughput.push_back(ratio(static_cast<double>(rep.committed), rep.verified_s));
    }
    if (r >= kCountedReps) continue;
    for (const auto& log : rep.run.logs) {
      for (const exec::CommittedMop& mop : log) {
        log_bytes += static_cast<double>(sizeof(exec::CommittedMop) +
                                         mop.ops.size() * sizeof(exec::LoggedOp));
        for (const exec::LoggedOp& op : mop.ops) {
          if (op.type == core::OpType::kRead && op.from_tid != exec::kInitialTid &&
              op.from_tid != exec::kOwnWriteTid) {
            ++external_reads;
          }
        }
      }
    }
    mops += static_cast<double>(rep.committed);
  }
  result.add("verified_mops_per_s", median(throughput), "mops/s");
  result.add("setup_s", median(setup), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  // The engine sends no messages. Its analogue is a value passed from one
  // m-operation to another through the store (a read of another committed
  // m-operation's write), and its payload is the commit log the verifier
  // consumes.
  result.add("msgs_per_mop", ratio(external_reads, mops), "msgs/mop");
  result.add("bytes_per_mop", ratio(log_bytes, mops), "B/mop");
  result.note(std::to_string(throughput.size()) + " timed reps (after warm-up rep 0) of " +
              std::to_string(exec_threads() * kExecMopsPerThread) + " m-ops on " +
              std::to_string(exec_threads()) + " engine threads");
  result.note("no latency figures: the engine's logical clock counts how often the host "
              "ran its threads at once");
  return result;
}

// ----------------------------------------------------------- traced runs

/// Layer metrics that no rep of this workload exercises are reported as 0.
using MetricNames = std::vector<std::pair<const char*, const char*>>;  // name, unit

void add_zero_metrics(Result& result, const MetricNames& names) {
  for (const auto& [name, unit] : names) result.add(name, 0.0, unit);
}

const MetricNames kSimOnlyLayers = {
    {"api.system_ctor_s", "s"},          {"sim.run_s", "s"},
    {"sim.run_mops_per_s", "mops/s"},    {"sim.msg_sends_per_mop", "msgs/mop"},
    {"sim.msg_delivers_per_mop", "msgs/mop"},
    {"query_latency_p50_ticks", "ticks"}, {"query_latency_p99_ticks", "ticks"},
    {"update_latency_p50_ticks", "ticks"}, {"update_latency_p99_ticks", "ticks"},
    {"obs.live.ingest_s", "s"},
    {"obs.live.window_s", "s"},          {"obs.live.window_ms_p50", "ms"},
    {"obs.live.window_ms_max", "ms"},    {"obs.live.windows", "count"},
    {"obs.live.finish_s", "s"},          {"abcast.sequenced_per_mop", "count/mop"},
    {"abcast.agree_ticks_p50", "ticks"}, {"abcast.agree_ticks_p99", "ticks"},
    {"fault.link_retransmits_per_mop", "count/mop"},
    {"fault.link_dedup_per_mop", "count/mop"}, {"fault.retransmit_rate", "ratio"},
    {"mscript.encode_ns", "ns"},         {"mscript.decode_ns", "ns"},
    {"mscript.validate_ns", "ns"}};

const MetricNames kExecOnlyLayers = {
    {"exec.run_s", "s"},          {"exec.run_mops_per_s", "mops/s"},
    {"exec.merge_s", "s"},        {"exec.abort_rate", "ratio"},
    {"exec.retries_per_mop", "count/mop"}, {"exec.verify_s", "s"},
    {"exec.verify_fast_s", "s"},  {"exec.verify_windows", "count"},
    {"exec.stream_verify_s", "s"}, {"exec.stream_verdict", "code"},
    {"core.audit_s", "s"}};

/// Appends the self-time table and the trace bookkeeping metrics.
void add_trace_accounting(Result& result, const SpanRecorder& spans, double wall_s,
                          const std::vector<double>& overhead_s, double untraced_s) {
  char line[160];
  result.note("self times of the traced run (wall " + std::to_string(wall_s) + " s):");
  std::snprintf(line, sizeof line, "  %-30s %8s %12s %12s %7s", "span", "calls", "total_s",
                "self_s", "share");
  result.note(line);
  double self_sum = 0.0;
  for (const auto& [name, row] : spans.self_times()) {
    // Summed calls (obs.live.ingest) have no span of their own to count.
    const std::string calls = row.calls == 0 ? "-" : std::to_string(row.calls);
    std::snprintf(line, sizeof line, "  %-30s %8s %12.6f %12.6f %6.2f%%", name.c_str(),
                  calls.c_str(), row.total_s, row.self_s, 100.0 * ratio(row.self_s, wall_s));
    result.note(line);
    self_sum += row.self_s;
  }
  const double untimed = wall_s - spans.top_level_s();
  std::snprintf(line, sizeof line, "  %-30s %8s %12s %12.6f %6.2f%%", "(untimed remainder)",
                "", "", untimed, 100.0 * ratio(untimed, wall_s));
  result.note(line);
  std::snprintf(line, sizeof line, "  self times + remainder = %.6f s of %.6f s wall",
                self_sum + untimed, wall_s);
  result.note(line);
  double overhead = 0.0;
  for (const double o : overhead_s) overhead += o;
  std::snprintf(line, sizeof line,
                "tracing overhead: %.6f s traced minus untraced over %zu reps "
                "(%.2f%% of the untraced %.6f s)",
                overhead, overhead_s.size(), 100.0 * ratio(overhead, untraced_s), untraced_s);
  result.note(line);
  result.add("trace.overhead_s", median(overhead_s), "s");
  result.add("trace.untimed_s", untimed, "s");
}

void write_spans(const SpanRecorder& spans, const std::string& workload,
                 std::uint64_t seed, Result& result) {
  const std::filesystem::path dir = ".bench_out";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / ("spans-" + workload + "-seed" + std::to_string(seed) + ".jsonl");
  std::ofstream out(path);
  spans.write_jsonl(out);
  result.note("spans written to " + path.string());
}

Result measure_sim_traced(const SimShape& shape, std::uint64_t seed, double seconds) {
  Result result;
  RepLoop loop(seconds);
  const Clock::time_point origin = loop.start();
  SpanRecorder spans(origin);
  std::map<std::string, std::vector<double>> per_rep;
  std::vector<double> window_ms;
  std::vector<double> overhead;
  double untraced = 0.0;
  double mops = 0;
  SimLayers counted;
  util::Summary q;
  util::Summary u;
  fault::LinkStats link;
  std::size_t windows = 0;
  NoopSink noop;
  for (std::size_t r = 0; loop.another(r); ++r) {
    const std::uint64_t s = rep_seed(seed, r);
    const std::size_t ref_span = spans.begin("bench.untraced_rep");
    const SimRep ref = run_sim_rep(shape, s, "", nullptr, false);
    spans.end(ref_span);
    const SimRep rep = run_sim_rep(shape, s, "", &spans, false);
    result.attempted += ref.attempted + rep.attempted;
    for (const SimRep* checked : {&ref, &rep}) {
      if (!checked->failure.empty()) result.fail(r, checked->attempted, checked->failure);
    }
    const double nosink = run_emit_pass(shape, s, nullptr, "obs.trace.nosink_run", r, spans,
                                        result);
    const double with_noop = run_emit_pass(shape, s, &noop, "obs.trace.noop_run", r, spans,
                                           result);
    const SimLayers& l = rep.layers;
    const double traced_s = rep.setup_s + rep.verified_s;
    const double untraced_s = ref.setup_s + ref.verified_s;
    overhead.push_back(traced_s - untraced_s);
    untraced += untraced_s;
    per_rep["api.system_ctor_s"].push_back(l.ctor_s);
    per_rep["sim.run_s"].push_back(l.run_s);
    per_rep["sim.run_mops_per_s"].push_back(
        ratio(static_cast<double>(rep.completed), l.run_s));
    per_rep["obs.trace.emit_s"].push_back(with_noop - nosink);
    per_rep["obs.live.ingest_s"].push_back(l.ingest_s);
    per_rep["obs.live.window_s"].push_back(l.window_s);
    per_rep["obs.live.finish_s"].push_back(l.finish_s);
    window_ms.insert(window_ms.end(), l.window_ms.begin(), l.window_ms.end());
    if (r < kCountedReps) {
      mops += static_cast<double>(rep.completed);
      counted.sends += l.sends;
      counted.delivers += l.delivers;
      counted.sequenced += l.sequenced;
      counted.agree_ticks.merge(l.agree_ticks);
      q.merge(rep.report.query_latency);
      u.merge(rep.report.update_latency);
      link.retransmits += rep.link.retransmits;
      link.duplicates_suppressed += rep.link.duplicates_suppressed;
      link.data_sent += rep.link.data_sent;
      windows += rep.windows;
    }
  }
  if (!measure_mscript(shape, seed, spans, result)) {
    result.correct = false;
    result.note("FAILED: an mscript program failed to validate or round-trip");
  }
  const double wall = seconds_between(origin, Clock::now());

  const auto med = [&](const char* name) { return median(per_rep[name]); };
  result.add("api.system_ctor_s", med("api.system_ctor_s"), "s");
  result.add("sim.run_s", med("sim.run_s"), "s");
  result.add("sim.run_mops_per_s", med("sim.run_mops_per_s"), "mops/s");
  result.add("sim.msg_sends_per_mop", ratio(counted.sends, mops), "msgs/mop");
  result.add("sim.msg_delivers_per_mop", ratio(counted.delivers, mops), "msgs/mop");
  for (Metric& m : latency_metrics(q, u)) result.metrics.push_back(std::move(m));
  result.add("obs.trace.emit_s", med("obs.trace.emit_s"), "s");
  result.add("obs.live.ingest_s", med("obs.live.ingest_s"), "s");
  result.add("obs.live.window_s", med("obs.live.window_s"), "s");
  result.add("obs.live.window_ms_p50", median(window_ms), "ms");
  result.add("obs.live.window_ms_max",
             window_ms.empty() ? 0.0 : *std::max_element(window_ms.begin(), window_ms.end()),
             "ms");
  result.add("obs.live.windows", static_cast<double>(windows), "count");
  result.add("obs.live.finish_s", med("obs.live.finish_s"), "s");
  result.add("abcast.sequenced_per_mop", ratio(counted.sequenced, mops), "count/mop");
  result.add("abcast.agree_ticks_p50", tick_percentile(counted.agree_ticks, 50), "ticks");
  result.add("abcast.agree_ticks_p99", tick_percentile(counted.agree_ticks, 99), "ticks");
  result.add("fault.link_retransmits_per_mop", ratio(link.retransmits, mops), "count/mop");
  result.add("fault.link_dedup_per_mop", ratio(link.duplicates_suppressed, mops),
             "count/mop");
  result.add("fault.retransmit_rate", ratio(link.retransmits, link.data_sent), "ratio");
  // mscript.* were added by measure_mscript.
  add_zero_metrics(result, kExecOnlyLayers);
  result.note(std::to_string(per_rep["sim.run_s"].size()) + " traced reps; " +
              std::to_string(counted.agree_ticks.count()) + " abcast_agree spans and " +
              std::to_string(window_ms.size()) + " window cuts sampled");
  result.note(latency_samples_note(q, u));
  add_trace_accounting(result, spans, wall, overhead, untraced);
  write_spans(spans, shape.name, seed, result);
  return result;
}

Result measure_exec_traced(std::uint64_t seed, double seconds) {
  Result result;
  RepLoop loop(seconds);
  const Clock::time_point origin = loop.start();
  SpanRecorder spans(origin);
  std::map<std::string, std::vector<double>> per_rep;
  std::vector<double> overhead;
  double untraced = 0.0;
  double committed = 0;
  double aborts = 0;
  std::size_t verify_windows = 0;
  obs::StreamVerdict stream_verdict = obs::StreamVerdict::kOk;
  NoopSink noop;
  for (std::size_t r = 0; loop.another(r); ++r) {
    const std::uint64_t s = rep_seed(seed, r);
    const exec::ExecConfig config = exec_config(s);
    const std::uint64_t attempted = config.threads * config.mops_per_thread;

    std::size_t span = spans.begin("bench.untraced_rep");
    const ExecRep ref = run_exec_rep(s);
    spans.end(span);
    result.attempted += attempted;
    if (!ref.failure.empty()) result.fail(r, attempted, ref.failure);

    span = spans.begin("exec.run");
    const exec::ExecResult run = exec::run(config);
    const double run_s = spans.end(span);
    span = spans.begin("exec.merge_logs");
    const std::size_t merged = exec::merge_logs(run).size();
    const double merge_s = spans.end(span);
    span = spans.begin("exec.verify_execution");
    const exec::VerifyReport verdict = exec::verify_execution(run);
    const double verify_s = spans.end(span);
    exec::VerifyOptions fast;
    fast.run_audit = false;
    span = spans.begin("exec.verify_execution.no_audit");
    const exec::VerifyReport fast_verdict = exec::verify_execution(run, fast);
    const double verify_fast_s = spans.end(span);
    obs::StreamingAuditor auditor(exec::stream_options(config));
    span = spans.begin("exec.stream_execution");
    const obs::StreamingReport& streamed = exec::stream_execution(run, auditor);
    const double stream_s = spans.end(span);
    span = spans.begin("obs.trace.noop_run");
    const exec::ExecResult noop_run = exec::run(config, &noop);
    const double noop_s = spans.end(span);

    result.attempted += 2 * attempted;  // the traced run and the no-op-sink run
    std::string failure = exec_gate(run, verdict, attempted);
    if (failure.empty()) failure = exec_gate(run, fast_verdict, attempted);
    if (failure.empty() && merged != attempted) failure = "merge_logs lost m-ops";
    if (failure.empty() && !streamed.ok()) {
      failure = "stream_execution verdict " +
                std::string(obs::to_string(streamed.verdict)) + ": " + streamed.detail;
    }
    if (!failure.empty()) result.fail(r, attempted, failure);
    if (noop_run.stats.committed != attempted) {
      result.fail(r, attempted, "the engine run with a no-op sink lost m-ops");
    }
    if (!streamed.ok()) stream_verdict = streamed.verdict;

    overhead.push_back(run_s + verify_s - ref.verified_s);
    untraced += ref.verified_s;
    per_rep["exec.run_s"].push_back(run_s);
    per_rep["exec.run_mops_per_s"].push_back(
        ratio(static_cast<double>(run.stats.committed), run_s));
    per_rep["exec.merge_s"].push_back(merge_s);
    per_rep["exec.verify_s"].push_back(verify_s);
    per_rep["exec.verify_fast_s"].push_back(verify_fast_s);
    per_rep["exec.stream_verify_s"].push_back(stream_s);
    per_rep["core.audit_s"].push_back(verify_s - verify_fast_s);
    per_rep["obs.trace.emit_s"].push_back(noop_s - run_s);
    if (r < kCountedReps) {
      committed += static_cast<double>(run.stats.committed);
      aborts += static_cast<double>(run.stats.aborted_lock + run.stats.aborted_validation);
      verify_windows += verdict.windows;
    }
  }
  const double wall = seconds_between(origin, Clock::now());

  const auto med = [&](const char* name) { return median(per_rep[name]); };
  add_zero_metrics(result, kSimOnlyLayers);
  result.add("obs.trace.emit_s", med("obs.trace.emit_s"), "s");
  result.add("exec.run_s", med("exec.run_s"), "s");
  result.add("exec.run_mops_per_s", med("exec.run_mops_per_s"), "mops/s");
  result.add("exec.merge_s", med("exec.merge_s"), "s");
  result.add("exec.abort_rate", ratio(aborts, committed + aborts), "ratio");
  result.add("exec.retries_per_mop", ratio(aborts, committed), "count/mop");
  result.add("exec.verify_s", med("exec.verify_s"), "s");
  result.add("exec.verify_fast_s", med("exec.verify_fast_s"), "s");
  result.add("exec.verify_windows", static_cast<double>(verify_windows), "count");
  result.add("exec.stream_verify_s", med("exec.stream_verify_s"), "s");
  result.add("exec.stream_verdict", static_cast<double>(stream_verdict), "code");
  result.add("core.audit_s", med("core.audit_s"), "s");
  result.note(std::to_string(per_rep["exec.run_s"].size()) + " traced reps on " +
              std::to_string(exec_threads()) + " engine threads");
  add_trace_accounting(result, spans, wall, overhead, untraced);
  write_spans(spans, kExecName, seed, result);
  return result;
}

// ----------------------------------------------------------------- output

std::string json_number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void print(const Result& result, const std::string& workload) {
  std::printf("# workload %s\n", workload.c_str());
  std::printf("# host: nproc=%zu compiler=\"%s\" build=%s flags=\"%s\"\n", host_cpus(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  if (workload == kExecName) {
    std::printf("# engine threads %zu (<= nproc %zu)\n", exec_threads(), host_cpus());
  }
  for (const Metric& m : result.metrics) {
    std::printf("# %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# failed_share %.6f (%llu of %llu m-ops)\n",
              ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted)),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& line : result.notes) std::printf("# %s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i != 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

const SimShape* find_sim(const std::string& name) {
  for (const SimShape* shape : {&kSimN4, &kSimN16}) {
    if (name == shape->name) return shape;
  }
  return nullptr;
}

// --------------------------------------------------------------- selftest

bool expect(bool condition, const std::string& what) {
  std::fprintf(stderr, "selftest: %s: %s\n", condition ? "pass" : "FAIL", what.c_str());
  return condition;
}

/// The metrics a fixed seed must reproduce exactly: counts and virtual
/// time (wall-clock figures and peak RSS excluded).
bool deterministic_metric(const Metric& m) {
  return m.unit == "ticks" || m.unit == "count" || m.unit == "ratio" ||
         m.unit.find("/mop") != std::string::npos;
}

bool same_deterministic_metrics(const Result& a, const Result& b, const std::string& label) {
  bool ok = a.metrics.size() == b.metrics.size();
  for (std::size_t i = 0; ok && i < a.metrics.size(); ++i) {
    if (!deterministic_metric(a.metrics[i])) continue;
    if (a.metrics[i].value != b.metrics[i].value) {
      ok = expect(false, label + ": " + a.metrics[i].name + " " +
                             json_number(a.metrics[i].value) + " vs " +
                             json_number(b.metrics[i].value));
    }
  }
  return expect(ok, label + ": counts and virtual-time metrics repeat exactly");
}

struct Charged {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string how;
};

/// Runs the counted reps of `shape` in a child process and charges them
/// through the same gate as a measured run. A protocol invariant that
/// aborts the child mid-rep charges that rep's m-operations as failed,
/// like a non-ok verdict would.
Charged run_gated_in_child(const SimShape& shape, std::uint64_t seed,
                           const std::string& mutation) {
  Charged charged;
  int fds[2];
  if (pipe(fds) != 0) {
    charged.how = "pipe failed";
    return charged;
  }
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child == 0) {
    close(fds[0]);
    for (std::size_t r = 0; r < kCountedReps; ++r) {
      const std::uint64_t attempted = shape.processes * shape.ops_per_process;
      dprintf(fds[1], "start %llu\n", static_cast<unsigned long long>(attempted));
      const SimRep rep = run_sim_rep(shape, rep_seed(seed, r), mutation, nullptr, false);
      dprintf(fds[1], "end %llu\n",
              static_cast<unsigned long long>(rep.failure.empty() ? 0 : rep.attempted));
    }
    _exit(0);
  }
  close(fds[1]);
  if (child < 0) {
    close(fds[0]);
    charged.how = "fork failed";
    return charged;
  }
  std::string out;
  char buf[256];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) out.append(buf, n);
  close(fds[0]);
  int status = 0;
  waitpid(child, &status, 0);
  std::istringstream lines(out);
  std::string tag;
  unsigned long long mops = 0;
  std::uint64_t in_flight = 0;
  while (lines >> tag >> mops) {
    if (tag == "start") {
      charged.attempted += mops;
      in_flight = mops;
    } else {
      charged.failed += mops;
      in_flight = 0;
    }
  }
  charged.failed += in_flight;
  charged.how = WIFSIGNALED(status)
                    ? "a rep aborted on signal " + std::to_string(WTERMSIG(status))
                    : "verdicts not ok";
  return charged;
}

int selftest() {
  bool ok = true;
  const std::uint64_t seed = 7;
  for (const SimShape* shape : {&kSimN4, &kSimN16}) {
    const std::string name = shape->name;
    // The gate is never a silent pass: a protocol that skips a delivery
    // must be caught and charged.
    const Charged mutated = run_gated_in_child(*shape, seed, "skip-delivery");
    ok &= expect(mutated.failed > 0,
                 name + " with mutation skip-delivery reports failed_share " +
                     json_number(ratio(mutated.failed, mutated.attempted)) + " > 0 (" +
                     mutated.how + ")");

    const Result a = measure_sim_e2e(*shape, seed, 0.0, true);
    const Result b = measure_sim_e2e(*shape, seed, 0.0, true);
    ok &= expect(a.correct && a.failed == 0, name + " is correct with failed_share 0");
    ok &= same_deterministic_metrics(a, b, name + " e2e, seed " + std::to_string(seed));
    const Result other = measure_sim_e2e(*shape, seed + 1, 0.0, true);
    ok &= expect(other.fingerprint != a.fingerprint,
                 name + ": another seed generates other inputs");

    const Result ta = measure_sim_traced(*shape, seed, 0.0);
    const Result tb = measure_sim_traced(*shape, seed, 0.0);
    ok &= expect(ta.correct, name + " traced run is correct");
    ok &= same_deterministic_metrics(ta, tb, name + " traced, seed " + std::to_string(seed));
  }
  std::fprintf(stderr, "selftest: %s\n", ok ? "all passed" : "FAILED");
  return ok ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "mocc_perfbench: %s\nusage: mocc_perfbench --workload <%s|%s|%s> --seed <n> "
               "--seconds <s> --trace <0|1>\n       mocc_perfbench --selftest\n",
               why, kSimN4.name, kSimN16.name, kExecName);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#if defined(__GLIBC__)
  // One malloc arena for every thread. With glibc's default of one arena
  // per thread, each rep's short-lived engine workers land on whichever
  // arenas earlier reps left behind, so the peak resident set and the
  // engine's set-up time jump between runs of the same input. The engine
  // run, where the workers share this arena, is under 1% of a rep.
  mallopt(M_ARENA_MAX, 1);
#endif
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  Result result;
  if (const SimShape* shape = find_sim(workload)) {
    result = trace == 1 ? measure_sim_traced(*shape, seed, seconds)
                        : measure_sim_e2e(*shape, seed, seconds);
  } else if (workload == kExecName) {
    result = trace == 1 ? measure_exec_traced(seed, seconds)
                        : measure_exec_e2e(seed, seconds);
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  print(result, workload);
  return result.correct ? 0 : 1;
}
