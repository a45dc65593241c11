// Differential oracle for exec::verify_execution.
//
// verify_execution builds each window's History and Figure-6 trace in
// place and closes the window's sync order once for both the Theorem-7
// fast check and the P5.x audit. The reference below is the route it
// replaced, kept test-local: every window replayed through
// protocols::ExecutionRecorder, then build_history, build_ww_order and
// build_trace, and the fast check and the audit each closing their own
// relation (the fast check's with ~P added). Both must print the same
// VerifyReport, byte for byte, on engine runs and on mutated logs.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/audit.hpp"
#include "core/fast_check.hpp"
#include "exec/engine.hpp"
#include "exec/verify.hpp"
#include "protocols/recorder.hpp"
#include "util/timestamp.hpp"

namespace mocc::exec {
namespace {

VerifyReport reference_verify(const ExecResult& result, const VerifyOptions& options) {
  VerifyReport report;
  const std::size_t objects = result.config.objects;
  const auto workers = static_cast<core::ProcessId>(result.config.threads);
  const std::vector<const CommittedMop*> merged = merge_logs(result);
  report.mops = merged.size();

  if (result.stats.committed != merged.size()) {
    report.fail("stats.committed (" + std::to_string(result.stats.committed) +
                ") != merged log size (" + std::to_string(merged.size()) + ")");
  }
  for (std::size_t i = 1; i < merged.size(); ++i) {
    if (merged[i - 1]->tid >= merged[i]->tid) {
      report.fail("merged order not strictly ascending in tid at index " +
                  std::to_string(i));
      return report;
    }
  }

  std::vector<std::uint64_t> last_tid(objects, kInitialTid);
  std::vector<core::Value> last_value(objects, result.config.initial_value);
  std::vector<std::uint64_t> write_count(objects, 0);
  const std::size_t window = std::max<std::size_t>(options.window, 2);
  std::vector<std::pair<std::uint64_t, core::MOpId>> index;

  for (std::size_t begin = 0; begin < merged.size(); begin += window) {
    const std::size_t end = std::min(begin + window, merged.size());
    const std::size_t window_number = report.windows++;
    auto where = [&](const CommittedMop& mop) {
      return "window " + std::to_string(window_number) + ", tid " +
             std::to_string(mop.tid);
    };

    protocols::ExecutionRecorder recorder(workers + 1, objects);
    index.clear();
    core::MOpId snapshot_id = core::kInitialMOp;
    if (begin > 0) {
      snapshot_id = recorder.begin(workers, "snapshot", 0);
      std::vector<core::Operation> snapshot_ops;
      for (std::size_t x = 0; x < objects; ++x) {
        snapshot_ops.push_back(
            core::Operation::write(static_cast<core::ObjectId>(x), last_value[x]));
      }
      recorder.complete(snapshot_id, std::move(snapshot_ops), 1,
                        util::VersionVector::from_entries(write_count), /*ww_seq=*/0);
    }

    for (std::size_t i = begin; i < end; ++i) {
      const CommittedMop& mop = *merged[i];
      const core::MOpId id = recorder.begin(mop.worker, "", mop.invoke + 2);
      std::vector<core::Operation> ops;
      for (const LoggedOp& op : mop.ops) {
        if (op.type == core::OpType::kWrite) {
          ops.push_back(core::Operation::write(op.object, op.value));
          continue;
        }
        if (op.from_tid == kOwnWriteTid) {
          ops.push_back(core::Operation::read(op.object, op.value, core::kInitialMOp));
          continue;
        }
        if (op.from_tid != last_tid[op.object]) {
          report.fail(where(mop) + ": read of object " + std::to_string(op.object) +
                      " from tid " + std::to_string(op.from_tid) +
                      " but the latest committed writer is tid " +
                      std::to_string(last_tid[op.object]));
        }
        const auto hit = std::find_if(index.begin(), index.end(),
                                      [&](const auto& e) { return e.first == op.from_tid; });
        core::MOpId reads_from;
        if (hit != index.end()) {
          reads_from = hit->second;
        } else if (begin > 0) {
          reads_from = snapshot_id;
        } else {
          if (op.from_tid != kInitialTid) {
            report.fail(where(mop) + ": read from unknown tid " +
                        std::to_string(op.from_tid) + " in the first window");
          }
          reads_from = core::kInitialMOp;
        }
        ops.push_back(core::Operation::read(op.object, op.value, reads_from));
      }
      for (const LoggedOp& op : mop.ops) {
        if (op.type != core::OpType::kWrite) continue;
        if (last_tid[op.object] != mop.tid) {
          last_tid[op.object] = mop.tid;
          ++write_count[op.object];
        }
        last_value[op.object] = op.value;
      }
      recorder.complete(
          id, std::move(ops), mop.response + 2, util::VersionVector::from_entries(write_count),
          mop.is_update ? std::optional<std::uint64_t>(mop.tid) : std::nullopt);
      if (mop.is_update) index.emplace_back(mop.tid, id);
    }

    const core::History h = recorder.build_history();
    std::string why;
    if (!h.well_formed(&why)) {
      report.fail("window " + std::to_string(window_number) + ": not well-formed: " + why);
      continue;
    }
    if (!h.value_coherent(&why, result.config.initial_value)) {
      report.fail("window " + std::to_string(window_number) + ": not value-coherent: " + why);
    }
    const core::FastCheckResult fast =
        core::fast_check_condition(h, core::Condition::kMLinearizability,
                                   recorder.build_ww_order(), core::Constraint::kWW);
    if (!fast.constraint_holds || !fast.admissible) {
      report.fail("window " + std::to_string(window_number) +
                  ": fast check failed: " + fast.detail);
    }
    if (options.run_audit) {
      const core::AuditReport audit = core::audit_protocol_execution(
          h, recorder.build_trace(h, /*include_process_order=*/false));
      for (const std::string& v : audit.violations) {
        report.fail("window " + std::to_string(window_number) + ": " + v);
      }
    }
  }

  for (std::size_t x = 0; x < objects; ++x) {
    if (x < result.final_values.size() && result.final_values[x] != last_value[x]) {
      report.fail("final value of object " + std::to_string(x) + " is " +
                  std::to_string(result.final_values[x]) +
                  " but the merged log replays to " + std::to_string(last_value[x]));
    }
  }
  return report;
}

/// Compares both routes on every window size and audit setting; returns
/// how many of those reports failed.
std::size_t expect_same_reports(const ExecResult& result) {
  std::size_t failed = 0;
  for (const std::size_t window : {64u, 512u}) {
    for (const bool run_audit : {true, false}) {
      SCOPED_TRACE("window " + std::to_string(window) +
                   (run_audit ? ", audit" : ", no audit"));
      VerifyOptions options;
      options.window = window;
      options.run_audit = run_audit;
      const VerifyReport got = verify_execution(result, options);
      EXPECT_EQ(got.to_string(), reference_verify(result, options).to_string());
      failed += got.ok ? 0 : 1;
    }
  }
  return failed;
}

ExecResult engine_run(std::size_t threads, std::uint64_t seed) {
  ExecConfig config;
  config.threads = threads;
  config.objects = 16;
  config.mops_per_thread = 1200 / threads;
  config.footprint = 4;
  config.query_ratio = 0.4;
  config.rmw_ratio = 0.5;
  config.zipf_skew = 0.9;
  config.seed = seed;
  return run(config);
}

TEST(ExecVerifyOracle, EngineRunsMatchTheRecorderRoute) {
  for (const std::size_t threads : {1u, 4u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::to_string(threads) + " threads, seed " + std::to_string(seed));
      const ExecResult result = engine_run(threads, seed);
      EXPECT_EQ(expect_same_reports(result), 0u);
    }
  }
}

/// The m-operation at merged position `i`, for mutating in place.
CommittedMop& merged_at(ExecResult& result, std::size_t i) {
  return const_cast<CommittedMop&>(*merge_logs(result)[i]);
}

/// The first external read (not own-write, not initial) of the first
/// m-operation at or after merged position `i` that has one.
LoggedOp* external_read_from(ExecResult& result, std::size_t i) {
  const std::vector<const CommittedMop*> merged = merge_logs(result);
  for (; i < merged.size(); ++i) {
    for (LoggedOp& op : const_cast<CommittedMop*>(merged[i])->ops) {
      if (op.type == core::OpType::kRead && op.from_tid != kOwnWriteTid &&
          op.from_tid != kInitialTid) {
        return &op;
      }
    }
  }
  return nullptr;
}

// Violations in several windows of one log: each mutation is applied at
// positions spread over the 64-m-op windows (and so across 512-op ones).
TEST(ExecVerifyOracle, MutatedLogsMatchTheRecorderRoute) {
  const std::vector<std::size_t> positions = {70, 300, 700, 1100};
  std::size_t failing = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ExecResult clean = engine_run(4, seed);
    ASSERT_EQ(clean.stats.committed, 1200u);

    {  // Stale from_tid: the read names the initial write instead.
      SCOPED_TRACE("stale from_tid");
      ExecResult r = clean;
      for (const std::size_t i : positions) {
        if (LoggedOp* op = external_read_from(r, i)) op->from_tid = kInitialTid;
      }
      failing += expect_same_reports(r);
    }
    {  // Stale from_tid naming an older writer in the same window.
      SCOPED_TRACE("older writer");
      ExecResult r = clean;
      for (const std::size_t i : positions) {
        LoggedOp* op = external_read_from(r, i);
        if (op == nullptr) continue;
        const std::vector<const CommittedMop*> merged = merge_logs(r);
        for (std::size_t k = i; k-- > i - 40;) {
          const CommittedMop& m = *merged[k];
          const bool writes = std::any_of(m.ops.begin(), m.ops.end(), [&](const LoggedOp& w) {
            return w.type == core::OpType::kWrite && w.object == op->object;
          });
          if (writes && m.tid != op->from_tid) {
            op->from_tid = m.tid;
            break;
          }
        }
      }
      failing += expect_same_reports(r);
    }
    {  // Wrong read value.
      SCOPED_TRACE("wrong read value");
      ExecResult r = clean;
      for (const std::size_t i : positions) {
        if (LoggedOp* op = external_read_from(r, i)) op->value += 1000;
      }
      failing += expect_same_reports(r);
    }
    {  // Final value mismatch.
      SCOPED_TRACE("final value");
      ExecResult r = clean;
      r.final_values[3] += 1;
      r.final_values[11] -= 2;
      failing += expect_same_reports(r);
    }
    {  // Non-ascending tid: two m-operations share one tid.
      SCOPED_TRACE("non-ascending tid");
      ExecResult r = clean;
      merged_at(r, 501).tid = merged_at(r, 500).tid;
      failing += expect_same_reports(r);
    }
    {  // A worker whose next invoke stamp equals its previous response
       // stamp: ~P is then not inside ~t, and the fast check needs its
       // own closure.
      SCOPED_TRACE("equal stamps");
      ExecResult r = clean;
      for (auto& log : r.logs) {
        for (std::size_t i = 1; i < log.size(); i += 97) log[i].invoke = log[i - 1].response;
      }
      expect_same_reports(r);
      // The same, together with wrong values and a stale read.
      for (const std::size_t i : positions) {
        if (LoggedOp* op = external_read_from(r, i)) op->value += 7;
      }
      if (LoggedOp* op = external_read_from(r, 900)) op->from_tid = kInitialTid;
      failing += expect_same_reports(r);
    }
  }
  // Every mutated shape but the clean equal-stamps one must have failed
  // under all four option pairs: the corpus exercises the failure paths.
  EXPECT_EQ(failing, 3u * 6u * 4u);
}

// One worker writes x, then reads x's initial value with its next invoke
// stamp equal to the write's response stamp. Only ~P orders the two, so
// the fast check (whose base has ~P) must see the stale read while the
// audit's ~rf ∪ ~t ∪ ~ww does not: this window cannot share one closure.
TEST(ExecVerifyOracle, EqualStampsKeepTheFastCheckOnProcessOrder) {
  ExecResult result;
  result.config.threads = 1;
  result.config.objects = 1;
  result.stats.committed = 2;
  result.logs.resize(1);
  result.logs[0].push_back({0, /*tid=*/1, /*invoke=*/0, /*response=*/2, 1, true,
                            {{core::OpType::kWrite, 0, 1, kInitialTid}}});
  result.logs[0].push_back({0, /*tid=*/2, /*invoke=*/2, /*response=*/3, 1, false,
                            {{core::OpType::kRead, 0, 0, kInitialTid}}});
  result.final_values = {1};
  const VerifyReport report = verify_execution(result);
  EXPECT_NE(report.to_string().find("fast check failed: m1 reads x0 from m"),
            std::string::npos)
      << report.to_string();
  expect_same_reports(result);
}

}  // namespace
}  // namespace mocc::exec
