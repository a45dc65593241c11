// Post-run verification of the multicore engine by the paper's checkers.
//
// The committed logs merge deterministically by (epoch, tid) and are
// replayed into core::History windows, so the SAME checkers that audit
// the simulated protocols judge the real-thread engine:
// History::well_formed, the value-coherence residue check, the Theorem-7
// fast check (m-linearizability base order + the commit-tid order as the
// explicit ~ww synchronization, WW constraint), and the P5.x audit over
// the Figure-6 trace (~rf ∪ ~t ∪ ~ww).
//
// What a window builds, straight from the merged log: its History (each
// m-operation's ops converted once, reads resolved to window-local ids),
// the trace's ts(α) per m-operation (the replayed per-object write
// counts, moved into the trace) and update classification, and ~ww as
// one chain of the updates in tid order. Then the window's sync order
// ~rf ∪ ~t ∪ ~ww is closed ONCE, and the WW-constraint and legality
// scans run once on the closure (core::ClosedOrder). Both checks read
// that one result: the fast check decides on it, and the audit reports
// it as its Lemma 8 / Lemma 9 consequences. One closure serves both
// because the fast check's base adds only ~P, and on engine logs
// ~P ⊆ ~t — a worker draws its next invoke stamp after its previous
// response stamp. A window where that fails (only a hand-built log can
// have it) gives the fast check its own closure of the base with ~P.
//
// Scaling: the checkers work on dense n x n bit relations, so memory and
// the word scans grow with the square of the history size (the closures
// and the row-by-row scans are O(n^2 / 64) words and up, see
// util/relation.hpp), and a 100k-op run is replayed in WINDOWS of
// `options.window` m-operations. Every window after the first starts
// with a synthetic snapshot m-operation (process id = num workers) that
// writes every object the value it had at the window cut, with ww_seq
// below every real tid and invoke/response before every real stamp —
// exactly the paper's imaginary initializing write, re-issued per
// window. Reads from pre-window writers resolve to the snapshot.
//
// Why per-window verdicts compose: commit-tid order refines real time
// (a response stamp is drawn after its tid, an invoke stamp before —
// engine.hpp), so every real-time edge crosses window cuts forward and
// admissibility of each window in tid order implies no cross-window
// witness exists. The replay additionally checks the cross-window glue
// directly: every external read must name the LATEST committed writer
// of its object at that point of the merged order (the OCC validation
// invariant — a lost update breaks it even when both halves of the
// anomaly land in different windows), and the replayed final state must
// equal the store's.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "obs/live.hpp"
#include "obs/timeseries.hpp"

namespace mocc::exec {

struct VerifyOptions {
  /// M-operations per replay window. Each window builds a few
  /// window x window bit relations; the P5.x audit compares timestamps
  /// (O(objects) each) only along the Hasse edges of the closed sync
  /// order, and the closures, the constraint and legality scans work on
  /// 64-bit row words.
  std::size_t window = 512;
  /// Run the P5.x audit per window (the fast check, value coherence, and
  /// the replay invariants always run).
  bool run_audit = true;
};

struct VerifyReport {
  bool ok = true;
  std::size_t mops = 0;     ///< committed m-operations verified
  std::size_t windows = 0;  ///< replay windows checked
  std::vector<std::string> violations;

  void fail(std::string message);
  std::string to_string() const;
};

/// Merges `result`'s logs and checks the full verdict described above.
VerifyReport verify_execution(const ExecResult& result,
                              const VerifyOptions& options = {});

/// Auditor options matching this engine's log shape: m-linearizability
/// (commit-tid order refines real time), the run's initial value, and
/// the verify default window.
obs::StreamingAuditorOptions stream_options(const ExecConfig& config);

/// Feeds the merged committed log through `auditor` in (epoch, tid)
/// order — the trace-free twin of the simulator's TraceSink tap. Reads
/// reference their writer by commit tid (kInitialTid maps to the
/// initializing write, kOwnWriteTid to an internal read), so the SAME
/// streaming windows + ghost-writer checks that audit the simulated
/// protocols judge the real-thread engine. Calls auditor.finish() and
/// returns its report.
///
/// When `series` and `registry` are both non-null, one time-series
/// sample is emitted every `sample_every` m-operations plus one final
/// sample after the audit completes. Samples carry the logical response
/// clock by default; `wallclock` stamps them with milliseconds of
/// wall time instead (non-deterministic — live monitoring only, never
/// a golden artifact).
const obs::StreamingReport& stream_execution(const ExecResult& result,
                                             obs::StreamingAuditor& auditor,
                                             obs::TimeSeriesWriter* series = nullptr,
                                             obs::Registry* registry = nullptr,
                                             std::size_t sample_every = 4096,
                                             bool wallclock = false);

}  // namespace mocc::exec
