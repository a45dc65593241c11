// Wall-clock spans the benchmark records around its own calls into the
// library, and the forwarding trace sink that times the streaming
// auditor from outside.
//
// Spans live in memory until the run ends (write_jsonl). Every top-level
// call and every auditor call that cut a window gets a span; the far more
// numerous auditor calls that only ingested an event are summed into their
// parent's child time instead, so that recording them stays cheap.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/live.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

class SpanRecorder {
 public:
  static constexpr std::size_t kNoParent = ~std::size_t{0};

  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span; returns its id (an index into spans()).
  std::size_t begin(std::string name, std::size_t parent = kNoParent) {
    spans_.push_back({std::move(name), parent, Clock::now(), {}, 0.0});
    return spans_.size() - 1;
  }

  /// Closes span `id` and charges its duration to its parent's child time.
  double end(std::size_t id) {
    Record& span = spans_[id];
    span.end = Clock::now();
    const double duration = seconds_between(span.start, span.end);
    if (span.parent != kNoParent) spans_[span.parent].child_s += duration;
    return duration;
  }

  /// Records a span that a sink already timed.
  void add(std::string name, std::size_t parent, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({std::move(name), parent, start, end, 0.0});
    if (parent != kNoParent) spans_[parent].child_s += seconds_between(start, end);
  }

  /// Charges time spent in untracked calls (summed under `name`) to `parent`.
  void add_untracked(const std::string& name, std::size_t parent, double seconds) {
    untracked_[name] += seconds;
    if (parent != kNoParent) spans_[parent].child_s += seconds;
  }

  /// Per span name: total time and self time (total minus child time);
  /// untracked calls appear as rows whose self time is their total.
  struct Row {
    double total_s = 0.0;
    double self_s = 0.0;
    std::size_t calls = 0;
  };
  std::map<std::string, Row> self_times() const {
    std::map<std::string, Row> rows;
    for (const Record& span : spans_) {
      Row& row = rows[span.name];
      const double duration = seconds_between(span.start, span.end);
      row.total_s += duration;
      row.self_s += duration - span.child_s;
      ++row.calls;
    }
    for (const auto& [name, seconds] : untracked_) {
      Row& row = rows[name];
      row.total_s += seconds;
      row.self_s += seconds;
    }
    return rows;
  }

  /// Sum of the durations of spans without a parent.
  double top_level_s() const {
    double total = 0.0;
    for (const Record& span : spans_) {
      if (span.parent == kNoParent) total += seconds_between(span.start, span.end);
    }
    return total;
  }

  /// One JSON object per span: id, name, start/end in ns since the run
  /// began, and parent id (-1 for a top-level call).
  void write_jsonl(std::ostream& out) const {
    for (std::size_t id = 0; id < spans_.size(); ++id) {
      const Record& span = spans_[id];
      out << "{\"id\":" << id << ",\"name\":\"" << span.name
          << "\",\"start_ns\":" << ns_since_origin(span.start)
          << ",\"end_ns\":" << ns_since_origin(span.end) << ",\"parent\":";
      if (span.parent == kNoParent) {
        out << -1;
      } else {
        out << span.parent;
      }
      out << "}\n";
    }
  }

 private:
  struct Record {
    std::string name;
    std::size_t parent = kNoParent;
    Clock::time_point start;
    Clock::time_point end;
    double child_s = 0.0;
  };

  std::int64_t ns_since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::map<std::string, double> untracked_;
};

/// Forwards every trace event and span to a StreamingAuditor, timing each
/// call. A call during which the auditor's window count rose is a window
/// cut (its own span); every other call is ingest. Also counts the events
/// and spans the per-layer metrics need.
class TimedAuditorSink final : public mocc::obs::TraceSink {
 public:
  TimedAuditorSink(mocc::obs::StreamingAuditor& auditor, SpanRecorder& spans,
                   std::size_t parent)
      : auditor_(auditor), spans_(spans), parent_(parent) {}

  void on_event(const mocc::obs::TraceEvent& event) override {
    switch (event.type) {
      case mocc::obs::TraceEventType::kMessageSend: ++sends; break;
      case mocc::obs::TraceEventType::kMessageDeliver: ++delivers; break;
      case mocc::obs::TraceEventType::kAbcastSequence: ++sequenced; break;
      default: break;
    }
    const std::size_t windows = auditor_.report().windows;
    const Clock::time_point start = Clock::now();
    auditor_.on_event(event);
    account(windows, start);
  }

  void on_span(const mocc::obs::Span& span) override {
    if (span.type == mocc::obs::SpanType::kAbcastAgree) {
      agree_ticks.add(static_cast<double>(span.end - span.begin));
    }
    const std::size_t windows = auditor_.report().windows;
    const Clock::time_point start = Clock::now();
    auditor_.on_span(span);
    account(windows, start);
  }

  /// Charges the summed ingest time to the parent span; call once, after
  /// the run and before the parent span ends.
  void flush() {
    spans_.add_untracked("obs.live.ingest", parent_, pending_ingest_s_);
    ingest_s += pending_ingest_s_;
    pending_ingest_s_ = 0.0;
  }

  std::uint64_t sends = 0;
  std::uint64_t delivers = 0;
  std::uint64_t sequenced = 0;
  mocc::util::Summary agree_ticks;
  double ingest_s = 0.0;  ///< valid after flush()
  double window_s = 0.0;
  std::vector<double> window_ms;

 private:
  void account(std::size_t windows_before, Clock::time_point start) {
    const Clock::time_point end = Clock::now();
    if (auditor_.report().windows != windows_before) {
      spans_.add("obs.live.window", parent_, start, end);
      const double seconds = seconds_between(start, end);
      window_s += seconds;
      window_ms.push_back(seconds * 1e3);
    } else {
      pending_ingest_s_ += seconds_between(start, end);
    }
  }

  mocc::obs::StreamingAuditor& auditor_;
  SpanRecorder& spans_;
  std::size_t parent_;
  double pending_ingest_s_ = 0.0;
};

/// Accepts and discards everything: the cost of emission alone.
class NoopSink final : public mocc::obs::TraceSink {
 public:
  void on_event(const mocc::obs::TraceEvent&) override {}
  void on_span(const mocc::obs::Span&) override {}
};

}  // namespace perfbench
