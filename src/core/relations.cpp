#include "core/relations.hpp"

#include <algorithm>
#include <cstdint>

namespace mocc::core {

const char* condition_name(Condition c) {
  switch (c) {
    case Condition::kMSequentialConsistency: return "m-sequential-consistency";
    case Condition::kMLinearizability: return "m-linearizability";
    case Condition::kMNormality: return "m-normality";
  }
  return "?";
}

void add_chain(util::BitRelation& rel, const std::vector<MOpId>& chain) {
  // Walk the chain backwards: `later` holds every element after the
  // current one, which is exactly what its row gains.
  const std::size_t words = rel.words_per_row();
  std::vector<std::uint64_t> later(words, 0);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    std::uint64_t* row = rel.row_words(*it);
    for (std::size_t w = 0; w < words; ++w) row[w] |= later[w];
    later[*it / 64] |= std::uint64_t{1} << (*it % 64);
  }
}

util::BitRelation process_order(const History& h) {
  util::BitRelation rel(h.size());
  for (ProcessId p = 0; p < h.num_processes(); ++p) add_chain(rel, h.process_ops(p));
  return rel;
}

util::BitRelation reads_from_order(const History& h) {
  util::BitRelation rel(h.size());
  for (MOpId alpha = 0; alpha < h.size(); ++alpha) {
    for (const Operation& read : h.mop(alpha).external_reads()) {
      if (read.reads_from != kInitialMOp && read.reads_from != alpha) {
        rel.add(read.reads_from, alpha);
      }
    }
  }
  return rel;
}

util::BitRelation real_time_order(const History& h) {
  // Sweep the m-operations by response time while a bitset `later` keeps
  // those invoked after the current response: that bitset is the row.
  const std::size_t n = h.size();
  util::BitRelation rel(n);
  std::vector<MOpId> by_invoke(n);
  for (MOpId id = 0; id < n; ++id) by_invoke[id] = id;
  std::vector<MOpId> by_response = by_invoke;
  std::sort(by_invoke.begin(), by_invoke.end(),
            [&](MOpId a, MOpId b) { return h.mop(a).invoke() < h.mop(b).invoke(); });
  std::sort(by_response.begin(), by_response.end(),
            [&](MOpId a, MOpId b) { return h.mop(a).response() < h.mop(b).response(); });
  std::vector<std::uint64_t> later(rel.words_per_row(), 0);
  for (const MOpId b : by_invoke) later[b / 64] |= std::uint64_t{1} << (b % 64);
  std::size_t next = 0;
  for (const MOpId a : by_response) {
    const Time response = h.mop(a).response();
    for (; next < n && h.mop(by_invoke[next]).invoke() <= response; ++next) {
      later[by_invoke[next] / 64] &= ~(std::uint64_t{1} << (by_invoke[next] % 64));
    }
    // No self pair: a responds no earlier than it invokes, so it has left.
    std::copy(later.begin(), later.end(), rel.row_words(a));
  }
  return rel;
}

util::BitRelation object_order(const History& h) {
  util::BitRelation rel(h.size());
  for (MOpId a = 0; a < h.size(); ++a) {
    for (MOpId b = 0; b < h.size(); ++b) {
      if (a == b || h.mop(a).response() >= h.mop(b).invoke()) continue;
      // share an object?
      const auto& xs = h.mop(a).objects();
      bool share = false;
      for (ObjectId x : xs) {
        if (h.mop(b).touches(x)) {
          share = true;
          break;
        }
      }
      if (share) rel.add(a, b);
    }
  }
  return rel;
}

util::BitRelation base_order(const History& h, Condition condition) {
  util::BitRelation rel = process_order(h);
  rel.merge(reads_from_order(h));
  switch (condition) {
    case Condition::kMSequentialConsistency:
      break;
    case Condition::kMLinearizability:
      rel.merge(real_time_order(h));
      break;
    case Condition::kMNormality:
      rel.merge(object_order(h));
      break;
  }
  return rel;
}

util::BitRelation closed_base_order(const History& h, Condition condition) {
  return base_order(h, condition).transitive_closure();
}

}  // namespace mocc::core
