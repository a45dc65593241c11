#include "core/moperation.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>

#include "util/assert.hpp"

namespace mocc::core {

MOperation::MOperation(ProcessId process, std::vector<Operation> ops, Time invoke,
                       Time response, std::string label)
    : process_(process),
      ops_(std::move(ops)),
      invoke_(invoke),
      response_(response),
      label_(std::move(label)) {
  MOCC_ASSERT_MSG(invoke_ <= response_, "m-operation responds before it is invoked");

  // Group the ops by object, program order kept within a group: each
  // group yields its object, whether it is read and written, its final
  // write, and its external reads (those before the group's first write).
  // A counting pass sizes the derived lists exactly, so each one that is
  // not empty takes one allocation; the position index of an m-operation
  // with few ops lives on the stack.
  const std::size_t n = ops_.size();
  constexpr std::size_t kInlineOps = 16;
  std::array<std::size_t, kInlineOps> inline_index{};
  std::vector<std::size_t> heap_index(n > kInlineOps ? n : 0);
  std::size_t* const by_object = n > kInlineOps ? heap_index.data() : inline_index.data();
  for (std::size_t i = 0; i < n; ++i) by_object[i] = i;
  std::sort(by_object, by_object + n, [&](std::size_t a, std::size_t b) {
    return ops_[a].object != ops_[b].object ? ops_[a].object < ops_[b].object : a < b;
  });
  const auto for_each_group = [&](auto&& visit) {
    for (std::size_t g = 0; g < n;) {
      const std::size_t first = g;
      const ObjectId object = ops_[by_object[g]].object;
      while (g < n && ops_[by_object[g]].object == object) ++g;
      visit(object, first, g);
    }
  };
  std::size_t groups = 0;
  std::size_t read_groups = 0;
  std::size_t write_groups = 0;
  for_each_group([&](ObjectId, std::size_t first, std::size_t last) {
    bool read = false;
    bool written = false;
    for (std::size_t g = first; g < last; ++g) {
      (ops_[by_object[g]].type == OpType::kWrite ? written : read) = true;
    }
    ++groups;
    read_groups += read ? 1 : 0;
    write_groups += written ? 1 : 0;
  });
  objects_.reserve(groups);
  robjects_.reserve(read_groups);
  wobjects_.reserve(write_groups);
  final_writes_.reserve(write_groups);
  // The external read positions are compacted into the front of the
  // index, behind the group being scanned.
  std::size_t external = 0;
  for_each_group([&](ObjectId object, std::size_t first, std::size_t last) {
    bool read = false;
    std::optional<std::size_t> last_write;
    for (std::size_t g = first; g < last; ++g) {
      const std::size_t pos = by_object[g];
      if (ops_[pos].type == OpType::kWrite) {
        last_write = pos;
        continue;
      }
      read = true;
      // A read preceded by an own write to the same object is internal:
      // it must return the own value and imposes no cross-m-op constraint.
      if (!last_write.has_value()) by_object[external++] = pos;
    }
    objects_.push_back(object);
    if (read) robjects_.push_back(object);
    if (last_write.has_value()) {
      wobjects_.push_back(object);
      final_writes_.push_back(ops_[*last_write]);  // object order: deterministic
    }
  });
  std::sort(by_object, by_object + external);
  external_reads_.reserve(external);
  for (std::size_t e = 0; e < external; ++e) external_reads_.push_back(ops_[by_object[e]]);
}

bool MOperation::writes(ObjectId x) const {
  return std::binary_search(wobjects_.begin(), wobjects_.end(), x);
}

bool MOperation::reads(ObjectId x) const {
  return std::binary_search(robjects_.begin(), robjects_.end(), x);
}

bool MOperation::touches(ObjectId x) const {
  return std::binary_search(objects_.begin(), objects_.end(), x);
}

Value MOperation::final_write_value(ObjectId x) const {
  for (const Operation& op : final_writes_) {
    if (op.object == x) return op.value;
  }
  MOCC_ASSERT_MSG(false, "final_write_value on object not written");
  return 0;
}

std::string MOperation::to_string() const {
  std::ostringstream out;
  out << "P" << process_;
  if (!label_.empty()) out << " '" << label_ << "'";
  out << " [" << invoke_ << "," << response_ << "]:";
  for (const Operation& op : ops_) {
    out << " " << (op.type == OpType::kRead ? "r" : "w") << "(x" << op.object << ")"
        << op.value;
    if (op.type == OpType::kRead) {
      out << "<-";
      if (op.reads_from == kInitialMOp) {
        out << "init";
      } else {
        out << "m" << op.reads_from;
      }
    }
  }
  return out.str();
}

}  // namespace mocc::core
