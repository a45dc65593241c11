#include "core/moperation.hpp"

#include <algorithm>
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
  std::vector<std::size_t> by_object(ops_.size());
  for (std::size_t i = 0; i < by_object.size(); ++i) by_object[i] = i;
  std::sort(by_object.begin(), by_object.end(), [&](std::size_t a, std::size_t b) {
    return ops_[a].object != ops_[b].object ? ops_[a].object < ops_[b].object : a < b;
  });
  std::vector<std::size_t> external_pos;
  for (std::size_t g = 0; g < by_object.size();) {
    const ObjectId object = ops_[by_object[g]].object;
    bool read = false;
    std::optional<std::size_t> last_write;
    for (; g < by_object.size() && ops_[by_object[g]].object == object; ++g) {
      const std::size_t pos = by_object[g];
      if (ops_[pos].type == OpType::kWrite) {
        last_write = pos;
        continue;
      }
      read = true;
      // A read preceded by an own write to the same object is internal:
      // it must return the own value and imposes no cross-m-op constraint.
      if (!last_write.has_value()) external_pos.push_back(pos);
    }
    objects_.push_back(object);
    if (read) robjects_.push_back(object);
    if (last_write.has_value()) {
      wobjects_.push_back(object);
      final_writes_.push_back(ops_[*last_write]);  // object order: deterministic
    }
  }
  std::sort(external_pos.begin(), external_pos.end());
  for (const std::size_t pos : external_pos) external_reads_.push_back(ops_[pos]);
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
