#include "mscript/program.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace mocc::mscript {

namespace {
std::vector<ObjectId> sorted_unique(std::vector<ObjectId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

bool contains(const std::vector<ObjectId>& sorted, ObjectId x) {
  return std::binary_search(sorted.begin(), sorted.end(), x);
}

/// Encoded instruction: u8 op, a, b, c | u32 obj | u32 target | i64 imm.
constexpr std::size_t kInstructionBytes = 4 + 4 + 4 + 8;
}  // namespace

Program::Program(std::vector<Instruction> code, std::uint8_t num_regs,
                 std::vector<ObjectId> may_read, std::vector<ObjectId> may_write,
                 std::string name)
    : code_(std::move(code)),
      num_regs_(num_regs),
      may_read_(sorted_unique(std::move(may_read))),
      may_write_(sorted_unique(std::move(may_write))),
      name_(std::move(name)) {}

std::string Program::validate() const {
  if (code_.empty()) return "empty program";
  if (num_regs_ == 0) return "zero registers";
  // The diagnostic is built only on the failing branch: a valid program
  // validates without allocating.
  const auto fail = [](std::size_t pc, OpCode op, const char* what) {
    return std::string("instruction ")
        .append(std::to_string(pc))
        .append(" (")
        .append(opcode_name(op))
        .append("): ")
        .append(what);
  };
  const auto reg_ok = [&](std::uint8_t r) { return r < num_regs_; };
  for (std::size_t pc = 0; pc < code_.size(); ++pc) {
    const Instruction& ins = code_[pc];
    switch (ins.op) {
      case OpCode::kLoadConst:
        if (!reg_ok(ins.a)) return fail(pc, ins.op, "bad register");
        break;
      case OpCode::kMove:
        if (!reg_ok(ins.a) || !reg_ok(ins.b)) return fail(pc, ins.op, "bad register");
        break;
      case OpCode::kReadObj:
        if (!reg_ok(ins.a)) return fail(pc, ins.op, "bad register");
        if (!contains(may_read_, ins.obj)) {
          return fail(pc, ins.op, "object not in may_read");
        }
        break;
      case OpCode::kWriteObj:
        if (!reg_ok(ins.a)) return fail(pc, ins.op, "bad register");
        if (!contains(may_write_, ins.obj)) {
          return fail(pc, ins.op, "object not in may_write");
        }
        break;
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kCmpEq:
      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
        if (!reg_ok(ins.a) || !reg_ok(ins.b) || !reg_ok(ins.c)) {
          return fail(pc, ins.op, "bad register");
        }
        break;
      case OpCode::kJump:
        if (ins.target >= code_.size()) {
          return fail(pc, ins.op, "jump target out of range");
        }
        break;
      case OpCode::kJumpIfZero:
      case OpCode::kJumpIfNonZero:
        if (!reg_ok(ins.a)) return fail(pc, ins.op, "bad register");
        if (ins.target >= code_.size()) {
          return fail(pc, ins.op, "jump target out of range");
        }
        break;
      case OpCode::kReturn:
        if (!reg_ok(ins.a)) return fail(pc, ins.op, "bad register");
        break;
      default:
        return fail(pc, ins.op, "unknown opcode");
    }
  }
  // The last instruction must not fall off the end.
  const OpCode last = code_.back().op;
  if (last != OpCode::kReturn && last != OpCode::kJump) {
    return "program can fall off the end (last instruction must be return or jump)";
  }
  return "";
}

void Program::encode(util::ByteWriter& out) const {
  out.put_string(name_);
  out.put_u8(num_regs_);
  out.put_u32_vector(may_read_);
  out.put_u32_vector(may_write_);
  out.put_u32(static_cast<std::uint32_t>(code_.size()));
  for (const Instruction& ins : code_) {
    out.put_u8(static_cast<std::uint8_t>(ins.op));
    out.put_u8(ins.a);
    out.put_u8(ins.b);
    out.put_u8(ins.c);
    out.put_u32(ins.obj);
    out.put_u32(ins.target);
    out.put_i64(ins.imm);
  }
}

Program Program::decode(util::ByteReader& in) {
  std::string name = in.get_string();
  const std::uint8_t num_regs = in.get_u8();
  std::vector<ObjectId> may_read = in.get_u32_vector();
  std::vector<ObjectId> may_write = in.get_u32_vector();
  const std::uint32_t count = in.get_u32();
  // Bounds before allocation: a corrupt count must not reserve gigabytes.
  MOCC_ASSERT_MSG(count <= in.remaining() / kInstructionBytes, "message underflow");
  std::vector<Instruction> code;
  code.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Instruction ins;
    ins.op = static_cast<OpCode>(in.get_u8());
    ins.a = in.get_u8();
    ins.b = in.get_u8();
    ins.c = in.get_u8();
    ins.obj = in.get_u32();
    ins.target = in.get_u32();
    ins.imm = in.get_i64();
    code.push_back(ins);
  }
  Program program(std::move(code), num_regs, std::move(may_read),
                  std::move(may_write), std::move(name));
  MOCC_ASSERT_MSG(program.validate().empty(), "decoded program failed validation");
  return program;
}

bool Program::operator==(const Program& other) const {
  if (num_regs_ != other.num_regs_ || name_ != other.name_ ||
      may_read_ != other.may_read_ || may_write_ != other.may_write_ ||
      code_.size() != other.code_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < code_.size(); ++i) {
    const Instruction& x = code_[i];
    const Instruction& y = other.code_[i];
    if (x.op != y.op || x.a != y.a || x.b != y.b || x.c != y.c || x.obj != y.obj ||
        x.target != y.target || x.imm != y.imm) {
      return false;
    }
  }
  return true;
}

const char* opcode_name(OpCode op) {
  switch (op) {
    case OpCode::kLoadConst: return "const";
    case OpCode::kMove: return "move";
    case OpCode::kReadObj: return "read";
    case OpCode::kWriteObj: return "write";
    case OpCode::kAdd: return "add";
    case OpCode::kSub: return "sub";
    case OpCode::kMul: return "mul";
    case OpCode::kCmpEq: return "cmpeq";
    case OpCode::kCmpLt: return "cmplt";
    case OpCode::kCmpLe: return "cmple";
    case OpCode::kJump: return "jump";
    case OpCode::kJumpIfZero: return "jz";
    case OpCode::kJumpIfNonZero: return "jnz";
    case OpCode::kReturn: return "return";
  }
  return "?";
}

std::string to_string(const Program& program) {
  std::ostringstream out;
  out << "program '" << program.name() << "' regs=" << int(program.num_regs())
      << " may_read={";
  for (std::size_t i = 0; i < program.may_read().size(); ++i) {
    if (i > 0) out << ",";
    out << program.may_read()[i];
  }
  out << "} may_write={";
  for (std::size_t i = 0; i < program.may_write().size(); ++i) {
    if (i > 0) out << ",";
    out << program.may_write()[i];
  }
  out << "}\n";
  const auto& code = program.code();
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const Instruction& ins = code[pc];
    out << "  " << pc << ": " << opcode_name(ins.op);
    switch (ins.op) {
      case OpCode::kLoadConst:
        out << " r" << int(ins.a) << " <- " << ins.imm;
        break;
      case OpCode::kMove:
        out << " r" << int(ins.a) << " <- r" << int(ins.b);
        break;
      case OpCode::kReadObj:
        out << " r" << int(ins.a) << " <- obj" << ins.obj;
        break;
      case OpCode::kWriteObj:
        out << " obj" << ins.obj << " <- r" << int(ins.a);
        break;
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kCmpEq:
      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
        out << " r" << int(ins.a) << " <- r" << int(ins.b) << ", r" << int(ins.c);
        break;
      case OpCode::kJump:
        out << " -> " << ins.target;
        break;
      case OpCode::kJumpIfZero:
      case OpCode::kJumpIfNonZero:
        out << " r" << int(ins.a) << " -> " << ins.target;
        break;
      case OpCode::kReturn:
        out << " r" << int(ins.a);
        break;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace mocc::mscript
