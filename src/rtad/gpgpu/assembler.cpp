#include "rtad/gpgpu/assembler.hpp"

#include <cctype>
#include <charconv>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

namespace rtad::gpgpu {

namespace {

const std::map<std::string, Opcode, std::less<>>& mnemonic_map() {
  static const auto m = [] {
    std::map<std::string, Opcode, std::less<>> map;
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
      const auto op = static_cast<Opcode>(i);
      map.emplace(std::string(mnemonic(op)), op);
    }
    return map;
  }();
  return m;
}

struct Token {
  std::string text;
};

std::string strip(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_operands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(strip(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  cur = strip(cur);
  if (!cur.empty()) out.push_back(cur);
  return out;
}

bool is_integer(const std::string& t) {
  std::size_t i = (t[0] == '-' || t[0] == '+') ? 1 : 0;
  if (i >= t.size()) return false;
  if (t.size() > i + 2 && t[i] == '0' && (t[i + 1] == 'x' || t[i + 1] == 'X')) {
    for (std::size_t k = i + 2; k < t.size(); ++k) {
      if (!std::isxdigit(static_cast<unsigned char>(t[k]))) return false;
    }
    return true;
  }
  for (std::size_t k = i; k < t.size(); ++k) {
    if (!std::isdigit(static_cast<unsigned char>(t[k]))) return false;
  }
  return true;
}

bool is_float(const std::string& t) {
  if (t.find('.') == std::string::npos) return false;
  char* end = nullptr;
  std::strtof(t.c_str(), &end);
  return end == t.c_str() + t.size();
}

std::int64_t parse_int(const std::string& t, std::uint32_t line) {
  try {
    return std::stoll(t, nullptr, 0);
  } catch (const std::exception&) {
    throw AsmError(line, "bad integer literal '" + t + "'");
  }
}

class Parser {
 public:
  explicit Parser(const std::string& source) : source_(source) {}

  Program run() {
    collect_labels();
    parse_instructions();
    return std::move(program_);
  }

 private:
  struct Line {
    std::uint32_t number;
    std::string text;
  };

  static std::string strip_comment(const std::string& raw) {
    std::string s = raw;
    for (const char c : {';', '#'}) {
      if (const auto pos = s.find(c); pos != std::string::npos) {
        s = s.substr(0, pos);
      }
    }
    return strip(s);
  }

  std::vector<Line> logical_lines() const {
    std::vector<Line> lines;
    std::istringstream in(source_);
    std::string raw;
    std::uint32_t n = 0;
    while (std::getline(in, raw)) {
      ++n;
      const std::string s = strip_comment(raw);
      if (!s.empty()) lines.push_back(Line{n, s});
    }
    return lines;
  }

  void collect_labels() {
    std::uint32_t pc = 0;
    for (const auto& line : logical_lines()) {
      if (line.text.back() == ':') {
        const std::string name = strip(line.text.substr(0, line.text.size() - 1));
        if (name.empty()) throw AsmError(line.number, "empty label");
        if (!labels_.emplace(name, pc).second) {
          throw AsmError(line.number, "duplicate label '" + name + "'");
        }
      } else if (line.text[0] != '.') {
        ++pc;
      }
    }
  }

  Operand parse_operand(const std::string& t, std::uint32_t line) const {
    if (t.empty()) throw AsmError(line, "empty operand");
    if (t == "vcc") return Operand::vcc();
    if (t == "exec") return Operand::exec();
    if (t == "m0") return Operand::m0();
    if ((t[0] == 's' || t[0] == 'v') && t.size() > 1 &&
        std::isdigit(static_cast<unsigned char>(t[1]))) {
      const auto idx = parse_int(t.substr(1), line);
      if (idx < 0 || idx > 255) throw AsmError(line, "register index range");
      return t[0] == 's' ? Operand::sgpr(static_cast<std::uint16_t>(idx))
                         : Operand::vgpr(static_cast<std::uint16_t>(idx));
    }
    if (is_float(t)) return Operand::litf(std::strtof(t.c_str(), nullptr));
    if (is_integer(t)) {
      return Operand::lit(static_cast<std::uint32_t>(parse_int(t, line)));
    }
    throw AsmError(line, "cannot parse operand '" + t + "'");
  }

  std::int32_t label_or_imm(const std::string& t, std::uint32_t line) const {
    if (is_integer(t)) return static_cast<std::int32_t>(parse_int(t, line));
    if (const auto it = labels_.find(t); it != labels_.end()) {
      return static_cast<std::int32_t>(it->second);
    }
    throw AsmError(line, "unknown label '" + t + "'");
  }

  void handle_directive(const Line& line) {
    std::istringstream in(line.text);
    std::string word;
    in >> word;
    if (word == ".kernel") {
      in >> program_.name;
    } else if (word == ".vgprs") {
      int n = 0;
      in >> n;
      if (n <= 0 || n > 256) throw AsmError(line.number, "bad .vgprs");
      program_.num_vgprs = static_cast<std::uint32_t>(n);
    } else if (word == ".lds") {
      int n = 0;
      in >> n;
      if (n < 0) throw AsmError(line.number, "bad .lds");
      program_.lds_bytes = static_cast<std::uint32_t>(n);
    } else {
      throw AsmError(line.number, "unknown directive '" + word + "'");
    }
  }

  void parse_instructions() {
    for (const auto& line : logical_lines()) {
      if (line.text.back() == ':') continue;
      if (line.text[0] == '.') {
        handle_directive(line);
        continue;
      }
      parse_instruction(line);
    }
  }

  void parse_instruction(const Line& line) {
    const auto space = line.text.find_first_of(" \t");
    const std::string mn = line.text.substr(0, space);
    const std::string rest =
        space == std::string::npos ? "" : strip(line.text.substr(space));
    const auto it = mnemonic_map().find(mn);
    if (it == mnemonic_map().end()) {
      throw AsmError(line.number, "unknown mnemonic '" + mn + "'");
    }
    Instruction inst;
    inst.op = it->second;
    inst.line = line.number;
    auto ops = split_operands(rest);

    auto need = [&](std::size_t n) {
      if (ops.size() != n) {
        throw AsmError(line.number,
                       mn + " expects " + std::to_string(n) + " operands, got " +
                           std::to_string(ops.size()));
      }
    };
    auto op_at = [&](std::size_t i) { return parse_operand(ops[i], line.number); };
    auto opt_imm = [&](std::size_t first_optional) {
      if (ops.size() > first_optional) {
        inst.imm = static_cast<std::int32_t>(
            parse_int(ops[first_optional], line.number));
        ops.resize(first_optional);
      }
    };

    switch (format_of(inst.op)) {
      case Format::kSop2:
      case Format::kVop2:
        need(3);
        inst.dst = op_at(0);
        inst.src0 = op_at(1);
        inst.src1 = op_at(2);
        break;
      case Format::kSop1:
      case Format::kVop1:
        need(2);
        inst.dst = op_at(0);
        inst.src0 = op_at(1);
        break;
      case Format::kSopc:
        need(2);
        inst.src0 = op_at(0);
        inst.src1 = op_at(1);
        break;
      case Format::kVopc:
        // Accept "v_cmp_xx vcc, a, b" or "v_cmp_xx a, b".
        if (ops.size() == 3) {
          if (ops[0] != "vcc") {
            throw AsmError(line.number, "VOPC destination must be vcc");
          }
          inst.src0 = op_at(1);
          inst.src1 = op_at(2);
        } else {
          need(2);
          inst.src0 = op_at(0);
          inst.src1 = op_at(1);
        }
        inst.dst = Operand::vcc();
        break;
      case Format::kSopk:
        need(2);
        inst.dst = op_at(0);
        inst.imm = static_cast<std::int32_t>(parse_int(ops[1], line.number));
        break;
      case Format::kSopp:
        if (inst.op == Opcode::S_BRANCH || inst.op == Opcode::S_CBRANCH_SCC0 ||
            inst.op == Opcode::S_CBRANCH_SCC1 ||
            inst.op == Opcode::S_CBRANCH_VCCZ ||
            inst.op == Opcode::S_CBRANCH_VCCNZ ||
            inst.op == Opcode::S_CBRANCH_EXECZ) {
          need(1);
          inst.imm = label_or_imm(ops[0], line.number);
        } else if (!ops.empty()) {
          need(1);
          inst.imm = static_cast<std::int32_t>(parse_int(ops[0], line.number));
        }
        break;
      case Format::kSmrd:
        // s_load_dword[>xN] sdst, sbase [, byte_offset]
        opt_imm(2);
        need(2);
        inst.dst = op_at(0);
        inst.src0 = op_at(1);
        break;
      case Format::kVop3:
        // VOP3 encodes both 3-source (v_mad/v_fma) and 2-source ops
        // (v_add_f64, v_mul_lo_i32, ...).
        if (ops.size() == 3) {
          inst.dst = op_at(0);
          inst.src0 = op_at(1);
          inst.src1 = op_at(2);
        } else {
          need(4);
          inst.dst = op_at(0);
          inst.src0 = op_at(1);
          inst.src1 = op_at(2);
          inst.src2 = op_at(3);
        }
        break;
      case Format::kFlat:
        // global_load_dword vdst, vaddr, sbase [, offset]
        // global_store_dword vdata, vaddr, sbase [, offset]
        opt_imm(3);
        need(3);
        inst.dst = op_at(0);
        inst.src0 = op_at(1);
        inst.src1 = op_at(2);
        break;
      case Format::kDs:
        // ds_read_b32 vdst, vaddr [, offset]; ds_write_b32 vdata, vaddr [, off]
        opt_imm(2);
        need(2);
        inst.dst = op_at(0);
        inst.src0 = op_at(1);
        break;
      case Format::kMubuf:
        // buffer_atomic_add vdst, vaddr, sbase, vdata [, offset]
        opt_imm(4);
        need(4);
        inst.dst = op_at(0);
        inst.src0 = op_at(1);
        inst.src1 = op_at(2);
        inst.src2 = op_at(3);
        break;
      case Format::kMimg:
      case Format::kVintrp:
        need(2);
        inst.dst = op_at(0);
        inst.src0 = op_at(1);
        break;
      case Format::kExp:
        need(1);
        inst.src0 = op_at(0);
        break;
      case Format::kFormatCount:
        throw AsmError(line.number, "invalid format");
    }
    program_.code.push_back(inst);
  }

  const std::string& source_;
  Program program_;
  std::map<std::string, std::uint32_t, std::less<>> labels_;
};

// Appends the index rather than prepending a literal to it: GCC 12 at -O3
// reports a false -Wrestrict inside `"v" + std::to_string(i)`.
std::string register_text(char file, std::uint32_t index) {
  std::string text(1, file);
  text += std::to_string(index);
  return text;
}

std::string operand_text(const Operand& op) {
  switch (op.kind) {
    case OperandKind::kNone: return "";
    case OperandKind::kSgpr: return register_text('s', op.index);
    case OperandKind::kVgpr: return register_text('v', op.index);
    case OperandKind::kLiteral: {
      std::ostringstream os;
      os << "0x" << std::hex << op.literal;
      return os.str();
    }
    case OperandKind::kVcc: return "vcc";
    case OperandKind::kExec: return "exec";
    case OperandKind::kScc: return "scc";
    case OperandKind::kM0: return "m0";
  }
  return "?";
}

}  // namespace

Program assemble(const std::string& source) { return Parser(source).run(); }

std::string disassemble(const Program& program) {
  std::ostringstream os;
  os << ".kernel " << program.name << "\n.vgprs " << program.num_vgprs
     << "\n.lds " << program.lds_bytes << "\n";
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    const auto& inst = program.code[i];
    os << i << ": " << mnemonic(inst.op);
    const Operand* fields[] = {&inst.dst, &inst.src0, &inst.src1, &inst.src2};
    bool first = true;
    for (const Operand* f : fields) {
      if (f->kind == OperandKind::kNone) continue;
      os << (first ? " " : ", ") << operand_text(*f);
      first = false;
    }
    if (inst.imm != 0) os << " imm=" << inst.imm;
    os << "\n";
  }
  return os.str();
}

}  // namespace rtad::gpgpu
