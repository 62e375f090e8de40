#include "src/ir/ir.h"

#include <sstream>

#include "src/support/strings.h"

namespace confllvm {

namespace {

const char* BinName(BinOp b) {
  switch (b) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kMul: return "mul";
    case BinOp::kSDiv: return "sdiv";
    case BinOp::kSRem: return "srem";
    case BinOp::kAnd: return "and";
    case BinOp::kOr: return "or";
    case BinOp::kXor: return "xor";
    case BinOp::kShl: return "shl";
    case BinOp::kShr: return "shr";
    case BinOp::kFAdd: return "fadd";
    case BinOp::kFSub: return "fsub";
    case BinOp::kFMul: return "fmul";
    case BinOp::kFDiv: return "fdiv";
  }
  return "?";
}

const char* CcName(CmpCc cc) {
  switch (cc) {
    case CmpCc::kEq: return "eq";
    case CmpCc::kNe: return "ne";
    case CmpCc::kLt: return "lt";
    case CmpCc::kLe: return "le";
    case CmpCc::kGt: return "gt";
    case CmpCc::kGe: return "ge";
  }
  return "?";
}

std::string R(uint32_t v) {
  return v == kNoReg ? std::string("_") : "%" + std::to_string(v);
}

std::string MemStr(const Instr& in) {
  std::ostringstream os;
  os << (in.region == Qual::kPrivate ? "prv" : "pub") << "[";
  if (in.mem_is_slot) {
    os << "slot" << in.slot;
  } else {
    os << R(in.a);
  }
  if (in.disp != 0) {
    os << (in.disp > 0 ? "+" : "") << in.disp;
  }
  os << "]." << static_cast<int>(in.size);
  return os.str();
}

}  // namespace

std::string TaintBits::ToString() const {
  std::string s;
  for (int i = 0; i < 4; ++i) {
    s += args[i] == Qual::kPrivate ? 'H' : 'L';
  }
  s += ':';
  s += ret == Qual::kPrivate ? 'H' : 'L';
  return s;
}

std::string IrToString(const IrFunction& f) {
  std::ostringstream os;
  os << "func " << f.name << " taints=" << f.taints.ToString() << " params="
     << f.num_params << "\n";
  for (size_t i = 0; i < f.slots.size(); ++i) {
    os << "  slot" << i << ": " << f.slots[i].name << " size=" << f.slots[i].size
       << " " << (f.slots[i].region == Qual::kPrivate ? "prv" : "pub") << "\n";
  }
  for (const BasicBlock& bb : f.blocks) {
    os << " bb" << bb.id << ":\n";
    for (const Instr& in : bb.instrs) {
      os << "   ";
      switch (in.op) {
        case IrOp::kConstInt:
          os << R(in.dst) << " = const " << in.imm;
          break;
        case IrOp::kConstFloat:
          os << R(in.dst) << " = fconst " << in.fimm;
          break;
        case IrOp::kMov:
          os << R(in.dst) << " = " << R(in.a);
          break;
        case IrOp::kBin:
          os << R(in.dst) << " = " << BinName(in.bin) << " " << R(in.a) << ", " << R(in.b);
          break;
        case IrOp::kNeg:
          os << R(in.dst) << " = neg " << R(in.a);
          break;
        case IrOp::kNot:
          os << R(in.dst) << " = not " << R(in.a);
          break;
        case IrOp::kCmp:
          os << R(in.dst) << " = cmp." << CcName(in.cc) << " " << R(in.a) << ", " << R(in.b);
          break;
        case IrOp::kLoad:
          os << R(in.dst) << " = load " << MemStr(in);
          break;
        case IrOp::kStore:
          os << "store " << MemStr(in) << " = " << R(in.b);
          break;
        case IrOp::kAddrGlobal:
          os << R(in.dst) << " = addrglobal g" << in.global_idx << "+" << in.disp;
          break;
        case IrOp::kAddrSlot:
          os << R(in.dst) << " = addrslot slot" << in.slot << "+" << in.disp;
          break;
        case IrOp::kAddrFunc:
          os << R(in.dst) << " = addrfunc f" << in.func_idx;
          break;
        case IrOp::kCall:
        case IrOp::kCallExt:
        case IrOp::kCallMod:
        case IrOp::kICall: {
          if (in.HasDst()) {
            os << R(in.dst) << " = ";
          }
          if (in.op == IrOp::kCall) {
            os << "call f" << in.func_idx;
          } else if (in.op == IrOp::kCallExt) {
            os << "callext t" << in.ext_idx;
          } else if (in.op == IrOp::kCallMod) {
            os << "callmod m" << in.ext_idx;
          } else {
            os << "icall " << R(in.a) << " bits=" << Hex(in.taint_bits);
          }
          os << "(";
          for (size_t i = 0; i < in.args.size(); ++i) {
            if (i != 0) {
              os << ", ";
            }
            os << R(in.args[i]);
          }
          os << ")";
          break;
        }
        case IrOp::kIntToFloat:
          os << R(in.dst) << " = itof " << R(in.a);
          break;
        case IrOp::kFloatToInt:
          os << R(in.dst) << " = ftoi " << R(in.a);
          break;
        case IrOp::kJmp:
          os << "jmp bb" << in.bb_t;
          break;
        case IrOp::kBr:
          os << "br " << R(in.a) << ", bb" << in.bb_t << ", bb" << in.bb_f;
          break;
        case IrOp::kBrTable:
          os << "brtable " << R(in.a) << ", [";
          for (size_t i = 0; i < in.args.size(); ++i) {
            if (i != 0) {
              os << ", ";
            }
            os << "bb" << in.args[i];
          }
          os << "], default bb" << in.bb_f;
          break;
        case IrOp::kSelect:
          os << R(in.dst) << " = select " << R(in.a) << " ? " << R(in.b)
             << " : " << R(in.dst);
          break;
        case IrOp::kRet:
          os << "ret";
          if (in.a != kNoReg) {
            os << " " << R(in.a);
          }
          break;
      }
      os << "\n";
    }
  }
  return os.str();
}

std::string IrToString(const IrModule& m) {
  std::ostringstream os;
  for (size_t i = 0; i < m.globals.size(); ++i) {
    os << "global g" << i << ": " << m.globals[i].name << " size=" << m.globals[i].size
       << " " << (m.globals[i].region == Qual::kPrivate ? "prv" : "pub") << "\n";
  }
  for (size_t i = 0; i < m.imports.size(); ++i) {
    os << "import t" << i << ": " << m.imports[i].name
       << " taints=" << m.imports[i].taints.ToString() << "\n";
  }
  for (const IrFunction& f : m.functions) {
    os << IrToString(f);
  }
  return os.str();
}

}  // namespace confllvm
