// Three-address intermediate representation.
//
// Mirrors the role LLVM IR plays in the paper: qualifier inference has
// already run (sema), so every virtual register and every memory access
// carries a concrete taint. Codegen consumes this to place data on the
// public/private stacks and to emit region checks and taint-aware CFI.
//
// Conventions:
//  * Virtual registers (vregs) are function-local, typed by RegClass, and
//    carry a Qual taint. The IR is not SSA; locals whose address is never
//    taken are backed by a single vreg that is re-assigned.
//  * Address-taken locals, arrays and structs live in frame slots; each slot
//    is tagged with the region (public/private stack) it must occupy.
//  * Loads/stores either reference a frame slot directly (slot-relative,
//    eligible for the paper's chkstk-based check elision) or an address
//    vreg + displacement (requires a region check under MPX).
#ifndef CONFLLVM_SRC_IR_IR_H_
#define CONFLLVM_SRC_IR_IR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sema/type.h"
#include "src/support/diag.h"

namespace confllvm {

inline constexpr uint32_t kNoReg = 0xffffffffu;
inline constexpr uint32_t kNoBlock = 0xffffffffu;

enum class RegClass : uint8_t { kInt, kFloat };

enum class IrOp : uint8_t {
  kConstInt,    // dst = imm
  kConstFloat,  // dst = fimm
  kMov,         // dst = a
  kBin,         // dst = a <bin> b
  kNeg,         // dst = -a (class from dst)
  kNot,         // dst = ~a
  kCmp,         // dst = (a <cc> b) ? 1 : 0
  kLoad,        // dst = size bytes at [a + disp] / [slot + disp]
  kStore,       // size bytes at [a + disp] / [slot + disp] = b
  kAddrGlobal,  // dst = &global[global_idx] + disp
  kAddrSlot,    // dst = &slot + disp
  kAddrFunc,    // dst = code address of functions[func_idx]
  kCall,        // dst? = functions[func_idx](args)
  kCallExt,     // dst? = trusted_imports[ext_idx](args)
  kCallMod,     // dst? = module_imports[ext_idx](args); target resolved by linker
  kICall,       // dst? = (*a)(args), callee taint bits in `taint_bits`
  kIntToFloat,  // dst = (float) a
  kFloatToInt,  // dst = (int) a
  kJmp,         // goto bb_t
  kBr,          // if a != 0 goto bb_t else bb_f
  kBrTable,     // goto args[a] (a = dense index vreg; args = block ids;
                // bb_f = default when a is out of range)
  kRet,         // return a (kNoReg for void)
  kSelect,      // dst = (a != 0) ? b : dst  (destructive: reads old dst)
};

enum class BinOp : uint8_t {
  kAdd, kSub, kMul, kSDiv, kSRem,
  kAnd, kOr, kXor, kShl, kShr,  // kShr is arithmetic
  kFAdd, kFSub, kFMul, kFDiv,
};

enum class CmpCc : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

// Taints of the 4 argument registers plus the return register, as encoded in
// a CFI magic sequence (paper §4). Unused argument registers are
// conservatively private.
struct TaintBits {
  Qual args[4] = {Qual::kPrivate, Qual::kPrivate, Qual::kPrivate, Qual::kPrivate};
  Qual ret = Qual::kPrivate;

  uint8_t Encode() const {
    uint8_t bits = 0;
    for (int i = 0; i < 4; ++i) {
      bits |= static_cast<uint8_t>(args[i]) << i;
    }
    bits |= static_cast<uint8_t>(ret) << 4;
    return bits;
  }
  static TaintBits Decode(uint8_t bits) {
    TaintBits t;
    for (int i = 0; i < 4; ++i) {
      t.args[i] = static_cast<Qual>((bits >> i) & 1);
    }
    t.ret = static_cast<Qual>((bits >> 4) & 1);
    return t;
  }
  std::string ToString() const;
};

struct Instr {
  IrOp op;
  BinOp bin = BinOp::kAdd;
  CmpCc cc = CmpCc::kEq;
  uint32_t dst = kNoReg;
  uint32_t a = kNoReg;
  uint32_t b = kNoReg;
  int64_t imm = 0;
  double fimm = 0;
  // Memory access (kLoad/kStore/kAddrSlot/kAddrGlobal).
  uint8_t size = 8;              // access size in bytes (1 or 8)
  Qual region = Qual::kPublic;   // taint of the accessed memory
  bool mem_is_slot = false;      // true: slot-relative; false: [a]-relative
  uint32_t slot = 0;
  int64_t disp = 0;
  uint32_t global_idx = 0;
  uint32_t func_idx = 0;  // kCall / kAddrFunc
  uint32_t ext_idx = 0;   // kCallExt (trusted slot) / kCallMod (module slot)
  uint8_t taint_bits = 0;  // kICall: expected callee magic taint bits
  std::vector<uint32_t> args;  // call arguments (≤ 4)
  uint32_t bb_t = kNoBlock;
  uint32_t bb_f = kNoBlock;
  SourceLoc loc;

  bool IsTerminator() const {
    return op == IrOp::kJmp || op == IrOp::kBr || op == IrOp::kBrTable ||
           op == IrOp::kRet;
  }
  bool IsCall() const {
    return op == IrOp::kCall || op == IrOp::kCallExt || op == IrOp::kCallMod ||
           op == IrOp::kICall;
  }
  bool HasDst() const { return dst != kNoReg; }
};

struct BasicBlock {
  uint32_t id = 0;
  std::vector<Instr> instrs;
};

struct VRegInfo {
  RegClass cls = RegClass::kInt;
  Qual taint = Qual::kPublic;
};

struct FrameSlot {
  std::string name;
  uint64_t size = 8;
  uint64_t align = 8;
  Qual region = Qual::kPublic;
};

struct IrFunction {
  std::string name;
  TaintBits taints;          // magic-sequence bits from the signature
  // Whether the signature returns a value. The CFI taint encoding cannot
  // distinguish void from a private return (both encode taint-bit 1), so
  // this travels separately for the linker's cross-module contract check.
  bool returns_value = false;
  uint32_t num_params = 0;   // ≤ 4; param i arrives in arg register i
  std::vector<uint32_t> param_vregs;
  std::vector<VRegInfo> vregs;
  std::vector<FrameSlot> slots;
  std::vector<BasicBlock> blocks;  // blocks[0] is the entry

  uint32_t NewVReg(RegClass cls, Qual taint) {
    vregs.push_back({cls, taint});
    return static_cast<uint32_t>(vregs.size() - 1);
  }
  uint32_t NewBlock() {
    blocks.push_back({});
    blocks.back().id = static_cast<uint32_t>(blocks.size() - 1);
    return blocks.back().id;
  }
};

struct IrGlobal {
  std::string name;
  uint64_t size = 0;
  uint64_t align = 8;
  Qual region = Qual::kPublic;
  std::vector<uint8_t> init;  // empty => zero-init; else init.size() == size
  // Pointer initializers: at byte `first`, the loader writes the absolute
  // address of globals[second] (paper §6: loader relocates globals).
  std::vector<std::pair<uint64_t, uint32_t>> relocs;
};

// Signature of a trusted (T) import, for wrapper generation and CFI checks.
struct IrImport {
  std::string name;
  TaintBits taints;
  uint32_t num_params = 0;
  bool returns_value = false;
  // Level-0/1 taints per parameter for wrapper argument range checks:
  // pointer params record the pointee region the wrapper must validate.
  struct ParamInfo {
    bool is_pointer = false;
    Qual pointee = Qual::kPublic;
  };
  std::vector<ParamInfo> params;
};

// Signature of a function imported from another U module (`import "m"`).
// The callee's entry address is unknown until link time; codegen emits a
// direct call with a relocation and records the declared contract so the
// linker can check it against the resolved definition (src/isa/link.h).
struct IrModImport {
  std::string name;
  TaintBits taints;
  uint32_t num_params = 0;
  bool returns_value = false;
};

struct IrModule {
  std::vector<IrFunction> functions;
  std::vector<IrGlobal> globals;
  std::vector<IrImport> imports;
  std::vector<IrModImport> module_imports;

  const IrFunction* FindFunction(const std::string& name) const {
    for (const auto& f : functions) {
      if (f.name == name) {
        return &f;
      }
    }
    return nullptr;
  }
  int FunctionIndex(const std::string& name) const {
    for (size_t i = 0; i < functions.size(); ++i) {
      if (functions[i].name == name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

// Human-readable IR dump (tests / debugging).
std::string IrToString(const IrFunction& f);
std::string IrToString(const IrModule& m);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_IR_IR_H_
