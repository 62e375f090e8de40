// vISA: the virtual x64-flavoured instruction set this reproduction targets.
//
// The paper emits real x64 with Intel MPX bounds instructions and fs/gs
// segment-prefixed operands. vISA models exactly the features ConfLLVM's
// instrumentation relies on:
//   * 16 integer registers; r15 is the stack pointer (rsp). ABI (paper §4,
//     Windows x64): r1..r4 argument registers, r0 return register,
//     r10..r12 callee-saved, r13/r14 reserved for instrumentation.
//   * 8 float registers f0..f7 (never used for argument passing; the CFI
//     taint bits cover exactly the 4 integer argument registers + return).
//   * memory operands [seg: base + index*scale + disp32]; with a segment
//     prefix the machine uses only the low 32 bits of base and index
//     (paper §3 segmentation scheme).
//   * bndcl/bndcu checks against two bounds registers bnd0 (public region)
//     and bnd1 (private region), in register and memory-operand forms
//     (paper §5.1: the register form is cheaper).
//   * magic words: raw 64-bit data words embedded in the code stream for the
//     taint-aware CFI (paper §4). Magic words have the top bit set; all
//     instruction opcodes stay below 0x80, and the loader additionally
//     re-checks uniqueness of the chosen prefixes against every encoded
//     word, re-rolling on collision (paper §6).
//
// Encoding: one 64-bit word per instruction
//   [63:56] opcode  [55:51] rd  [50:46] rs1  [45:41] rs2
//   [40:38] cc      [37] size1  [36:35] seg  [34] bnd  [33:32] scale
//   [31:0]  imm32/disp32 (signed)
// kMovImm64 is followed by one raw immediate word (variable length, like
// x64); the extra word participates in the magic-uniqueness scan.
#ifndef CONFLLVM_SRC_ISA_ISA_H_
#define CONFLLVM_SRC_ISA_ISA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace confllvm {

// Integer register numbers.
inline constexpr uint8_t kRegRet = 0;          // r0: return value
inline constexpr uint8_t kRegArg0 = 1;         // r1..r4: arguments
inline constexpr uint8_t kNumArgRegs = 4;
inline constexpr uint8_t kRegScratch0 = 13;    // r13: instrumentation scratch
inline constexpr uint8_t kRegScratch1 = 14;    // r14: instrumentation scratch
inline constexpr uint8_t kRegSp = 15;          // r15: rsp
inline constexpr uint8_t kNumIntRegs = 16;
inline constexpr uint8_t kNumFloatRegs = 8;
// 5-bit register field: 0..15 integer, 16..23 float, 31 = none.
inline constexpr uint8_t kFRegBase = 16;
inline constexpr uint8_t kNoMReg = 31;

inline constexpr uint8_t kCalleeSavedRegs[] = {10, 11, 12};
inline bool IsCalleeSaved(uint8_t r) { return r >= 10 && r <= 12; }

enum class Seg : uint8_t { kNone = 0, kFs = 1, kGs = 2 };

enum class Cond : uint8_t { kEq = 0, kNe, kLt, kLe, kGt, kGe };

enum class Op : uint8_t {
  kInvalid = 0x00,
  kMovImm = 0x01,    // rd = sext(imm32)
  kMovImm64 = 0x02,  // rd = next word
  kMov = 0x03,       // rd = rs1
  kAdd = 0x04,
  kSub = 0x05,
  kMul = 0x06,
  kDiv = 0x07,  // signed; divide-by-zero faults
  kRem = 0x08,
  kAnd = 0x09,
  kOr = 0x0a,
  kXor = 0x0b,
  kShl = 0x0c,
  kShr = 0x0d,  // arithmetic right shift
  kAddImm = 0x0e,  // rd = rs1 + sext(imm32)
  kNeg = 0x0f,
  kNot = 0x10,
  kCmp = 0x11,     // rd = (rs1 <cc> rs2) ? 1 : 0
  kLoad = 0x12,    // rd = mem[operand]  (size1: 1 byte zero-extended)
  kStore = 0x13,   // mem[operand] = rd
  kLea = 0x14,     // rd = effective address
  kPush = 0x15,    // rsp -= 8; [rsp] = rd
  kPop = 0x16,     // rd = [rsp]; rsp += 8
  kJmp = 0x17,     // pc = imm32 (code word index)
  kJnz = 0x18,     // if rd != 0
  kJz = 0x19,
  kCall = 0x1a,    // push return address; pc = imm32
  kICall = 0x1b,   // push return address; pc = addr in rs1
  kRet = 0x1c,     // pop return address (vanilla only; U uses the CFI seq)
  kJmpReg = 0x1d,  // pc = addr in rs1 (CFI return sequence only)
  kLoadCode = 0x1e,  // rd = 64-bit code word at code address rs1
  kBndclR = 0x1f,  // fault if rs1 < bnd[bnd].lower
  kBndcuR = 0x20,  // fault if rs1 > bnd[bnd].upper
  kBndclM = 0x21,  // like kBndclR on a full memory operand (implicit lea)
  kBndcuM = 0x22,
  kChkstk = 0x23,  // fault if rsp outside the current thread's stack
  kTrap = 0x24,    // CFI/check failure (imm = code)
  kCallExt = 0x25,  // call trusted import imm32 via the externals table
  kHalt = 0x26,
  kFAdd = 0x27,  // fd = fs1 + fs2
  kFSub = 0x28,
  kFMul = 0x29,
  kFDiv = 0x2a,
  kFNeg = 0x2b,
  kFCmp = 0x2c,   // rd(int) = fs1 <cc> fs2
  kCvtIF = 0x2d,  // fd = (double) rs1
  kCvtFI = 0x2e,  // rd = (int64) fs1
  kFLoad = 0x2f,
  kFStore = 0x30,
  kFMov = 0x31,
  kNop = 0x32,
  kMovIF = 0x33,  // fd = raw bits of rs1 (float-constant materialization)
  kSelect = 0x34,  // rd = (rs1 != 0) ? rs2 : rd (constant-time, no branch)
};

const char* OpName(Op op);

// True for instructions whose encoded word carries a memory operand
// (base/index in the register fields, disp32 in the immediate field).
bool UsesMem(Op op);

struct MemOperand {
  Seg seg = Seg::kNone;
  uint8_t base = kNoMReg;   // integer register or kNoMReg
  uint8_t index = kNoMReg;  // integer register or kNoMReg
  uint8_t scale_log2 = 0;   // 0..3 => *1 *2 *4 *8
  int32_t disp = 0;
};

struct MInstr {
  Op op = Op::kInvalid;
  uint8_t rd = kNoMReg;   // destination (or store source / branch condition)
  uint8_t rs1 = kNoMReg;
  uint8_t rs2 = kNoMReg;
  Cond cc = Cond::kEq;
  bool size1 = false;     // 1-byte memory access
  uint8_t bnd = 0;        // bounds register id (0 public, 1 private)
  MemOperand mem;
  int32_t imm = 0;        // imm32 / disp32 / jump target word index
  int64_t imm64 = 0;      // kMovImm64 payload (second word)

  bool IsMagicWord() const { return op == Op::kInvalid; }
  // Number of 64-bit code words this instruction occupies.
  uint32_t NumWords() const { return op == Op::kMovImm64 ? 2 : 1; }
};

// Encodes to 1 or 2 words appended to `out`.
void Encode(const MInstr& in, std::vector<uint64_t>* out);

// Decodes the instruction starting at words[idx]. Returns std::nullopt for
// words that are not valid instructions (magic/data words, truncated
// kMovImm64). `consumed` receives the word count on success.
std::optional<MInstr> Decode(const std::vector<uint64_t>& words, size_t idx,
                             uint32_t* consumed);

// Disassembles one instruction (tests / debugging).
std::string ToString(const MInstr& in);

// Magic sequences (paper §4): a 59-bit random prefix plus 5 taint bits.
// MCall precedes every procedure entry; MRet is at every valid return site
// with the return-value taint in bit 0 and 4 zero padding bits. The loader
// generates prefixes with bit 58 set, so magic words always have the top
// word bit set and can never decode as an instruction (opcodes < 0x80); it
// additionally re-checks uniqueness against all code words (paper §6).
inline uint64_t MakeMagicWord(uint64_t prefix59, uint8_t taint_bits) {
  return (prefix59 << 5) | (taint_bits & 0x1f);
}
inline uint64_t MagicPrefixOf(uint64_t word) { return word >> 5; }
inline uint8_t MagicTaintsOf(uint64_t word) { return word & 0x1f; }
inline bool HasMagicShape(uint64_t word) { return (word >> 63) != 0; }

}  // namespace confllvm

#endif  // CONFLLVM_SRC_ISA_ISA_H_
