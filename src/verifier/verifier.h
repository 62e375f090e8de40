// ConfVerify (paper §5.2, Appendix A): a static verifier over the *binary*
// that re-establishes, without trusting ConfLLVM, that every private-data
// flow is guarded. It:
//   1. identifies procedure entries by the MCall magic prefix and walks
//      each procedure over the loader's decoded slots
//      (LoadedProgram::decoded, what every VM engine executes) — not a
//      fresh decode of the raw words — rejecting on any slot that holds no
//      instruction; a slot table that does not cover the code image word
//      for word fails closed;
//   2. re-checks magic uniqueness on the raw code words, which kLoadCode
//      compares at run time (every magic-prefixed word is a legit site);
//   3. runs a per-procedure register-taint dataflow seeded from the entry
//      magic's taint bits (unused argument registers and caller-saved
//      registers conservatively private, callee-saved public);
//   4. checks every load/store is guarded: an MPX bndcl/bndcu pair on the
//      same base earlier in the block with no intervening call/redefinition,
//      a segment prefix under the segmentation scheme, or an rsp-relative
//      operand in a chkstk-protected frame;
//   5. checks stores flow value-taint ⊑ region-taint, direct/indirect calls
//      match callee magic taints, returns use the exact CFI sequence, branch
//      conditions are public (strict mode), and rejects stray indirect
//      jumps, rets, or out-of-procedure direct jumps.
#ifndef CONFLLVM_SRC_VERIFIER_VERIFIER_H_
#define CONFLLVM_SRC_VERIFIER_VERIFIER_H_

#include <string>
#include <vector>

#include "src/vm/program.h"

namespace confllvm {

struct VerifyResult {
  bool ok = false;
  std::vector<std::string> errors;
  size_t procedures = 0;
  size_t instructions = 0;

  std::string ErrorText() const {
    std::string out;
    for (const auto& e : errors) {
      out += e + "\n";
    }
    return out;
  }
};

// Verifies a fully-instrumented (CFI + MPX or segmentation) loaded binary.
// Never cached: every caller (pipeline verify stage, link-time verify,
// confccd's verified executes) re-runs it on every request.
VerifyResult Verify(const LoadedProgram& prog);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_VERIFIER_VERIFIER_H_
