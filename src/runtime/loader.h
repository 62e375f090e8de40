// Loader (paper §6): lays out regions, relocates globals, patches global
// references in code, chooses the random 59-bit magic prefixes post-link and
// re-checks their uniqueness against every code word, appends exit stubs,
// and pre-decodes the code image.
#ifndef CONFLLVM_SRC_RUNTIME_LOADER_H_
#define CONFLLVM_SRC_RUNTIME_LOADER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/support/diag.h"
#include "src/vm/program.h"

namespace confllvm {

struct LoadOptions {
  bool separate_t_memory = true;   // false: Our1Mem / Base
  bool unified_bounds = false;     // OurMPX-Sep: both bnd regs cover all of U
  uint64_t magic_seed = 0x5eed;    // deterministic prefix selection
};

// Takes ownership of `bin`; returns nullptr (with diags) on failure.
std::unique_ptr<LoadedProgram> LoadBinary(Binary bin, const LoadOptions& opts,
                                          DiagEngine* diags);

// Pre-decodes a code image into one slot per word, walking from word 0: the
// slots every VM engine executes and ConfVerify checks. Continuation words
// of a multi-word instruction and words that do not decode (magic, data)
// get an empty one-word slot.
std::vector<DecodedSlot> DecodeSlots(const std::vector<uint64_t>& code);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_RUNTIME_LOADER_H_
