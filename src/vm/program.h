// LoadedProgram: a linked, relocated, magic-patched binary plus the region
// map the loader established — everything the VM needs to execute U and the
// verifier needs to validate it against concrete bounds.
#ifndef CONFLLVM_SRC_VM_PROGRAM_H_
#define CONFLLVM_SRC_VM_PROGRAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/isa/binary.h"

namespace confllvm {

struct ExecImage;

// Concrete addresses of every mapped area (paper Figure 3).
struct RegionMap {
  // U's regions (usable areas; guards around them stay unmapped).
  uint64_t pub_base = 0;
  uint64_t pub_size = 0;
  uint64_t prv_base = 0;
  uint64_t prv_size = 0;
  // Segment bases (segmentation scheme; == region bases).
  uint64_t fs = 0;
  uint64_t gs = 0;
  // MPX bounds registers: [lo, hi) per region.
  uint64_t bnd_lo[2] = {0, 0};
  uint64_t bnd_hi[2] = {0, 0};
  // T's own region (U must never touch it).
  uint64_t t_base = 0;
  uint64_t t_size = 0;
  // Region-internal carving (absolute addresses).
  uint64_t pub_globals = 0;
  uint64_t pub_heap = 0;
  uint64_t pub_heap_size = 0;
  uint64_t pub_stack_area = 0;  // kMaxThreads stacks of kThreadStackSize
  uint64_t prv_globals = 0;
  uint64_t prv_heap = 0;
  uint64_t prv_heap_size = 0;
  uint64_t prv_stack_area = 0;
  uint64_t t_stack_area = 0;
  uint64_t t_heap = 0;
  uint64_t t_heap_size = 0;
};

// One decoded code word. Multi-word instructions mark their continuation
// words invalid (executing them faults, like jumping into the middle of an
// x86 instruction — CFI prevents this in verified binaries).
struct DecodedSlot {
  std::optional<MInstr> instr;
  uint32_t words = 1;
};

struct LoadedProgram;

// A program's fast-engine ExecImage (exec_image.h), built at most once and
// shared by every LoadedProgram copy that holds this slot.
class ExecImageSlot {
 public:
  // The image, built from `prog` by the first caller; concurrent callers
  // wait for that one build, and every caller gets the same image.
  const std::shared_ptr<const ExecImage>& Get(const LoadedProgram& prog);
  // The image if it has been built, else null. Never builds.
  const ExecImage* built() const {
    return built_.load(std::memory_order_acquire);
  }

 private:
  std::once_flag once_;
  std::shared_ptr<const ExecImage> image_;
  std::atomic<const ExecImage*> built_{nullptr};
};

struct LoadedProgram {
  Binary binary;  // post-link patched (magic words, global refs)
  std::vector<DecodedSlot> decoded;
  RegionMap map;
  std::vector<uint64_t> global_addr;  // absolute address per global

  // Exit stubs appended by the loader after U's code: returning from the
  // entry function lands here and halts the VM.
  uint32_t exit_stub_word[2] = {0, 0};  // by return-taint bit

  // Loader configuration mirrored for the VM / trusted runtime.
  bool separate_t_memory = true;  // false: Our1Mem (no stack/gs switch)
  bool unified_bounds = false;    // OurMPX-Sep: both bnds cover all of U

  // Fast-engine execution image slot. Every program LoadBinary returns
  // starts with a fresh, empty slot; copies share it, so the artifact
  // cache's Load master and every restore of it hold one image between
  // them. It is filled lazily, by the first Vm that needs an image (engine
  // fast or trace, or a block profile); compile-only, verify-only and
  // ref-engine paths leave it empty. The image is a pure function of
  // decoded and map, and decoded follows binary.code: code that patches a
  // loaded program's code words or slots must first give it a fresh slot
  // (`exec_image = std::make_shared<ExecImageSlot>()`), so no other copy's
  // image goes stale.
  std::shared_ptr<ExecImageSlot> exec_image = std::make_shared<ExecImageSlot>();

  uint64_t EntryWordOf(const std::string& name) const {
    const int i = binary.FunctionIndex(name);
    return i < 0 ? 0 : binary.functions[i].entry_word;
  }
};

}  // namespace confllvm

#endif  // CONFLLVM_SRC_VM_PROGRAM_H_
