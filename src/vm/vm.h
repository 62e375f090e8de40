// The machine simulator.
//
// Executes vISA with the paper's protection semantics:
//  * unmapped (guard-zone) access, bounds violation, CFI trap, executing a
//    data word, or escaping the thread stack (chkstk) all fault and halt the
//    thread — confidentiality is preserved by stopping the program;
//  * segment-prefixed operands use only the low 32 bits of base and index
//    registers (paper §3);
//  * kCallExt crosses into T: the wrapper checks pointer arguments against
//    their declared regions, switches stacks/gs (modeled as cycle cost), and
//    invokes the native trusted function.
//
// Cost model (cycles):
//  * ALU/mov 1, mul 3, div 20; loads/stores 2 + D-cache penalty (+1 for
//    segment-prefixed pointer operands: the 32-bit sub-register addressing
//    constraint; rsp-based frame accesses are exempt); calls 2.
//  * bndcl/bndcu: 1 (register form) / 2 (memory form); an FP arithmetic op
//    leaves a free issue slot that an adjacent bound check consumes at zero
//    cost — the port-level parallelism the paper credits for Privado's low
//    overhead (§7.4).
//  * FP add/sub/mul 3, div 15.
// Deterministic: same program + inputs => same cycle counts.
//
// Guest memory is one flat buffer per region of the loader's map (see
// memory.h), built the same way whichever engine runs the Vm.
#ifndef CONFLLVM_SRC_VM_VM_H_
#define CONFLLVM_SRC_VM_VM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/vm/memory.h"
#include "src/vm/program.h"

namespace confllvm {

enum class VmFault : uint8_t {
  kNone = 0,
  kUnmapped,      // guard zone / wild pointer
  kBndViolation,  // MPX check failed
  kCfiTrap,       // magic-sequence check failed
  kExecData,      // executed a non-instruction word
  kDivZero,
  kChkstk,        // rsp escaped the thread stack
  kBadJump,       // control left the code image
  kTrustedCheck,  // T wrapper rejected an argument
  kInstrLimit,
  kDeadline,      // VmOptions::deadline_ms wall-clock watchdog expired
};

const char* FaultName(VmFault f);

struct ThreadCtx {
  uint32_t id = 0;
  uint64_t regs[kNumIntRegs] = {};
  double fregs[kNumFloatRegs] = {};
  uint64_t pc = 0;  // code word index
  uint64_t stack_lo = 0;
  uint64_t stack_hi = 0;
  bool halted = false;
  VmFault fault = VmFault::kNone;
  std::string fault_msg;
  uint64_t fault_pc = 0;
  uint64_t cycles = 0;
  uint64_t instrs = 0;
  uint32_t fp_credit = 0;
  // VmOptions::pair_histogram state: previous executed opcode on THIS
  // thread (0x100 = none yet). Per-thread so RunParallel's quantum
  // interleaving cannot manufacture pairs that never executed adjacently.
  uint32_t hist_prev_op = 0x100;
};

struct VmStats {
  uint64_t instrs = 0;
  uint64_t cycles = 0;
  uint64_t check_instrs = 0;   // bndc executed
  uint64_t check_cycles = 0;
  uint64_t cfi_instrs = 0;     // CFI sequences (loadcode)
  uint64_t trusted_cycles = 0;
  uint64_t trusted_calls = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t cache_miss_cycles = 0;
};

// Which interpreter runs vISA. All tiers are bit-identical in observable
// behaviour (CallResult, VmStats, fault kind/pc/message, memory effects,
// cycle counts); kFast trades a one-time ExecImage build per loaded program
// (shared by all of its copies, such as every artifact-cache restore of it)
// for a several-times-faster hot loop, and kTrace adds runtime hot-block
// promotion on top of it (see ARCHITECTURE.md "Engine tiers").
// tests/vm_engine_test.cc enforces the equivalence differentially.
enum class VmEngine : uint8_t {
  kRef,    // the original per-step decoder switch — the semantic reference
  kFast,   // token-threaded dispatch over a pre-flattened ExecImage
  kTrace,  // fast engine + block profiling + whole-block compiled handlers
};

const char* EngineName(VmEngine e);
// The engine EngineName(e) names; false for any other name.
bool ParseEngineName(const std::string& name, VmEngine* out);

struct VmOptions {
  uint32_t num_cores = 4;
  uint64_t quantum = 20000;          // cycles per scheduling slice
  uint64_t max_instrs = 4000000000;  // per Call limit, enforced exactly
  // Wall-clock watchdog per Call/RunParallel invocation (0 = none). The
  // clock is only consulted *between* bounded slices — every engine stops a
  // slice at exactly the same instruction, so which instruction the guest
  // had reached when the deadline fired is engine-independent even though
  // the wall-clock moment itself is not. Expiry halts the thread(s) with
  // VmFault::kDeadline, reported like any other fault (ok=false in the
  // CallResult), never by killing the process.
  uint64_t deadline_ms = 0;
  VmEngine engine = VmEngine::kFast;
  // When non-null, the *reference* engine counts every dynamically executed
  // opcode pair into (*pair_histogram)[prev_op * 256 + op] (resized to
  // 256*256 by the Vm constructor if needed). The previous-op state lives
  // in each ThreadCtx, so every Call/RunParallel thread contributes only
  // pairs that genuinely executed adjacently on that thread. The input
  // that decides the fast engine's fusion lists (bench/exec_throughput.cc
  // --pair-histogram, snapshot in bench/PAIR_HISTOGRAM.md). Ignored by the
  // fast engine — fusion would hide exactly the pairs being measured — so
  // pass engine=kRef alongside it.
  std::vector<uint64_t>* pair_histogram = nullptr;
  // engine=kTrace: block entries before a basic block is compiled into one
  // whole-block handler. ~1k keeps cold paths cheap while promoting any
  // block that matters on a sustained-serving workload within its first
  // request or two (see ARCHITECTURE.md "Engine tiers").
  uint64_t trace_threshold = 1024;
  // When non-null, the *reference* engine counts every dynamic basic-block
  // entry into (*block_profile)[block_id] (resized by the Vm constructor to
  // the program's block count; ids index ExecImage::blocks). Fuel for
  // trace-threshold tuning (bench/exec_throughput.cc --block-histogram).
  // Ignored by the fast/trace engines - pass engine=kRef alongside it.
  std::vector<uint64_t>* block_profile = nullptr;
};

class Vm;
class TraceTier;

// Native implementations of the trusted library T (runtime module).
class TrustedCallout {
 public:
  virtual ~TrustedCallout() = default;
  virtual void Invoke(uint32_t import_idx, Vm* vm, ThreadCtx* t) = 0;
};

class Vm {
 public:
  Vm(LoadedProgram* prog, TrustedCallout* trusted, VmOptions opts = {});
  ~Vm();  // out-of-line: TraceTier is incomplete here

  struct CallResult {
    bool ok = false;
    VmFault fault = VmFault::kNone;
    std::string fault_msg;
    uint64_t fault_pc = 0;  // code word index of the faulting instruction
    uint64_t ret = 0;
    uint64_t cycles = 0;
    uint64_t instrs = 0;
  };

  // Runs `fn(args...)` to completion on thread 0.
  CallResult Call(const std::string& fn, const std::vector<uint64_t>& args);

  struct ThreadSpec {
    std::string fn;
    std::vector<uint64_t> args;
  };
  struct ParallelResult {
    bool ok = false;
    uint64_t wall_cycles = 0;  // makespan over num_cores
    std::vector<CallResult> per_thread;
  };
  // Runs each spec on its own thread (own stacks), round-robin over
  // num_cores-wide waves of `quantum` cycles.
  ParallelResult RunParallel(const std::vector<ThreadSpec>& threads);

  Memory& memory() { return mem_; }
  const VmStats& stats() const { return stats_; }
  // Non-null iff engine == kTrace: promotion/bail telemetry for the bench
  // and the confcc --trace-stats-json sink.
  const TraceTier* trace_tier() const { return trace_.get(); }
  LoadedProgram& program() { return *prog_; }
  CacheModel& cache() { return cache_; }
  const CacheModel& cache() const { return cache_; }

  // ---- services for trusted natives ----
  void ChargeTrusted(ThreadCtx* t, uint64_t cycles) {
    t->cycles += cycles;
    stats_.trusted_cycles += cycles;
  }
  // Validates that [addr, addr+len) lies inside U's public (or private)
  // region — the per-function wrapper range checks of paper §6.
  bool RangeInRegion(uint64_t addr, uint64_t len, bool private_region) const;
  void TrustedFault(ThreadCtx* t, const std::string& msg) {
    t->fault = VmFault::kTrustedCheck;
    t->fault_msg = msg;
  }

 private:
  static constexpr uint64_t kNoBudget = ~0ull;

  // Runs `t` until it halts/faults, `budget` cycles elapse, or max_instrs
  // trips — dispatching to the engine selected in VmOptions. Both engines
  // stop at exactly the same instruction for any budget, which is what keeps
  // RunParallel's wave accounting identical across engines.
  void RunSlice(ThreadCtx* t, uint64_t budget);
  void RunSliceRef(ThreadCtx* t, uint64_t budget);
  void RunSliceFast(ThreadCtx* t, uint64_t budget);  // vm_fast.cc
  // kBounded=false compiles the budget check out of the dispatch loop for
  // unbounded Vm::Call runs; the bounded variant serves RunParallel quanta.
  template <bool kBounded>
  void RunSliceFastImpl(ThreadCtx* t, uint64_t budget);

  bool Step(ThreadCtx* t);  // false when halted or faulted
  void Fault(ThreadCtx* t, VmFault f, const std::string& msg);
  uint64_t Ea(const ThreadCtx& t, const MemOperand& m) const;
  uint64_t EaNoSeg(const ThreadCtx& t, const MemOperand& m) const;
  void SetupThread(ThreadCtx* t, uint32_t tid, const std::string& fn,
                   const std::vector<uint64_t>& args, bool* ok);
  CallResult Finish(const ThreadCtx& t) const;
  void InvokeTrusted(ThreadCtx* t, uint32_t idx);

  LoadedProgram* prog_;
  TrustedCallout* trusted_;
  VmOptions opts_;
  Memory mem_;
  CacheModel cache_;
  VmStats stats_;
  // Set iff engine != kRef (or profiling). Held, not borrowed, so a program
  // given a fresh slot after this Vm was built cannot free it underneath.
  std::shared_ptr<const ExecImage> image_;
  std::unique_ptr<TraceTier> trace_;  // set iff engine == kTrace
};

}  // namespace confllvm

#endif  // CONFLLVM_SRC_VM_VM_H_
