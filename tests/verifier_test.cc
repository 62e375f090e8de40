// ConfVerify tests: every binary ConfLLVM produces (full instrumentation)
// verifies; targeted mutations — dropped checks, flipped taints, retargeted
// stores, smuggled instructions — are rejected (paper §5.2: ConfVerify
// guards against compiler bugs; it caught real ones during development).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bench/workloads.h"
#include "src/driver/confcc.h"
#include "src/support/bytes.h"
#include "src/support/rng.h"
#include "src/verifier/verifier.h"
#include "tests/test_util.h"

namespace confllvm {
namespace {

using testutil::Redecode;

const char* kPrograms[] = {
    // Simple arithmetic.
    "int main() { int s = 0; for (int i = 0; i < 8; i = i + 1) { s = s + i; } "
    "return s; }",
    // Private data + T calls + casts.
    R"(
    int send(int fd, char *buf, int n);
    void read_passwd(char *uname, private char *pass, int n);
    int encrypt(private char *pt, char *ct, int n);
    int main() {
      char uname[8];
      uname[0] = 'a'; uname[1] = 0;
      private char pw[32];
      read_passwd(uname, pw, 32);
      char out[32];
      encrypt(pw, out, 32);
      send(1, out, 32);
      return 0;
    })",
    // Indirect calls.
    R"(
    int f1(int x) { return x + 1; }
    int f2(int x) { return x + 2; }
    int main() {
      int (*f)(int) = f1;
      int a = f(1);
      f = f2;
      return a + f(1);
    })",
    // Private pointer chasing through the private heap.
    R"(
    struct node { private int *v; struct node *next; };
    private void *prv_malloc(int n);
    void *pub_malloc(int n);
    int deliver(private int sum) {
      private int hold[1];
      hold[0] = sum;
      return 3;
    }
    int main() {
      struct node *head = NULL;
      for (int i = 0; i < 5; i = i + 1) {
        struct node *n = (struct node*)pub_malloc(sizeof(struct node));
        n->v = (private int*)prv_malloc(sizeof(int));
        *(n->v) = i;
        n->next = head;
        head = n;
      }
      private int s = 0;
      struct node *it = head;
      while (it != NULL) {
        s = s + *(it->v);
        it = it->next;
      }
      return deliver(s);
    })",
};

class VerifierAccepts
    : public ::testing::TestWithParam<std::tuple<int, BuildPreset>> {};

INSTANTIATE_TEST_SUITE_P(
    Programs, VerifierAccepts,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(BuildPreset::kOurMpx, BuildPreset::kOurSeg)));

TEST_P(VerifierAccepts, CompilerOutputVerifies) {
  const auto [prog_idx, preset] = GetParam();
  DiagEngine diags;
  auto s = MakeSession(kPrograms[prog_idx], preset, &diags);
  ASSERT_NE(s, nullptr) << diags.ToString();
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_TRUE(r.ok) << r.ErrorText();
  EXPECT_GT(r.procedures, 0u);
}

std::unique_ptr<Session> BuildMpx(const char* src) {
  DiagEngine diags;
  auto s = MakeSession(src, BuildPreset::kOurMpx, &diags);
  EXPECT_NE(s, nullptr) << diags.ToString();
  return s;
}

const char* kPrivateStoreProgram = R"(
    int deliver(private int x) {
      private int hold[1];
      private int *p = hold;
      *p = x;
      return 5;
    }
    int main() {
      private int v = 37;
      return deliver(v);
    })";

TEST(VerifierRejects, DroppedBoundsCheck) {
  auto s = BuildMpx(kPrivateStoreProgram);
  ASSERT_TRUE(Verify(*s->compiled->prog).ok);
  // Replace every bndcl/bndcu with nop and re-verify.
  Binary& bin = s->compiled->prog->binary;
  int dropped = 0;
  for (size_t w = 0; w < bin.code.size(); ++w) {
    uint32_t consumed = 1;
    auto mi = Decode(bin.code, w, &consumed);
    if (mi.has_value() &&
        (mi->op == Op::kBndclR || mi->op == Op::kBndcuR || mi->op == Op::kBndclM ||
         mi->op == Op::kBndcuM)) {
      std::vector<uint64_t> repl;
      MInstr nop{};
      nop.op = Op::kNop;
      Encode(nop, &repl);
      bin.code[w] = repl[0];
      ++dropped;
    }
    w += consumed - 1;
  }
  ASSERT_GT(dropped, 0);
  Redecode(s->compiled->prog.get());
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("without a dominating bounds check"), std::string::npos)
      << r.ErrorText();
}

bool IsBoundsCheck(Op op) {
  return op == Op::kBndclR || op == Op::kBndcuR || op == Op::kBndclM ||
         op == Op::kBndcuM;
}

// ConfVerify must check the decoded slots the VM engines execute, not a
// fresh decode of the raw words: a slot that disagrees with its code word is
// what runs. Dropping one bounds check from the slots alone — the code image
// still carries it — must be rejected.
TEST(VerifierRejects, BoundsCheckDroppedFromDecodedSlotsOnly) {
  auto s = BuildMpx(kPrivateStoreProgram);
  LoadedProgram& prog = *s->compiled->prog;
  ASSERT_TRUE(Verify(prog).ok);
  const std::vector<uint64_t> code = prog.binary.code;
  size_t w = 0;
  while (w < prog.decoded.size() && !(prog.decoded[w].instr.has_value() &&
                                      IsBoundsCheck(prog.decoded[w].instr->op))) {
    ++w;
  }
  ASSERT_LT(w, prog.decoded.size());
  MInstr nop{};
  nop.op = Op::kNop;
  prog.decoded[w].instr = nop;
  VerifyResult r = Verify(prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("memory access without a dominating bounds check"),
            std::string::npos)
      << r.ErrorText();
  EXPECT_EQ(prog.binary.code, code);
}

// A slot table that does not cover the code image word for word fails
// closed with a diagnostic (and, under ASan, without reading past either).
TEST(VerifierRejects, DecodedSlotsShorterThanCode) {
  auto s = BuildMpx(kPrivateStoreProgram);
  LoadedProgram& prog = *s->compiled->prog;
  ASSERT_TRUE(Verify(prog).ok);
  prog.decoded.pop_back();
  VerifyResult r = Verify(prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("decoded image has"), std::string::npos)
      << r.ErrorText();
}

// The walk advances by each slot's length, as the VM does; a slot whose
// length disagrees with its instruction is rejected, so a zero-length slot
// cannot stall the walk.
TEST(VerifierRejects, DecodedSlotLengthDisagreesWithItsInstruction) {
  auto s = BuildMpx(kPrivateStoreProgram);
  LoadedProgram& prog = *s->compiled->prog;
  ASSERT_TRUE(Verify(prog).ok);
  const uint64_t w = prog.EntryWordOf("deliver");
  ASSERT_TRUE(prog.decoded[w].instr.has_value());
  prog.decoded[w].words = 0;
  VerifyResult r = Verify(prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("disassembly failed inside procedure"),
            std::string::npos)
      << r.ErrorText();
}

TEST(VerifierRejects, FlippedEntryTaintBits) {
  // The private value reaches deliver() from a private-returning call, so
  // the verifier's own dataflow sees r1 as H at the callsite; claiming the
  // parameter public in deliver's entry magic must then fail the call-taint
  // check.
  auto s = BuildMpx(R"(
    private int secret() { return 7; }
    int deliver(private int x) {
      private int hold[1];
      hold[0] = x;
      return 5;
    }
    int main() {
      return deliver(secret());
    })");
  ASSERT_TRUE(Verify(*s->compiled->prog).ok);
  Binary& bin = s->compiled->prog->binary;
  const int fi = bin.FunctionIndex("deliver");
  ASSERT_GE(fi, 0);
  const uint32_t magic_word = bin.functions[fi].entry_word - 1;
  uint64_t w = bin.code[magic_word];
  ASSERT_TRUE(HasMagicShape(w));
  bin.code[magic_word] = MakeMagicWord(MagicPrefixOf(w), MagicTaintsOf(w) & ~1u);
  Redecode(s->compiled->prog.get());
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok) << "flipped taint bits must not verify";
  EXPECT_NE(r.ErrorText().find("taint exceeds"), std::string::npos) << r.ErrorText();
}

TEST(VerifierRejects, RetargetedStoreToPublicRegion) {
  auto s = BuildMpx(kPrivateStoreProgram);
  Binary& bin = s->compiled->prog->binary;
  // Flip every private-region (bnd1) check to bnd0: the private store now
  // claims a public region — a classic leak-the-secret rewrite.
  int flipped = 0;
  for (size_t w = 0; w < bin.code.size(); ++w) {
    uint32_t consumed = 1;
    auto mi = Decode(bin.code, w, &consumed);
    if (mi.has_value() && mi->bnd == 1 &&
        (mi->op == Op::kBndclR || mi->op == Op::kBndcuR || mi->op == Op::kBndclM ||
         mi->op == Op::kBndcuM)) {
      MInstr m = *mi;
      m.bnd = 0;
      std::vector<uint64_t> repl;
      Encode(m, &repl);
      bin.code[w] = repl[0];
      ++flipped;
    }
    w += consumed - 1;
  }
  ASSERT_GT(flipped, 0);
  Redecode(s->compiled->prog.get());
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("private value stored to public"), std::string::npos)
      << r.ErrorText();
}

TEST(VerifierRejects, PlainRetSmuggledIn) {
  auto s = BuildMpx("int main() { return 1; }");
  Binary& bin = s->compiled->prog->binary;
  // Overwrite the CFI return sequence's first instruction with a plain ret.
  bool patched = false;
  for (size_t w = 0; w < bin.code.size() && !patched; ++w) {
    uint32_t consumed = 1;
    auto mi = Decode(bin.code, w, &consumed);
    if (mi.has_value() && mi->op == Op::kJmpReg) {
      MInstr r{};
      r.op = Op::kRet;
      std::vector<uint64_t> repl;
      Encode(r, &repl);
      bin.code[w] = repl[0];
      patched = true;
    }
    if (mi.has_value()) {
      w += consumed - 1;
    }
  }
  ASSERT_TRUE(patched);
  Redecode(s->compiled->prog.get());
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("plain ret"), std::string::npos) << r.ErrorText();
}

TEST(VerifierRejects, UninstrumentedBinary) {
  DiagEngine diags;
  auto s = MakeSession("int main() { return 1; }", BuildPreset::kBase, &diags);
  ASSERT_NE(s, nullptr);
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
}

TEST(VerifierRejects, BranchOnPrivateValue) {
  // Hand-mutate: replace a public-branch condition with a private register.
  // Build a program where r0 after a private-returning call feeds a branch.
  auto s = BuildMpx(R"(
    private int secret() { return 99; }
    int deliver(private int x) { private int h[1]; h[0] = x; return 4; }
    int main() {
      private int v = secret();
      return deliver(v);
    })");
  Binary& bin = s->compiled->prog->binary;
  // In main, after `call secret` the return register r0 is private. Insert
  // a jnz on r0 by replacing the mov that consumes it.
  bool patched = false;
  for (size_t w = 0; w < bin.code.size() && !patched; ++w) {
    uint32_t consumed = 1;
    auto mi = Decode(bin.code, w, &consumed);
    if (mi.has_value() && mi->op == Op::kMov && mi->rs1 == kRegRet) {
      MInstr j{};
      j.op = Op::kJnz;
      j.rd = kRegRet;
      j.imm = static_cast<int32_t>(w);  // self-loop target: in-procedure
      std::vector<uint64_t> repl;
      Encode(j, &repl);
      bin.code[w] = repl[0];
      patched = true;
    }
    if (mi.has_value()) {
      w += consumed - 1;
    }
  }
  ASSERT_TRUE(patched);
  Redecode(s->compiled->prog.get());
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("branch on a private value"), std::string::npos)
      << r.ErrorText();
}

// ---- Verdict pinning: a seeded word-level mutation sweep ----
//
// Every serve and ct kernel is compiled under its verified presets and then
// mutated one code word at a time — bit flips, word swaps, and re-encoded
// operand tweaks (registers, bounds register, segment, condition, immediate
// or displacement) — and re-decoded. Each mutant's whole VerifyResult
// (verdict, every diagnostic, procedure and instruction counts) is folded
// into one FNV-1a digest. The pinned digest and reject count were recorded
// against the map-based verifier that re-decoded the code image itself, so
// any change to a verdict or to diagnostic text on any mutant fails here.

constexpr int kMutantsPerBinary = 300;

uint64_t FoldU64(uint64_t h, uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return Fnv1a64(b, sizeof b, h);
}

uint64_t FoldResult(uint64_t h, const VerifyResult& r) {
  h = FoldU64(h, r.ok ? 1 : 0);
  h = FoldU64(h, r.procedures);
  h = FoldU64(h, r.instructions);
  h = FoldU64(h, r.errors.size());
  for (const std::string& e : r.errors) {
    h = Fnv1a64(reinterpret_cast<const uint8_t*>(e.data()), e.size(), h);
    h = FoldU64(h, e.size());
  }
  return h;
}

// Applies one seeded mutation to `code`. `starts` lists the pristine image's
// instruction-start words (operand tweaks re-encode one of them in place).
void MutateWord(std::vector<uint64_t>* code, const std::vector<uint32_t>& starts,
                Rng* rng) {
  const size_t n = code->size();
  switch (rng->Below(3)) {
    case 0: {  // bit flip
      const size_t w = rng->Below(n);
      (*code)[w] ^= 1ull << rng->Below(64);
      return;
    }
    case 1: {  // word swap
      const size_t a = rng->Below(n);
      const size_t b = rng->Below(n);
      std::swap((*code)[a], (*code)[b]);
      return;
    }
    default: {  // re-encoded operand tweak
      const uint32_t w = starts[rng->Below(starts.size())];
      uint32_t consumed = 1;
      auto mi = Decode(*code, w, &consumed);
      ASSERT_TRUE(mi.has_value());
      switch (rng->Below(8)) {
        case 0:
          mi->rd = static_cast<uint8_t>(rng->Below(kNumIntRegs));
          break;
        case 1:
          mi->rs1 = static_cast<uint8_t>(rng->Below(kNumIntRegs));
          mi->mem.base = mi->rs1;
          break;
        case 2:
          mi->rs2 = static_cast<uint8_t>(rng->Below(kNumIntRegs));
          mi->mem.index = rng->Below(2) == 0 ? kNoMReg : mi->rs2;
          break;
        case 3:
          mi->bnd ^= 1;
          break;
        case 4:
          mi->mem.seg = static_cast<Seg>(rng->Below(3));
          break;
        case 5:
          mi->cc = static_cast<Cond>(rng->Below(6));
          break;
        case 6: {  // small shift: jump/call targets, displacements
          const uint32_t delta = static_cast<uint32_t>(rng->Range(-4, 4));
          mi->imm = static_cast<int32_t>(static_cast<uint32_t>(mi->imm) + delta);
          mi->mem.disp =
              static_cast<int32_t>(static_cast<uint32_t>(mi->mem.disp) + delta);
          break;
        }
        default:  // arbitrary immediate: far out-of-range targets
          mi->imm = static_cast<int32_t>(rng->Next());
          mi->mem.disp = mi->imm;
          break;
      }
      std::vector<uint64_t> enc;
      Encode(*mi, &enc);
      for (size_t k = 0; k < enc.size() && w + k < n; ++k) {
        (*code)[w + k] = enc[k];
      }
      return;
    }
  }
}

struct SweepTally {
  uint64_t digest = 14695981039346656037ull;
  int mutants = 0;
  int rejected = 0;
};

void SweepBinary(const std::string& label, const std::string& source,
                 BuildPreset preset, uint64_t seed, SweepTally* tally) {
  SCOPED_TRACE(label);
  DiagEngine diags;
  auto cp = Compile(source, BuildConfig::For(preset), &diags);
  ASSERT_NE(cp, nullptr) << diags.ToString();
  LoadedProgram* prog = cp->prog.get();
  const VerifyResult clean = Verify(*prog);
  ASSERT_TRUE(clean.ok) << clean.ErrorText();
  tally->digest = FoldResult(tally->digest, clean);

  const std::vector<uint64_t> pristine = prog->binary.code;
  std::vector<uint32_t> starts;
  for (uint32_t w = 0; w < prog->decoded.size(); ++w) {
    if (prog->decoded[w].instr.has_value()) {
      starts.push_back(w);
    }
  }
  ASSERT_FALSE(starts.empty());
  Rng rng(seed);
  for (int m = 0; m < kMutantsPerBinary; ++m) {
    prog->binary.code = pristine;
    MutateWord(&prog->binary.code, starts, &rng);
    Redecode(prog);
    const VerifyResult r = Verify(*prog);
    EXPECT_TRUE(r.ok || !r.errors.empty()) << label << " mutant " << m;
    tally->digest = FoldResult(tally->digest, r);
    ++tally->mutants;
    tally->rejected += r.ok ? 0 : 1;
  }
}

TEST(VerifierPinned, MutationSweepVerdictsAndDiagnostics) {
  SweepTally tally;
  uint64_t seed = 0xc0f1e12;
  for (int k = 0; k < workloads::kNumServeKernels; ++k) {
    for (const BuildPreset p : {BuildPreset::kOurMpx, BuildPreset::kOurSeg}) {
      const auto& kernel = workloads::kServeKernels[k];
      SweepBinary(std::string(kernel.name) + "/" + PresetName(p), kernel.source, p,
                  seed++, &tally);
    }
  }
  for (int k = 0; k < workloads::kNumCtKernels; ++k) {
    for (const BuildPreset p : kCtBuildPresets) {
      const auto& kernel = workloads::kCtKernels[k];
      SweepBinary(std::string(kernel.name) + "/" + PresetName(p), kernel.source, p,
                  seed++, &tally);
    }
  }
  EXPECT_EQ(tally.mutants, 16 * kMutantsPerBinary);
  EXPECT_EQ(tally.rejected, 1560);
  EXPECT_EQ(tally.digest, 17741598249114018040ull);
}

}  // namespace
}  // namespace confllvm
