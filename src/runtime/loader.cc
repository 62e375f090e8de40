#include "src/runtime/loader.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/isa/layout.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace confllvm {

namespace {

// Region-internal carving shared by both regions and schemes:
// [globals 16 MiB][heap][stack area at the top].
void CarveRegion(uint64_t base, uint64_t usable, uint64_t* globals, uint64_t* heap,
                 uint64_t* heap_size, uint64_t* stack_area) {
  *globals = base;
  *heap = base + kRegionGlobalsSize;
  *stack_area = base + usable - kStackAreaSize;
  *heap_size = *stack_area - *heap;
}

RegionMap ComputeMap(const Binary& bin, const LoadOptions& opts) {
  RegionMap m;
  if (bin.scheme == Scheme::kSeg) {
    m.pub_base = kSegPublicBase;
    m.prv_base = kSegPrivateBase;
    // Carve only a working subset of the 4 GiB segment (the rest stays
    // unmapped and faults like guard space).
    m.pub_size = kRegionGlobalsSize + 128 * MiB + kStackAreaSize;
    m.prv_size = m.pub_size;
    m.fs = kSegPublicBase;
    m.gs = kSegPrivateBase;
    m.t_base = kSegTrustedBase;
  } else {
    m.pub_base = kMpxPublicBase;
    m.prv_base = kMpxPrivateBase;
    m.pub_size = kMpxPartitionSize;
    m.prv_size = kMpxPartitionSize;
    m.fs = m.pub_base;  // unused without the seg scheme
    m.gs = m.prv_base;
    m.t_base = kMpxTrustedBase;
  }
  m.t_size = kTrustedRegionSize;
  if (opts.unified_bounds) {
    m.bnd_lo[0] = m.bnd_lo[1] = m.pub_base;
    m.bnd_hi[0] = m.bnd_hi[1] = m.prv_base + m.prv_size - 1;
  } else {
    m.bnd_lo[0] = m.pub_base;
    m.bnd_hi[0] = m.pub_base + m.pub_size - 1;
    m.bnd_lo[1] = m.prv_base;
    m.bnd_hi[1] = m.prv_base + m.prv_size - 1;
  }
  CarveRegion(m.pub_base, m.pub_size, &m.pub_globals, &m.pub_heap, &m.pub_heap_size,
              &m.pub_stack_area);
  CarveRegion(m.prv_base, m.prv_size, &m.prv_globals, &m.prv_heap, &m.prv_heap_size,
              &m.prv_stack_area);
  m.t_stack_area = m.t_base;
  m.t_heap = m.t_base + kStackAreaSize;
  m.t_heap_size = m.t_size - kStackAreaSize;
  return m;
}

}  // namespace

std::unique_ptr<LoadedProgram> LoadBinary(Binary bin, const LoadOptions& opts,
                                          DiagEngine* diags) {
  // A binary with unresolved cross-module references must go through the
  // linker first: a zero-imm kCall placeholder would otherwise "resolve" to
  // word 0 and execute whatever lives there.
  if (!bin.mod_imports.empty() || !bin.mod_call_sites.empty()) {
    diags->Error(SourceLoc{},
                 StrFormat("cannot load binary with %zu unresolved module imports "
                           "(%zu call sites); link it first",
                           bin.mod_imports.size(), bin.mod_call_sites.size()));
    return nullptr;
  }
  // Semantic validation (paper §6's "distrust the compiler" posture, applied
  // to the object format): DeserializeBinary guarantees the *encoding* is
  // well-formed, but a structurally valid Binary can still carry indices and
  // sizes that would make the patch loops below write out of bounds. Reject
  // every such binary with a diagnostic instead of corrupting memory —
  // whether it came from a bit-flipped cache entry, a truncated --emit-bin
  // file, or a hostile producer.
  const auto corrupt = [&](const std::string& why) {
    diags->Error(SourceLoc{}, "corrupt binary: " + why);
    return nullptr;
  };
  for (const BinFunction& f : bin.functions) {
    if (f.entry_word >= bin.code.size()) {
      return corrupt(StrFormat("function '%s' entry word %u outside code image",
                               f.name.c_str(), f.entry_word));
    }
  }
  for (size_t g = 0; g < bin.globals.size(); ++g) {
    const BinGlobal& bg = bin.globals[g];
    // Overflow guard only: sizes/alignments no real program can have would
    // overflow the layout cursor arithmetic below. A plausible-but-too-big
    // global falls through to the region-limit check, which reports it as a
    // program error ("globals exceed ..."), not corruption.
    constexpr uint64_t kImplausibleGlobal = 1ull << 40;
    if (bg.size > kImplausibleGlobal || bg.align > kImplausibleGlobal) {
      return corrupt(StrFormat("global '%s' has an implausible size/alignment",
                               bg.name.c_str()));
    }
    if (bg.init.size() > bg.size) {
      return corrupt(StrFormat("global '%s' initializer larger than the global",
                               bg.name.c_str()));
    }
    for (const auto& [off, target] : bg.relocs) {
      if (off > bg.size || bg.size - off < 8 ||
          target >= bin.globals.size()) {
        return corrupt(StrFormat("global '%s' has an out-of-range relocation",
                                 bg.name.c_str()));
      }
    }
  }
  for (const GlobalRef& ref : bin.global_refs) {
    if (ref.word >= bin.code.size() || ref.global_idx >= bin.globals.size()) {
      return corrupt("global reference outside code image or global table");
    }
  }
  for (const FuncRef& ref : bin.func_refs) {
    if (ref.word >= bin.code.size() || ref.func_idx >= bin.functions.size()) {
      return corrupt("function reference outside code image or function table");
    }
  }
  for (const CodeRef& ref : bin.code_refs) {
    if (ref.word >= bin.code.size() || ref.target_word >= bin.code.size()) {
      return corrupt("code reference outside code image");
    }
  }
  for (const MagicSite& s : bin.magic_sites) {
    if (s.word >= bin.code.size()) {
      return corrupt("magic site outside code image");
    }
  }
  for (const BinImport& imp : bin.imports) {
    // InvokeTrusted reads params[0..min(num_params,4)); the two fields are
    // serialized independently, so a corrupted count must not out-read the
    // parameter table.
    if (imp.params.size() < std::min<uint32_t>(imp.num_params, 4)) {
      return corrupt(StrFormat("import '%s' declares %u params but carries %zu",
                               imp.name.c_str(), imp.num_params,
                               imp.params.size()));
    }
  }

  auto prog = std::make_unique<LoadedProgram>();
  prog->separate_t_memory = opts.separate_t_memory;
  prog->unified_bounds = opts.unified_bounds;
  prog->map = ComputeMap(bin, opts);

  // 1. Relocate globals into their regions (paper §6 step 2).
  uint64_t pub_cursor = prog->map.pub_globals;
  uint64_t prv_cursor = prog->map.prv_globals;
  for (const BinGlobal& g : bin.globals) {
    uint64_t& cursor = g.is_private ? prv_cursor : pub_cursor;
    const uint64_t align = g.align == 0 ? 1 : g.align;
    cursor = (cursor + align - 1) / align * align;
    prog->global_addr.push_back(cursor);
    cursor += g.size;
    const uint64_t limit =
        (g.is_private ? prog->map.prv_globals : prog->map.pub_globals) +
        kRegionGlobalsSize;
    if (cursor > limit) {
      diags->Error(SourceLoc{}, "globals exceed the region's globals area");
      return nullptr;
    }
  }

  // 2. Patch code references to globals.
  for (const GlobalRef& ref : bin.global_refs) {
    bin.code[ref.word] =
        prog->global_addr[ref.global_idx] + static_cast<uint64_t>(ref.addend);
  }

  // 3. Append exit stubs.
  if (bin.cfi) {
    for (uint8_t bit = 0; bit < 2; ++bit) {
      prog->exit_stub_word[bit] = static_cast<uint32_t>(bin.code.size());
      bin.magic_sites.push_back({static_cast<uint32_t>(bin.code.size()),
                                 /*is_ret=*/true, bit, /*inverted=*/false});
      bin.code.push_back(0);
      MInstr halt{};
      halt.op = Op::kHalt;
      Encode(halt, &bin.code);
    }
  } else {
    const uint32_t stub = static_cast<uint32_t>(bin.code.size());
    MInstr halt{};
    halt.op = Op::kHalt;
    Encode(halt, &bin.code);
    prog->exit_stub_word[0] = stub;
    prog->exit_stub_word[1] = stub;
  }

  // 4. Choose magic prefixes post-link and patch all sites (paper §6: random
  // bit sequences, re-rolled until unique in the binary).
  if (bin.cfi) {
    Rng rng(opts.magic_seed);
    bool ok = false;
    for (int attempt = 0; attempt < 64 && !ok; ++attempt) {
      const uint64_t call_prefix = (rng.Next() & ((1ull << 59) - 1)) | (1ull << 58);
      const uint64_t ret_prefix = (rng.Next() & ((1ull << 59) - 1)) | (1ull << 58);
      if (call_prefix == ret_prefix) {
        continue;
      }
      // Tentatively patch.
      std::unordered_set<uint32_t> site_words;
      for (const MagicSite& s : bin.magic_sites) {
        const uint64_t prefix = s.is_ret ? ret_prefix : call_prefix;
        const uint64_t word = MakeMagicWord(prefix, s.taints);
        bin.code[s.word] = s.inverted ? ~word : word;
        if (!s.inverted) {
          site_words.insert(s.word);
        }
      }
      // Uniqueness scan over every word of the binary.
      ok = true;
      for (size_t w = 0; w < bin.code.size() && ok; ++w) {
        const uint64_t v = bin.code[w];
        if (!HasMagicShape(v)) {
          continue;
        }
        const uint64_t p = MagicPrefixOf(v);
        if ((p == call_prefix || p == ret_prefix) &&
            site_words.count(static_cast<uint32_t>(w)) == 0) {
          ok = false;  // accidental collision: re-roll (paper §6)
        }
      }
      if (ok) {
        bin.magic_call_prefix = call_prefix;
        bin.magic_ret_prefix = ret_prefix;
      }
    }
    if (!ok) {
      diags->Error(SourceLoc{}, "could not find unique magic prefixes");
      return nullptr;
    }
  }

  // 5. Pre-decode.
  prog->decoded = DecodeSlots(bin.code);

  prog->binary = std::move(bin);
  return prog;
}

std::vector<DecodedSlot> DecodeSlots(const std::vector<uint64_t>& code) {
  std::vector<DecodedSlot> slots(code.size());
  size_t idx = 0;
  while (idx < code.size()) {
    uint32_t consumed = 1;
    slots[idx].instr = Decode(code, idx, &consumed);
    if (slots[idx].instr.has_value()) {
      slots[idx].words = consumed;
    }
    idx += slots[idx].words;
  }
  return slots;
}

}  // namespace confllvm
