// Guest memory: one zero-filled contiguous host buffer per mapped region.
// Accesses to unmapped addresses fault — this is how guard zones (paper
// Figure 3) stop segment-scheme escapes and wild pointers.
//
// The loader's layout is a few fixed regions (U's public and private
// partitions, T's region) mapped once when a Vm is built, so translating a
// guest address is a range check over at most kMaxRegions buffers and guard
// zones fall out as range misses. Every engine translates through it: the
// ref stepper via Read/Write, the fast and trace engines via FlatPtr
// straight to a host load/store.
#ifndef CONFLLVM_SRC_VM_MEMORY_H_
#define CONFLLVM_SRC_VM_MEMORY_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace confllvm {

class Memory {
 public:
  // Maps [base, base+size) as a zero-filled contiguous host buffer. calloc
  // gives lazily-committed zero pages, so a large region costs address
  // space, not resident memory. A zero size maps nothing; an end address
  // past 2^64 is clamped to the top, so the region never wraps around to
  // address 0. Throws std::runtime_error when the buffer cannot be reserved
  // or every region slot is taken.
  void Map(uint64_t base, uint64_t size) {
    if (size == 0) {
      return;
    }
    if (num_regions_ == kMaxRegions) {
      throw std::runtime_error("guest memory: too many regions");
    }
    size = LastAddr(base, size) - base + 1;
    void* data = calloc(size, 1);
    if (data == nullptr) {
      throw std::runtime_error("guest memory: cannot reserve a region");
    }
    regions_[num_regions_++] = {base, size, static_cast<uint8_t*>(data)};
  }

  bool IsMapped(uint64_t addr, uint64_t size) const {
    if (size == 0) {
      return true;
    }
    // Byte-exact walk: a range may span adjacent regions.
    const uint64_t last_addr = LastAddr(addr, size);
    while (true) {
      const Region* r = RegionAt(addr);
      if (r == nullptr) {
        return false;
      }
      const uint64_t next = LastAddr(r->base, r->size);
      if (next >= last_addr) {
        return true;
      }
      addr = next + 1;
    }
  }

  // O(1) host pointer for [addr, addr+len) when it lies fully inside one
  // region; nullptr otherwise. The execution engines' fast path.
  uint8_t* FlatPtr(uint64_t addr, uint64_t len) {
    for (uint32_t i = 0; i < num_regions_; ++i) {
      const uint64_t off = addr - regions_[i].base;
      if (off < regions_[i].size && len <= regions_[i].size - off) {
        return regions_[i].data + off;
      }
    }
    return nullptr;
  }

  // Scalar access (size 1 or 8). Returns false on unmapped access.
  bool Read(uint64_t addr, uint32_t size, uint64_t* out) {
    uint8_t buf[8];
    if (!ReadBytes(addr, buf, size)) {
      return false;
    }
    if (size == 1) {
      *out = buf[0];
    } else {
      uint64_t v;
      memcpy(&v, buf, 8);
      *out = v;
    }
    return true;
  }

  bool Write(uint64_t addr, uint32_t size, uint64_t value) {
    uint8_t buf[8];
    memcpy(buf, &value, 8);
    return WriteBytes(addr, buf, size);
  }

  bool ReadBytes(uint64_t addr, void* dst, uint64_t len) {
    uint8_t* out = static_cast<uint8_t*>(dst);
    while (len > 0) {
      uint64_t avail = 0;
      uint8_t* block = BlockFor(addr, &avail);
      if (block == nullptr) {
        return false;
      }
      const uint64_t n = std::min(len, avail);
      memcpy(out, block, n);
      addr += n;
      out += n;
      len -= n;
    }
    return true;
  }

  bool WriteBytes(uint64_t addr, const void* src, uint64_t len) {
    const uint8_t* in = static_cast<const uint8_t*>(src);
    while (len > 0) {
      uint64_t avail = 0;
      uint8_t* block = BlockFor(addr, &avail);
      if (block == nullptr) {
        return false;
      }
      const uint64_t n = std::min(len, avail);
      memcpy(block, in, n);
      addr += n;
      in += n;
      len -= n;
    }
    return true;
  }

  bool Fill(uint64_t addr, uint8_t value, uint64_t len) {
    while (len > 0) {
      uint64_t avail = 0;
      uint8_t* block = BlockFor(addr, &avail);
      if (block == nullptr) {
        return false;
      }
      const uint64_t n = std::min(len, avail);
      memset(block, value, n);
      addr += n;
      len -= n;
    }
    return true;
  }

  Memory() = default;
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;
  ~Memory() {
    for (uint32_t i = 0; i < num_regions_; ++i) {
      free(regions_[i].data);
    }
  }

 private:
  static constexpr uint32_t kMaxRegions = 4;

  struct Region {
    uint64_t base = 0;
    uint64_t size = 0;
    uint8_t* data = nullptr;
  };

  // Inclusive end of [base, base+size), clamped when base+size wraps 2^64.
  static uint64_t LastAddr(uint64_t base, uint64_t size) {
    return size - 1 > ~0ull - base ? ~0ull : base + size - 1;
  }

  const Region* RegionAt(uint64_t addr) const {
    for (uint32_t i = 0; i < num_regions_; ++i) {
      if (addr - regions_[i].base < regions_[i].size) {
        return &regions_[i];
      }
    }
    return nullptr;
  }

  // Host pointer for `addr` plus the contiguous bytes available behind it
  // (to the end of its region); nullptr when unmapped.
  uint8_t* BlockFor(uint64_t addr, uint64_t* avail) {
    const Region* r = RegionAt(addr);
    if (r == nullptr) {
      return nullptr;
    }
    const uint64_t off = addr - r->base;
    *avail = r->size - off;
    return r->data + off;
  }

  Region regions_[kMaxRegions];
  uint32_t num_regions_ = 0;
};

// Tiny set-associative D-cache model: 32 KiB, 64-byte lines, 4-way LRU.
// Only used for cost accounting — the split private/public stacks' extra
// cache pressure is what drives Figure 6's OurMPX vs OurMPX-Sep gap.
class CacheModel {
 public:
  static constexpr uint32_t kLineBits = 6;
  static constexpr uint32_t kSets = 128;
  static constexpr uint32_t kWays = 4;
  static constexpr uint64_t kMissPenalty = 24;

  // Optional per-access hit/miss stream (1 = hit, 0 = miss), appended to in
  // access order by every accessor and engine alike. The ct differential
  // tests compare these streams across secret inputs: equal counters can
  // mask reordered accesses, the stream cannot. Null (the default) disables
  // logging; the pointer is borrowed, never owned.
  void set_stream_log(std::vector<uint8_t>* log) { stream_log_ = log; }

  // Returns extra cycles (0 on hit). This is the reference implementation
  // (full associative scan), used by the reference execution engine.
  uint64_t Access(uint64_t addr) {
    last_line_ = ~0ull;  // keep AccessFast's memo conservative if mixed
    const uint64_t line = addr >> kLineBits;
    const uint32_t set = static_cast<uint32_t>(line) & (kSets - 1);
    const uint64_t tag = line / kSets;
    for (uint32_t w = 0; w < kWays; ++w) {
      if (valid_[set][w] && tags_[set][w] == tag) {
        lru_[set][w] = ++tick_;
        mru_[set] = static_cast<uint8_t>(w);
        RecordHit();
        return 0;
      }
    }
    return Miss(set, tag);
  }

  // Behaviour-identical fast path for the fast engine (same hit/miss stream,
  // counters, and every future victim choice — the differential tests hold
  // the two accessors to the same observable state machine):
  //  * same-line memo — the most recently touched line is always resident
  //    and already the newest entry of its set, so a repeat touch is a
  //    guaranteed hit; refreshing its LRU stamp is skippable because stamps
  //    are only ever *compared* and it already holds its set's maximum;
  //  * MRU way — a tag lives in at most one way (insertions only happen on
  //    miss), so probing the way touched last answers most of the rest.
  uint64_t AccessFast(uint64_t addr) {
    const uint64_t line = addr >> kLineBits;
    if (line == last_line_) {
      RecordHit();
      return 0;
    }
    last_line_ = line;
    const uint32_t set = static_cast<uint32_t>(line) & (kSets - 1);
    const uint64_t tag = line / kSets;
    const uint32_t m = mru_[set];
    if (valid_[set][m] && tags_[set][m] == tag) {
      lru_[set][m] = ++tick_;
      RecordHit();
      return 0;
    }
    for (uint32_t w = 0; w < kWays; ++w) {
      if (valid_[set][w] && tags_[set][w] == tag) {
        lru_[set][w] = ++tick_;
        mru_[set] = static_cast<uint8_t>(w);
        RecordHit();
        return 0;
      }
    }
    return Miss(set, tag);
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  // Replace the LRU way of `set` with `tag`.
  uint64_t Miss(uint32_t set, uint64_t tag) {
    uint32_t victim = 0;
    for (uint32_t w = 1; w < kWays; ++w) {
      if (!valid_[set][w]) {
        victim = w;
        break;
      }
      if (lru_[set][w] < lru_[set][victim]) {
        victim = w;
      }
    }
    valid_[set][victim] = true;
    tags_[set][victim] = tag;
    lru_[set][victim] = ++tick_;
    mru_[set] = static_cast<uint8_t>(victim);
    ++misses_;
    if (stream_log_ != nullptr) {
      stream_log_->push_back(0);
    }
    return kMissPenalty;
  }

  void RecordHit() {
    ++hits_;
    if (stream_log_ != nullptr) {
      stream_log_->push_back(1);
    }
  }

  uint64_t tags_[kSets][kWays] = {};
  uint64_t lru_[kSets][kWays] = {};
  bool valid_[kSets][kWays] = {};
  uint8_t mru_[kSets] = {};
  uint64_t last_line_ = ~0ull;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<uint8_t>* stream_log_ = nullptr;
};

}  // namespace confllvm

#endif  // CONFLLVM_SRC_VM_MEMORY_H_
