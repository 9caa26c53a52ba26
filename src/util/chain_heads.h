// Open-addressed chain-head index: the hash index of the interning pools
// (store/store.h) and of the tables' join indexes (runtime/table.h).
//
// Maps a 32-bit hash key to the newest entry of the collision chain of
// entries sharing that key; older entries follow through the owner's own
// `next` links. A power-of-two array of 8-byte slots probed linearly, one
// slot per distinct key, doubled past 0.7 load. Owners never delete entries
// (interned records, join buckets), so slots are never vacated: an empty
// slot ends a probe soundly and no tombstones exist. A probe costs one
// slot-array miss in the common case and a key 11-23 bytes; a node-based
// hash map costs a bucket-array miss plus a node miss, and ~40 bytes per key
// (a 32-byte node plus a bucket pointer).
//
// Not synchronized: the owner serializes calls (a pool's mutex, a table's
// single writer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dp {

class ChainHeads {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::size_t kSlotBytes = 8;

  /// The index key of a 64-bit structural hash: both halves contribute, so
  /// a hash whose entropy sits in either half still spreads.
  [[nodiscard]] static std::uint32_t key_of(std::uint64_t hash) {
    return static_cast<std::uint32_t>(hash ^ (hash >> 32));
  }

  /// The head of `key`'s chain, or kNone. Never inserts or grows.
  [[nodiscard]] std::uint32_t head(std::uint32_t key) const {
    return slots_.empty() ? kNone : slots_[slot_of(key)].head;
  }

  /// Makes `record` the head of `key`'s chain; returns the previous head
  /// (kNone for a new key). Grows the array only when a new key would push
  /// it past 0.7 load.
  std::uint32_t push(std::uint32_t key, std::uint32_t record) {
    if (slots_.empty()) grow();
    std::size_t i = slot_of(key);
    if (slots_[i].head == kNone) {
      if ((used_ + 1) * 10 > slots_.size() * 7) {
        grow();
        i = slot_of(key);
      }
      slots_[i].key = key;
      ++used_;
    }
    return std::exchange(slots_[i].head, record);
  }

  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] std::size_t bytes() const {
    return slots_.capacity() * kSlotBytes;
  }

 private:
  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t head = kNone;  // kNone: empty
  };
  static_assert(sizeof(Slot) == kSlotBytes);

  /// The slot holding `key`, else the empty slot ending its probe sequence.
  /// The one probe loop: lookups, inserts and rehashes all go through it.
  [[nodiscard]] std::size_t slot_of(std::uint32_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = key & mask;
    while (slots_[i].head != kNone && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : slots_.size() * 2);
    old.swap(slots_);
    // Keys are distinct, so each lands in the empty slot its probe ends on.
    for (const Slot& slot : old) {
      if (slot.head != kNone) slots_[slot_of(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

}  // namespace dp
