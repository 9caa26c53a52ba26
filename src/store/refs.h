// Handles of interned records (store.h). Header-only and dependency-free,
// so layers below the store (ndlog's tables) can hold refs they are handed.
#pragma once

#include <cstdint>

namespace dp {

/// Handle of an interned Value. Equal refs <=> equal values (per pool).
using ValueRef = std::uint32_t;
inline constexpr ValueRef kNoValueRef = static_cast<ValueRef>(-1);

/// Handle of an interned Tuple. Equal refs <=> structurally equal tuples
/// (per store).
using TupleRef = std::uint32_t;
inline constexpr TupleRef kNoTupleRef = static_cast<TupleRef>(-1);

/// Handle of an interned name (table or rule). kNoName renders as "".
using NameRef = std::uint32_t;
inline constexpr NameRef kNoName = static_cast<NameRef>(-1);

}  // namespace dp
