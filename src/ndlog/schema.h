// Table declarations: materialization, keys, and mutability.
//
// Mutability is the paper's Refinement #1 (section 3.3): DiffProv may only
// change *mutable* base tuples (configuration state), never immutable ones
// (e.g. packets arriving from outside the operator's control).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dp {

enum class TupleKind : std::uint8_t {
  kBase,     // injected from outside (INSERT vertices in provenance)
  kDerived,  // produced by rules (DERIVE vertices)
};

enum class Mutability : std::uint8_t {
  kMutable,    // DiffProv may propose changes to these base tuples
  kImmutable,  // off limits (packets, external stimuli)
};

/// Declaration of one table. `key_columns` lists the 0-based columns forming
/// the primary key (always including column 0, the location). Inserting a
/// tuple whose key matches an existing row *replaces* that row (RapidNet
/// materialized-table semantics); an empty key list means set semantics over
/// the full tuple.
struct TableDecl {
  std::string name;
  std::size_t arity = 0;
  std::vector<std::size_t> key_columns;  // empty => whole tuple is the key
  TupleKind kind = TupleKind::kBase;
  Mutability mutability = Mutability::kMutable;
  // Events (non-materialized tables) trigger rules but are not stored; their
  // EXIST interval is a single instant. Packets are events.
  bool materialized = true;
  // Position in declaration order, assigned by Program::declare. The runtime
  // indexes its per-table counters by it.
  std::size_t ordinal = 0;

  [[nodiscard]] bool is_event() const { return !materialized; }
};

}  // namespace dp
