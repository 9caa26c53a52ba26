// Base-event log with binary serialization, stored as interned refs.
//
// The paper's logging engine (section 5) supports two approaches; the one
// used in the evaluation is *query-time*: at runtime only base events are
// written down (for packets: fixed-size header + timestamp, cf. section
// 6.5), and derivations are reconstructed by deterministic replay when a
// diagnostic query arrives. The log is also the unit whose growth rate
// Figures 5 and 6 measure, so records have a well-defined serialized size.
//
// Storage: a record is (op, time, TupleRef) -- 16 bytes however wide the
// tuple is -- with the tuple itself interned once in the process-wide store
// (store/store.h). The wire format matches: a *ref table* of the distinct
// tuples (serialized once each, in first-appearance order) followed by the
// record stream as 4-byte table indexes, so a config tuple toggled 1k times
// costs its payload once plus 1k fixed-size records. A stream without the
// "DPL2" magic is rejected (the pre-ref-table flat format is not read).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "ndlog/tuple.h"
#include "store/store.h"
#include "util/time.h"

namespace dp {

struct LogRecord {
  enum class Op : std::uint8_t { kInsert = 0, kDelete = 1 };
  Op op = Op::kInsert;
  LogicalTime time = 0;
  TupleRef tuple_ref = kNoTupleRef;  // interned in global_store()

  LogRecord() = default;
  LogRecord(Op op_in, LogicalTime time_in, TupleRef ref)
      : op(op_in), time(time_in), tuple_ref(ref) {}
  LogRecord(Op op_in, LogicalTime time_in, const Tuple& tuple)
      : op(op_in), time(time_in), tuple_ref(intern_tuple(tuple)) {}

  /// The store's canonical copy of the logged tuple (shared, never freed).
  [[nodiscard]] const Tuple& tuple() const { return resolve_tuple(tuple_ref); }

  // Refs are interned in one shared store, so ref equality is structural
  // tuple equality.
  friend bool operator==(const LogRecord&, const LogRecord&) = default;
};

/// Append-only in-memory log with a byte-accurate serialized form.
class EventLog {
 public:
  void append(LogRecord record);
  void append_insert(const Tuple& tuple, LogicalTime t);
  void append_delete(const Tuple& tuple, LogicalTime t);
  void append_insert(TupleRef tuple, LogicalTime t);
  void append_delete(TupleRef tuple, LogicalTime t);

  [[nodiscard]] const std::vector<LogRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }

  /// The distinct tuples this log references, in first-appearance order --
  /// the serialized ref table.
  [[nodiscard]] const std::vector<TupleRef>& ref_table() const {
    return ref_table_;
  }

  /// Serialized size in bytes (maintained incrementally; equals the length
  /// of serialize()'s output).
  [[nodiscard]] std::uint64_t byte_size() const { return byte_size_; }

  /// Binary round-trip. Format: magic "DPL2", u32 ref-table count, the
  /// distinct tuples once each (table-name len-prefixed, field-count(2),
  /// fields as tag + payload), then per record op(1) time(8) ref-index(4).
  /// deserialize throws, naming the byte offset, on any malformed input --
  /// "corrupt format magic at byte offset 0" for a stream without the
  /// magic. An empty stream is an empty log.
  void serialize(std::ostream& out) const;
  static EventLog deserialize(std::istream& in);

  /// Human-readable text form, one record per line:
  ///   + policyRoute(@ctl, "sw2", 100, 4.3.2.0/24, "sw6") @ 0
  ///   - policyRoute(@ctl, "sw2", 100, 4.3.2.0/24, "sw6") @ 1050
  /// '#' starts a comment; blank lines are skipped. Round-trips with
  /// from_text. Used by the CLI debugger's --log files.
  [[nodiscard]] std::string to_text() const;
  static EventLog from_text(std::string_view text);

  /// Standalone serialized size of a single record -- op + time + the full
  /// tuple payload, i.e. the flat per-record wire cost. This is the
  /// paper-accurate unit the logging-rate figures (5/6) bill per event,
  /// independent of ref-table sharing within a particular log.
  static std::uint64_t record_size(const LogRecord& record);

 private:
  std::vector<LogRecord> records_;
  // Ref table: first-appearance order, with the inverse index used to
  // maintain byte_size_ incrementally and to serialize without a scan.
  std::vector<TupleRef> ref_table_;
  std::unordered_map<TupleRef, std::uint32_t> ref_index_;
  std::uint64_t byte_size_ = 8;  // magic + ref-table count
};

}  // namespace dp
