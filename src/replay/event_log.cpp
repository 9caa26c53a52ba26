#include "replay/event_log.h"

#include "ndlog/parser.h"

#include <istream>
#include <ostream>
#include <stdexcept>

namespace dp {

namespace {

void put_u8(std::ostream& out, std::uint8_t v) {
  out.put(static_cast<char>(v));
}

void put_u16(std::ostream& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
  put_u8(out, static_cast<std::uint8_t>(v));
}

void put_u32(std::ostream& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

void put_u64(std::ostream& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_string(std::ostream& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// The daemon feeds these decoders bytes straight off the wire, so every
// failure must be a clean exception naming the offending byte offset --
// never an assert, an unbounded allocation, or silently-partial state.
constexpr std::uint32_t kMaxNameLen = 1u << 16;    // table names
constexpr std::uint32_t kMaxStringLen = 1u << 24;  // string field payloads
constexpr std::uint16_t kMaxArity = 1024;
constexpr std::uint32_t kMaxRefTable = 1u << 26;   // distinct tuples per log

// Format marker every serialized log starts with.
constexpr char kMagic[4] = {'D', 'P', 'L', '2'};

/// Byte-counting reader over an istream: every primitive read advances
/// `offset`, and every failure reports the offset where decoding stopped.
struct ByteReader {
  std::istream& in;
  std::uint64_t offset = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("event log: " + what + " at byte offset " +
                             std::to_string(offset));
  }

  std::uint8_t u8() {
    const int c = in.get();
    if (c == EOF) fail("truncated input");
    ++offset;
    return static_cast<std::uint8_t>(c);
  }

  std::uint16_t u16() {
    const auto hi = u8();
    return static_cast<std::uint16_t>((hi << 8) | u8());
  }

  std::uint32_t u32() {
    const auto hi = u16();
    return (static_cast<std::uint32_t>(hi) << 16) | u16();
  }

  std::uint64_t u64() {
    const auto hi = u32();
    return (static_cast<std::uint64_t>(hi) << 32) | u32();
  }

  std::string string(std::uint32_t max_len) {
    const std::uint32_t size = u32();
    if (size > max_len) {
      fail("implausible string length " + std::to_string(size) +
           " (limit " + std::to_string(max_len) + ")");
    }
    std::string s(size, '\0');
    in.read(s.data(), static_cast<std::streamsize>(size));
    if (in.gcount() != static_cast<std::streamsize>(size)) {
      offset += static_cast<std::uint64_t>(in.gcount());
      fail("truncated string");
    }
    offset += size;
    return s;
  }

  [[nodiscard]] bool at_eof() { return in.peek() == EOF; }
};

void put_value(std::ostream& out, const Value& v) {
  put_u8(out, static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kInt:
      put_u64(out, static_cast<std::uint64_t>(v.as_int()));
      break;
    case ValueType::kDouble: {
      double d = v.as_double();
      std::uint64_t bits = 0;
      __builtin_memcpy(&bits, &d, sizeof(bits));
      put_u64(out, bits);
      break;
    }
    case ValueType::kString:
      put_string(out, v.as_string());
      break;
    case ValueType::kIp:
      put_u32(out, v.as_ip().value());
      break;
    case ValueType::kPrefix:
      put_u32(out, v.as_prefix().base().value());
      put_u8(out, static_cast<std::uint8_t>(v.as_prefix().length()));
      break;
  }
}

Value get_value(ByteReader& reader) {
  const std::uint64_t tag_offset = reader.offset;
  const std::uint8_t raw_tag = reader.u8();
  const auto type = static_cast<ValueType>(raw_tag);
  switch (type) {
    case ValueType::kInt:
      return Value(static_cast<std::int64_t>(reader.u64()));
    case ValueType::kDouble: {
      const std::uint64_t bits = reader.u64();
      double d = 0;
      __builtin_memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case ValueType::kString:
      return Value(reader.string(kMaxStringLen));
    case ValueType::kIp:
      return Value(Ipv4(reader.u32()));
    case ValueType::kPrefix: {
      const Ipv4 base(reader.u32());
      const std::uint8_t length = reader.u8();
      if (length > 32) {
        reader.fail("prefix length " + std::to_string(length) + " exceeds 32");
      }
      return Value(IpPrefix(base, length));
    }
  }
  throw std::runtime_error("event log: corrupt value tag " +
                           std::to_string(raw_tag) + " at byte offset " +
                           std::to_string(tag_offset));
}

std::uint64_t value_size(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt:
    case ValueType::kDouble:
      return 1 + 8;
    case ValueType::kString:
      return 1 + 4 + v.as_string().size();
    case ValueType::kIp:
      return 1 + 4;
    case ValueType::kPrefix:
      return 1 + 5;
  }
  return 1;
}

/// Ref-table entry size: table name (len-prefixed) + field count + fields.
std::uint64_t tuple_payload_size(const Tuple& tuple) {
  std::uint64_t size = 4 + tuple.table().size() + 2;
  for (const Value& v : tuple.values()) size += value_size(v);
  return size;
}

void put_tuple(std::ostream& out, const Tuple& tuple) {
  put_string(out, tuple.table());
  put_u16(out, static_cast<std::uint16_t>(tuple.arity()));
  for (const Value& v : tuple.values()) put_value(out, v);
}

Tuple get_tuple(ByteReader& reader) {
  std::string table = reader.string(kMaxNameLen);
  const std::uint16_t arity = reader.u16();
  if (arity > kMaxArity) {
    reader.fail("implausible arity " + std::to_string(arity));
  }
  std::vector<Value> values;
  values.reserve(arity);
  for (std::uint16_t i = 0; i < arity; ++i) {
    values.push_back(get_value(reader));
  }
  return Tuple(std::move(table), std::move(values));
}

// op + time + ref-table index.
constexpr std::uint64_t kRecordFixedSize = 1 + 8 + 4;

}  // namespace

std::uint64_t EventLog::record_size(const LogRecord& record) {
  return 1 + 8 + tuple_payload_size(record.tuple());
}

void EventLog::append(LogRecord record) {
  const auto [it, inserted] = ref_index_.emplace(
      record.tuple_ref, static_cast<std::uint32_t>(ref_table_.size()));
  if (inserted) {
    ref_table_.push_back(record.tuple_ref);
    byte_size_ += tuple_payload_size(record.tuple());
  }
  byte_size_ += kRecordFixedSize;
  records_.push_back(record);
}

void EventLog::append_insert(const Tuple& tuple, LogicalTime t) {
  append(LogRecord{LogRecord::Op::kInsert, t, intern_tuple(tuple)});
}

void EventLog::append_delete(const Tuple& tuple, LogicalTime t) {
  append(LogRecord{LogRecord::Op::kDelete, t, intern_tuple(tuple)});
}

void EventLog::append_insert(TupleRef tuple, LogicalTime t) {
  append(LogRecord{LogRecord::Op::kInsert, t, tuple});
}

void EventLog::append_delete(TupleRef tuple, LogicalTime t) {
  append(LogRecord{LogRecord::Op::kDelete, t, tuple});
}

void EventLog::serialize(std::ostream& out) const {
  out.write(kMagic, sizeof(kMagic));
  put_u32(out, static_cast<std::uint32_t>(ref_table_.size()));
  for (const TupleRef ref : ref_table_) {
    put_tuple(out, resolve_tuple(ref));
  }
  for (const LogRecord& record : records_) {
    put_u8(out, static_cast<std::uint8_t>(record.op));
    put_u64(out, static_cast<std::uint64_t>(record.time));
    put_u32(out, ref_index_.find(record.tuple_ref)->second);
  }
}

std::string EventLog::to_text() const {
  std::string out;
  for (const LogRecord& record : records_) {
    out += record.op == LogRecord::Op::kInsert ? "+ " : "- ";
    out += record.tuple().to_string();
    out += " @ " + std::to_string(record.time) + "\n";
  }
  return out;
}

EventLog EventLog::from_text(std::string_view text) {
  EventLog log;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    std::string_view line = text.substr(
        start, end == std::string_view::npos ? std::string_view::npos
                                             : end - start);
    start = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++line_no;
    // Strip comments and whitespace.
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() &&
           (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty()) continue;
    auto fail = [line_no](const std::string& what) -> std::runtime_error {
      return std::runtime_error("event log text, line " +
                                std::to_string(line_no) + ": " + what);
    };
    LogRecord record;
    if (line.front() == '+') {
      record.op = LogRecord::Op::kInsert;
    } else if (line.front() == '-') {
      record.op = LogRecord::Op::kDelete;
    } else {
      throw fail("expected '+' or '-'");
    }
    line.remove_prefix(1);
    const std::size_t at = line.rfind('@');
    if (at == std::string_view::npos) throw fail("missing '@ <time>'");
    // The '@' of the timestamp is the one after the closing paren.
    const std::size_t paren = line.rfind(')');
    if (paren == std::string_view::npos || at < paren) {
      throw fail("missing '@ <time>' after the tuple");
    }
    try {
      record.time = std::stoll(std::string(line.substr(at + 1)));
    } catch (...) {
      throw fail("malformed timestamp");
    }
    // Anything between the tuple and the '@' must be whitespace, or the
    // record is ambiguous (e.g. two tuples on one line).
    for (char c : line.substr(paren + 1, at - paren - 1)) {
      if (c != ' ' && c != '\t') throw fail("trailing content after tuple");
    }
    try {
      record.tuple_ref = intern_tuple(parse_tuple(line.substr(0, paren + 1)));
    } catch (const std::exception& e) {
      throw fail(e.what());
    }
    log.append(record);
  }
  return log;
}

EventLog EventLog::deserialize(std::istream& in) {
  EventLog log;
  ByteReader reader{in};
  if (reader.at_eof()) return log;

  // Magic, table of distinct tuples, then records.
  for (char expected : kMagic) {
    const std::uint64_t magic_offset = reader.offset;
    const std::uint8_t b = reader.u8();
    if (b != static_cast<std::uint8_t>(expected)) {
      throw std::runtime_error("event log: corrupt format magic at byte "
                               "offset " +
                               std::to_string(magic_offset));
    }
  }
  const std::uint32_t count = reader.u32();
  if (count > kMaxRefTable) {
    reader.fail("implausible ref-table count " + std::to_string(count));
  }
  std::vector<TupleRef> refs;
  refs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    refs.push_back(intern_tuple(get_tuple(reader)));
  }
  while (!reader.at_eof()) {
    const std::uint64_t record_offset = reader.offset;
    const std::uint8_t op = reader.u8();
    if (op > static_cast<std::uint8_t>(LogRecord::Op::kDelete)) {
      throw std::runtime_error("event log: corrupt op byte " +
                               std::to_string(op) + " at byte offset " +
                               std::to_string(record_offset));
    }
    const auto time = static_cast<LogicalTime>(reader.u64());
    const std::uint32_t index = reader.u32();
    if (index >= count) {
      throw std::runtime_error(
          "event log: ref-table index " + std::to_string(index) +
          " out of range (table holds " + std::to_string(count) +
          ") at byte offset " + std::to_string(record_offset));
    }
    log.append(LogRecord{static_cast<LogRecord::Op>(op), time, refs[index]});
  }
  return log;
}

}  // namespace dp
