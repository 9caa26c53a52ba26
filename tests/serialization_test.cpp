// Randomized round-trip property tests for the wire-facing serialization
// layer (EventLog binary + text, Checkpoint), plus the hardening contract:
// truncated or corrupt input is rejected with an error naming where decoding
// stopped (byte offset for binary, line number for text) -- the diffprovd
// daemon feeds these decoders bytes straight off the wire.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ndlog/parser.h"
#include "replay/checkpoint.h"
#include "replay/event_log.h"
#include "replay/replay_engine.h"
#include "sdn/scenario.h"
#include "util/rng.h"

namespace dp {
namespace {

// ------------------------------------------------- random generators --

std::string random_name(Rng& rng) {
  static const char* kAlpha = "abcdefghijklmnopqrstuvwxyz";
  std::string name;
  const std::size_t len = 1 + rng.next_below(10);
  for (std::size_t i = 0; i < len; ++i) name += kAlpha[rng.next_below(26)];
  return name;
}

/// Arbitrary bytes for the binary format (length-prefixed, so anything
/// goes -- including NULs, newlines and quotes).
std::string random_binary_string(Rng& rng) {
  std::string s;
  const std::size_t len = rng.next_below(24);
  for (std::size_t i = 0; i < len; ++i) {
    s += static_cast<char>(rng.next_below(256));
  }
  return s;
}

/// Strings the text format can carry in a quoted position: anything except
/// the quote/backslash escapes, newlines, '#' (comment marker) and '@'/')'
/// (the from_text line scanner keys on the last ones outside quotes).
std::string random_text_string(Rng& rng) {
  static const char* kSafe =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-.:/";
  std::string s;
  const std::size_t len = rng.next_below(16);
  for (std::size_t i = 0; i < len; ++i) s += kSafe[rng.next_below(68)];
  return s;
}

Value random_value(Rng& rng, bool text_safe, bool location = false) {
  switch (rng.next_below(5)) {
    case 0:
      return Value(static_cast<std::int64_t>(rng.next_u64()));
    case 1:
      // Quarters render exactly under %g (within 6 significant digits), so
      // the text rendering parses back to the same double; the binary format
      // round-trips raw bits and gets the full-precision variant.
      if (text_safe) return Value(rng.next_in(-9999, 9999) / 4.0);
      return Value(rng.next_in(-1'000'000'000, 1'000'000'000) / 1024.0);
    case 2:
      // Tuple::to_string renders a string in field 0 bare (`@node`), so a
      // text round-trip needs an identifier there; later fields are quoted
      // and carry anything in the safe set.
      if (text_safe && location) return Value(random_name(rng));
      return text_safe ? Value(random_text_string(rng))
                       : Value(random_binary_string(rng));
    case 3:
      return Value(Ipv4(static_cast<std::uint32_t>(rng.next_u64())));
    default:
      return Value(IpPrefix(Ipv4(static_cast<std::uint32_t>(rng.next_u64())),
                            static_cast<int>(rng.next_below(33))));
  }
}

EventLog random_log(Rng& rng, bool text_safe) {
  EventLog log;
  const std::size_t records = rng.next_below(30);
  LogicalTime t = 0;
  for (std::size_t i = 0; i < records; ++i) {
    t += static_cast<LogicalTime>(rng.next_below(100));
    std::vector<Value> values;
    // The text grammar needs at least one field (`name()` does not parse);
    // the binary format handles arity 0.
    const std::size_t arity =
        text_safe ? 1 + rng.next_below(5) : rng.next_below(6);
    for (std::size_t j = 0; j < arity; ++j) {
      values.push_back(random_value(rng, text_safe, /*location=*/j == 0));
    }
    Tuple tuple(random_name(rng), std::move(values));
    if (rng.next_below(4) == 0) {
      log.append_delete(std::move(tuple), t);
    } else {
      log.append_insert(std::move(tuple), t);
    }
  }
  return log;
}

// -------------------------------------------------- round-trip laws --

TEST(SerializationProperty, BinaryRoundTripPreservesEveryRecord) {
  Rng rng(20260806);
  for (int iteration = 0; iteration < 100; ++iteration) {
    const EventLog log = random_log(rng, /*text_safe=*/false);
    std::ostringstream out;
    log.serialize(out);
    const std::string bytes = out.str();
    // byte_size() is maintained incrementally and must equal the actual
    // serialized length (figures 5/6 of the paper bill log size in bytes).
    ASSERT_EQ(log.byte_size(), bytes.size()) << "iteration " << iteration;

    std::istringstream in(bytes);
    const EventLog back = EventLog::deserialize(in);
    ASSERT_EQ(back.records(), log.records()) << "iteration " << iteration;
    ASSERT_EQ(back.byte_size(), log.byte_size());
  }
}

TEST(SerializationProperty, TextRoundTripPreservesEveryRecord) {
  Rng rng(424242);
  for (int iteration = 0; iteration < 100; ++iteration) {
    const EventLog log = random_log(rng, /*text_safe=*/true);
    const EventLog back = EventLog::from_text(log.to_text());
    ASSERT_EQ(back.records(), log.records()) << "iteration " << iteration;
    ASSERT_EQ(back.byte_size(), log.byte_size());
  }
}

TEST(SerializationProperty, ScenarioLogsSurviveBothFormats) {
  for (sdn::Scenario& scenario : sdn::all_scenarios()) {
    std::ostringstream out;
    scenario.log.serialize(out);
    EXPECT_EQ(scenario.log.byte_size(), out.str().size()) << scenario.name;
    std::istringstream in(out.str());
    EXPECT_EQ(EventLog::deserialize(in).records(), scenario.log.records())
        << scenario.name;
    EXPECT_EQ(EventLog::from_text(scenario.log.to_text()).records(),
              scenario.log.records())
        << scenario.name;
  }
}

TEST(SerializationProperty, CheckpointRoundTripsThroughBytes) {
  sdn::Scenario scenario = sdn::all_scenarios()[0];
  const ReplayResult run =
      replay(scenario.program, scenario.topology, scenario.log);
  const Checkpoint checkpoint = Checkpoint::capture(*run.engine);
  ASSERT_FALSE(checkpoint.base_tuples().empty());

  std::ostringstream out;
  checkpoint.serialize(out);
  std::istringstream in(out.str());
  const Checkpoint back = Checkpoint::deserialize(in);
  EXPECT_EQ(back.base_tuples(), checkpoint.base_tuples());
  EXPECT_EQ(back.captured_at(), checkpoint.captured_at());
}

// ------------------------------------------- malformed-input rejection --

std::string serialized(const EventLog& log) {
  std::ostringstream out;
  log.serialize(out);
  return out.str();
}

EventLog small_log() {
  EventLog log;
  log.append_insert(Tuple("link", {Value("a"), Value("b"), Value(3)}), 10);
  log.append_insert(
      Tuple("route", {Value(IpPrefix(Ipv4(10, 0, 0, 0), 8)), Value("c")}), 20);
  return log;
}

TEST(SerializationHardening, EveryTruncationPointIsRejectedWithAnOffset) {
  const std::string bytes = serialized(small_log());
  // Chopping the stream anywhere mid-record must throw -- and the message
  // must carry a byte offset no further than the cut.
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    // Cuts at record boundaries parse cleanly as a shorter log; skip them.
    std::istringstream in(bytes.substr(0, cut));
    try {
      const EventLog log = EventLog::deserialize(in);
      ASSERT_LT(log.byte_size(), bytes.size());
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      const std::size_t pos = what.find("byte offset ");
      ASSERT_NE(pos, std::string::npos) << "cut=" << cut << ": " << what;
      const std::size_t offset =
          std::stoull(what.substr(pos + std::string("byte offset ").size()));
      EXPECT_LE(offset, cut) << what;
    }
  }
}

TEST(SerializationHardening, CorruptOpByteNamesItsOffset) {
  std::string bytes = serialized(small_log());
  // The record stream closes the file at 13 bytes per record: op(1)
  // time(8) ref-index(4). Corrupt the first record's op byte.
  const std::size_t op_offset = bytes.size() - 2 * 13;
  bytes[op_offset] = 7;  // ops are 0 (insert) / 1 (delete)
  std::istringstream in(bytes);
  try {
    EventLog::deserialize(in);
    FAIL() << "corrupt op byte accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt op byte 7"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset " +
                                         std::to_string(op_offset)),
              std::string::npos)
        << e.what();
  }
}

TEST(SerializationHardening, CorruptValueTagNamesItsOffset) {
  EventLog log;
  log.append_insert(Tuple("t", {Value(1)}), 5);
  std::string bytes = serialized(log);
  // Layout: magic(4) count(4) name-len(4) name(1) arity(2) tag(1) payload(8).
  const std::size_t tag_offset = 4 + 4 + 4 + 1 + 2;
  bytes[tag_offset] = 99;
  std::istringstream in(bytes);
  try {
    EventLog::deserialize(in);
    FAIL() << "corrupt value tag accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt value tag 99"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what())
                  .find("byte offset " + std::to_string(tag_offset)),
              std::string::npos)
        << e.what();
  }
}

TEST(SerializationHardening, ImplausibleLengthsAreRejectedNotAllocated) {
  // A name length of 0xFFFFFFFF must be rejected by the plausibility cap,
  // not handed to std::string's allocator.
  std::string bytes = serialized(small_log());
  bytes[9] = '\xff';  // high byte of the table-name length
  std::istringstream in(bytes);
  EXPECT_THROW(EventLog::deserialize(in), std::runtime_error);
}

TEST(SerializationHardening, RefTableIndexOutOfRangeIsRejected) {
  EventLog log;
  log.append_insert(Tuple("t", {Value(1)}), 5);
  std::string bytes = serialized(log);
  // The only record's ref-index is the last 4 bytes; point it past the table.
  bytes[bytes.size() - 1] = 9;
  std::istringstream in(bytes);
  try {
    EventLog::deserialize(in);
    FAIL() << "out-of-range ref-table index accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ref-table index 9"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << e.what();
  }
}

TEST(SerializationHardening, ImplausibleRefTableCountIsRejectedNotAllocated) {
  std::string bytes = serialized(small_log());
  bytes[4] = '\xff';  // high byte of the ref-table count
  std::istringstream in(bytes);
  EXPECT_THROW(EventLog::deserialize(in), std::runtime_error);
}

TEST(SerializationFormat, RefTableSerializesEachDistinctTupleOnce) {
  // A tuple toggled many times costs its payload once (in the ref table)
  // plus a fixed 13 bytes per record -- the compression the interned store
  // makes possible on the wire.
  EventLog log;
  const Tuple config("cfg", {Value("node"), Value(42)});
  log.append_insert(config, 1);
  const std::uint64_t after_first = log.byte_size();
  for (int i = 0; i < 10; ++i) {
    log.append_delete(config, 2 * i + 2);
    log.append_insert(config, 2 * i + 3);
  }
  EXPECT_EQ(log.ref_table().size(), 1u);
  EXPECT_EQ(log.byte_size(), after_first + 20 * 13);
  std::ostringstream out;
  log.serialize(out);
  EXPECT_EQ(log.byte_size(), out.str().size());
  std::istringstream in(out.str());
  EXPECT_EQ(EventLog::deserialize(in).records(), log.records());
}

TEST(SerializationFormat, LegacyFlatFormatIsRejected) {
  // Pre-ref-table logs inlined the tuple payload in every record, with no
  // magic; the decoder no longer reads them and must say why. Hand-encode
  // one: op(1) time(8) name-len(4) name arity(2) fields.
  std::string bytes;
  auto put32 = [&bytes](std::uint32_t v) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      bytes += static_cast<char>((v >> shift) & 0xff);
    }
  };
  auto put64 = [&bytes, &put32](std::uint64_t v) {
    put32(static_cast<std::uint32_t>(v >> 32));
    put32(static_cast<std::uint32_t>(v));
  };
  for (int i = 0; i < 2; ++i) {
    bytes += '\0';  // op: insert
    put64(static_cast<std::uint64_t>(7 + i));
    put32(1);  // table-name length
    bytes += 't';
    bytes += '\0';
    bytes += '\x01';  // arity 1
    bytes += '\0';    // tag: int
    put64(static_cast<std::uint64_t>(100 + i));
  }
  std::istringstream in(bytes);
  try {
    EventLog::deserialize(in);
    FAIL() << "flat-format log accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "corrupt format magic at byte offset 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(SerializationHardening, TextErrorsNameTheLine) {
  const char* text =
      "+ link(\"a\", \"b\", 3) @ 10\n"
      "+ route(10.0.0.0/8) 20\n";  // missing the '@'
  try {
    EventLog::from_text(text);
    FAIL() << "malformed line accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }

  try {
    EventLog::from_text("+ link(\"a\") garbage @ 5\n");
    FAIL() << "trailing content accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing content"),
              std::string::npos)
        << e.what();
  }

  try {
    EventLog::from_text("* link(\"a\") @ 5\n");
    FAIL() << "bad op char accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
}

TEST(SerializationHardening, CheckpointRejectsDeletesAndMixedTimes) {
  // A checkpoint stream containing a delete is not a snapshot.
  EventLog with_delete;
  with_delete.append_insert(Tuple("t", {Value(1)}), 5);
  with_delete.append_delete(Tuple("t", {Value(2)}), 5);
  std::istringstream in1(serialized(with_delete));
  try {
    Checkpoint::deserialize(in1);
    FAIL() << "delete record accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("record 1 is a delete"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << e.what();
  }

  // Two capture times in one stream: also not a snapshot.
  EventLog mixed_times;
  mixed_times.append_insert(Tuple("t", {Value(1)}), 5);
  mixed_times.append_insert(Tuple("t", {Value(2)}), 6);
  std::istringstream in2(serialized(mixed_times));
  EXPECT_THROW(Checkpoint::deserialize(in2), std::runtime_error);

  // The empty checkpoint is fine (a system with no stored base state).
  std::istringstream in3("");
  EXPECT_TRUE(Checkpoint::deserialize(in3).base_tuples().empty());
}

}  // namespace
}  // namespace dp
